/**
 * @file
 * The N-protocol generalization of the reactive framework (the "set of
 * protocols" of thesis Section 1.1, freed from the binary special
 * case).
 *
 * Every reactive primitive in this repo originally baked in exactly two
 * protocols behind a binary Mode enum, and a switching policy could
 * only answer "switch or stay". This header generalizes both halves:
 *
 *  - **`ProtocolSet<Slots...>`** holds N protocol implementations (each
 *    a `ProtocolSlot`: it owns its consensus object, can be retired and
 *    revalidated by an in-consensus process, exposes an acquire/arrive
 *    attempt, and reports a per-acquisition contention signal). The
 *    *mode* of a reactive object becomes a protocol **index** — still
 *    only a hint for locks, still exact for barriers — and the
 *    dispatcher routes each operation to the indexed slot.
 *  - **`SelectPolicy`** (core/policy.hpp) replaces the binary
 *    `SwitchPolicy`'s `bool should_switch()` with
 *    `next_protocol(Observation) -> index`. An `Observation` says which
 *    protocol executed and which *direction* along the set's
 *    scalability order the acquisition argues for (`drift`): +1 means
 *    the protocol was under-provisioned for the observed contention (a
 *    contended TTS acquisition, a bunched barrier episode), -1
 *    over-provisioned (an empty-queue acquisition, a
 *    straggler-dominated episode). A calibrating policy's observations
 *    also carry the clean cost samples and the socket bit.
 *  - **`SelectAdapter`** embeds the thesis' three estimate-free binary
 *    policies as the two-protocol specialization: protocol 0
 *    observations map to `on_tts_acquire(drift > 0)`, protocol 1 to
 *    `on_queue_acquire(drift < 0)`, and "switch" means "the other
 *    index". The call sequence into the wrapped policy is *identical*
 *    to what the primitives made before this generalization, so the
 *    binary policies' decisions — and therefore the deterministic sim
 *    benchmark numbers — are bit-compatible. The calibrated binary
 *    policies (core/cost_model.hpp) are two-protocol SelectPolicies
 *    themselves.
 *
 * Two genuinely N-ary policies live here as well:
 *
 *  - `LadderCompetitivePolicy`: the 3-competitive rule with one
 *    cumulative-residual **account per protocol index**. Drift credits
 *    the adjacent rung's account; an account reaching the switch round
 *    trip moves the object there and consumes only *that* account —
 *    evidence about other protocols survives the move (the N-ary
 *    analogue of "the cumulative residual survives breaks in the
 *    streak").
 *  - `CalibratedLadderPolicy`: per-protocol-index latency EWMAs
 *    (`EwmaStat`, shared with core/cost_model.hpp) plus bounded
 *    epsilon-greedy probing. Drift accounts *schedule* measurement
 *    excursions into neighbouring rungs; adoption is decided by the
 *    measured per-episode costs, so a rung that drift alone cannot
 *    rank (is the combining tree or the dissemination barrier better
 *    at this P?) is ranked by observation. Failed excursions back off
 *    exponentially, bounding the probe overhead the way the
 *    calibrated two-protocol policies bound theirs.
 *
 * The concepts here are deliberately layered: `ProtocolSlot` is the
 * structural core (a per-participant Node type), and each primitive
 * family refines it with its operational API — see
 * `BarrierProtocolSlot` (barrier/barrier_concepts.hpp) for the barrier
 * family's consensus/episode refinement.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/policy.hpp"

namespace reactive {

/**
 * Embeds a binary SwitchPolicy as the two-protocol specialization of
 * SelectPolicy. Protocol 0 plays the TTS role, protocol 1 the queue
 * role; the underlying call sequence is identical to the pre-ProtocolSet
 * primitives', so wrapped policies decide bit-identically. The wrapped
 * policies are estimate-free, so the adapter never calibrates and has no
 * monitoring surface to forward.
 */
template <SwitchPolicy Policy>
class SelectAdapter {
  public:
    /// Only valid for two-protocol sets (ReactiveBarrier asserts it).
    static constexpr std::uint32_t kProtocols = 2;

    SelectAdapter() = default;
    /*implicit*/ SelectAdapter(Policy p) : policy_(std::move(p)) {}

    std::uint32_t next_protocol(const Observation& o)
    {
        const bool sw = o.protocol == 0
                            ? policy_.on_tts_acquire(o.drift > 0)
                            : policy_.on_queue_acquire(o.drift < 0);
        return sw ? (o.protocol ^ 1u) : o.protocol;
    }

    void on_switch() { policy_.on_switch(); }

    Policy& underlying() { return policy_; }
    const Policy& underlying() const { return policy_; }

  private:
    Policy policy_{};
};

namespace detail {

template <typename Pol>
struct SelectForImpl {
    // Not a SelectPolicy: must be a binary SwitchPolicy (the adapter's
    // constraint produces the diagnostic otherwise).
    using type = SelectAdapter<Pol>;
};

template <SelectPolicy Pol>
struct SelectForImpl<Pol> {
    using type = Pol;
};

}  // namespace detail

/// The select-interface type a reactive primitive stores for a given
/// policy parameter: the policy itself if it is already a SelectPolicy,
/// else the binary adapter around it.
template <typename Pol>
using SelectFor = typename detail::SelectForImpl<Pol>::type;

// ---- the protocol set --------------------------------------------------

// clang-format off
/**
 * Structural core of a protocol-set member: a per-participant Node
 * type. Each primitive family refines this with its operational API —
 * the slot's consensus object, invalidate/revalidate protocol, acquire
 * attempt, and per-acquisition signal take a different (but uniform
 * within the family) shape per primitive; see BarrierProtocolSlot in
 * barrier/barrier_concepts.hpp for the barrier refinement.
 */
template <typename S>
concept ProtocolSlot =
    std::is_object_v<S> && std::default_initializable<typename S::Node>;
// clang-format on

namespace detail {

/// In-place slot storage (protocol objects hold atomics and are neither
/// movable nor copyable, so std::tuple construction-from-temporaries is
/// not an option): one recursive layer per slot, each constructed
/// directly from the shared constructor arguments.
template <std::size_t I, typename... Ss>
struct SlotStore;

template <std::size_t I>
struct SlotStore<I> {
    template <typename... Args>
    explicit SlotStore(const Args&...)
    {
    }
};

template <std::size_t I, typename S, typename... Rest>
struct SlotStore<I, S, Rest...> : SlotStore<I + 1, Rest...> {
    template <typename... Args>
    explicit SlotStore(const Args&... args)
        : SlotStore<I + 1, Rest...>(args...), slot(args...)
    {
    }

    S slot;
};

template <std::size_t Want, std::size_t At, typename S, typename... Rest>
auto& slot_get(SlotStore<At, S, Rest...>& store)
{
    if constexpr (Want == At)
        return store.slot;
    else
        return slot_get<Want>(
            static_cast<SlotStore<At + 1, Rest...>&>(store));
}

template <typename Fn, std::size_t At, typename S, typename... Rest>
void slot_visit(SlotStore<At, S, Rest...>& store, std::uint32_t index,
                Fn& fn)
{
    if (index == At) {
        fn(store.slot, std::integral_constant<std::size_t, At>{});
        return;
    }
    if constexpr (sizeof...(Rest) > 0) {
        slot_visit(static_cast<SlotStore<At + 1, Rest...>&>(store), index,
                   fn);
    } else {
        // Out-of-range index (a caller bypassing the consensus-side
        // clamp): loud in debug builds; in release, dispatch to the
        // last slot — the same clamp the consensus side applies —
        // rather than silently dropping the operation (a skipped
        // barrier arrival would deadlock the episode, a skipped lock
        // op would corrupt the protocol state).
        assert(false && "protocol index out of range");
        fn(store.slot, std::integral_constant<std::size_t, At>{});
    }
}

}  // namespace detail

/**
 * An ordered set of N protocol implementations behind one reactive
 * object. Order is the set's *scalability order* (index 0 = the
 * low-contention protocol, highest index = the most scalable one):
 * `Observation::drift` and the ladder policies are defined against
 * it. Every slot is constructed from the same constructor arguments
 * (each family fixes a uniform (shape, options) constructor — for
 * barriers, `(participants, BarrierSlotOptions)`).
 */
template <ProtocolSlot... Slots>
    requires(sizeof...(Slots) >= 2)
class ProtocolSet {
  public:
    static constexpr std::uint32_t kCount =
        static_cast<std::uint32_t>(sizeof...(Slots));

    /// Aggregate per-participant state: one Node per slot.
    using Nodes = std::tuple<typename Slots::Node...>;

    template <typename... Args>
    explicit ProtocolSet(const Args&... args) : slots_(args...)
    {
    }

    /// Compile-time-indexed slot access.
    template <std::size_t I>
    auto& get()
    {
        static_assert(I < sizeof...(Slots));
        return detail::slot_get<I>(slots_);
    }

    /// Runtime-indexed visit: fn(slot, integral_constant<size_t, I>).
    /// An out-of-range index clamps to the last slot (never a no-op).
    template <typename Fn>
    void dispatch(std::uint32_t index, Fn&& fn)
    {
        detail::slot_visit(slots_, index, fn);
    }

  private:
    detail::SlotStore<0, Slots...> slots_;
};

// ---- N-ary selection policies ------------------------------------------

/**
 * The 3-competitive rule generalized to an N-protocol ladder with one
 * cumulative-residual account **per protocol index**.
 *
 * While protocol i executes, a drift-up observation credits
 * `account[i+1]` with `residual_up` and a drift-down observation
 * credits `account[i-1]` with `residual_down` (the set's scalability
 * order makes the adjacent rung the candidate the evidence argues
 * for). When any account reaches the switch round trip the policy
 * moves there and consumes only that account: evidence concerning
 * *other* protocols survives both breaks in the signal streak and
 * protocol changes that do not involve them — the N-ary extension of
 * the accumulate-across-breaks property that yields the competitive
 * bound (a round trip through a third protocol cannot erase what has
 * been learned about a first).
 *
 * With N = 2 this is the Competitive3Policy decision rule with the
 * cumulative account split per direction.
 */
class LadderCompetitivePolicy {
  public:
    struct Params {
        std::uint32_t protocols = 2;       ///< N (ladder rungs)
        std::uint64_t residual_up = 150;   ///< per drift-up observation
        std::uint64_t residual_down = 15;  ///< per drift-down observation
        std::uint64_t switch_round_trip = 8800;
    };

    LadderCompetitivePolicy() : LadderCompetitivePolicy(Params{}) {}

    explicit LadderCompetitivePolicy(Params p)
        : params_(p),
          accounts_(p.protocols < 2 ? 2 : p.protocols, 0)
    {
    }

    std::uint32_t next_protocol(const Observation& o)
    {
        const auto n = static_cast<std::uint32_t>(accounts_.size());
        const std::uint32_t i = o.protocol < n ? o.protocol : n - 1;
        if (o.drift > 0 && i + 1 < n)
            accounts_[i + 1] += params_.residual_up;
        else if (o.drift < 0 && i > 0)
            accounts_[i - 1] += params_.residual_down;
        // Only the adjacent rungs can have just crossed the bar, but
        // scanning keeps the invariant obvious: first full account wins.
        for (std::uint32_t j = 0; j < n; ++j) {
            if (j != i && accounts_[j] >= params_.switch_round_trip) {
                accounts_[j] = 0;  // evidence consumed by the move
                return j;
            }
        }
        return i;
    }

    void on_switch() {}

    /// Per-protocol cumulative account (tests, diagnostics).
    std::uint64_t account(std::uint32_t j) const { return accounts_[j]; }

    std::uint32_t protocols() const
    {
        return static_cast<std::uint32_t>(accounts_.size());
    }

    /// Re-sizes the ladder to @p n rungs, clearing the accounts (the
    /// reactive primitives call this at construction so a
    /// default-constructed policy matches its ProtocolSet instead of
    /// silently operating on the wrong rung count).
    void resize_protocols(std::uint32_t n)
    {
        if (n == protocols())
            return;
        accounts_.assign(n < 2 ? 2 : n, 0);
    }

  private:
    Params params_;
    std::vector<std::uint64_t> accounts_;
};

static_assert(SelectPolicy<LadderCompetitivePolicy>);

/**
 * Measured N-protocol selection: per-protocol-index cost EWMAs plus
 * bounded epsilon-greedy probing, for sets whose rungs drift signals
 * alone cannot rank (drift says "more scalable would help", but not
 * whether the combining tree or the dissemination barrier is the
 * better scalable rung at this participant count).
 *
 * Operation (all in-consensus, mirroring CalibratedCompetitive3Policy):
 *
 *  - Every observation's cycle sample updates the executing rung's
 *    EWMA (`EwmaStat`, first sample replaces the empty seed; the first
 *    sample after any protocol change is discarded — it pays the
 *    switch disruption, not the rung's steady cost).
 *  - Drift maintains per-destination accounts exactly like
 *    LadderCompetitivePolicy, but a full account triggers a
 *    measurement **excursion** (probe) into that rung rather than a
 *    committed switch; each consumed account doubles that
 *    destination's bar (capped), so persistent-but-wrong drift
 *    evidence backs off instead of oscillating the object.
 *  - A scheduled probe also fires every `probe_period` observations
 *    (doubling up to `probe_backoff_cap` while probes keep confirming
 *    the status quo), aimed at the candidate with the fullest account,
 *    then the stalest estimate — so every rung's estimate is
 *    periodically refreshed even in a signal-free steady state.
 *  - A probe samples `probe_len` observations at the probed rung, then
 *    decides: a *scheduled* probe **adopts** the rung as the new home
 *    iff its measured cost beats the home rung's by
 *    `adopt_margin_pct`; a *drift-triggered* probe adopts unless the
 *    rung measures worse by that margin — the signals carry
 *    information the latency average cannot (a straggler-dominated
 *    episode's period is the straggle window on every rung, but the
 *    skewed signal knows the scalable structure is pure overhead), so
 *    sustained drift wins measurement ties. Adoption resets all probe
 *    backoff (the regime moved); otherwise the object returns home and
 *    the cadence backs off.
 *
 * Probe cost is bounded (probe_len observations per period, at most
 * one round trip each way), so as with the calibrated binary policies
 * the regret of measuring stays a small constant fraction while the
 * unbounded cost of trusting wrong constants disappears. Without cycle
 * samples (a non-calibrating caller) the policy degenerates to probing
 * with no adoption evidence and stays home; use it with calibrating
 * primitives.
 */
class CalibratedLadderPolicy {
  public:
    struct Params {
        std::uint32_t protocols = 2;  ///< N (ladder rungs)
        /// Observations between scheduled probes (0 disables them);
        /// doubles per status-quo-confirming probe up to the cap.
        std::uint32_t probe_period = 16;
        std::uint32_t probe_backoff_cap = 5;
        /// Observations sampled at the probed rung per excursion (the
        /// first is the discarded post-switch sample).
        std::uint32_t probe_len = 3;
        /// Required measured advantage (percent) to adopt a probed rung.
        std::uint32_t adopt_margin_pct = 5;
        /// Drift-evidence account: residual per drifting observation
        /// and the bar that triggers an excursion toward the credited
        /// rung; each consumed account doubles its bar (capped at
        /// kDriftBackoffCap doublings).
        std::uint64_t drift_residual = 150;
        std::uint64_t drift_round_trip = 8800;
    };

    /// Steady-state gain 2^-shift of the per-rung cost EWMAs.
    static constexpr std::uint32_t kEwmaShift = 2;
    /// Scheduled probes skip rungs whose last estimate exceeds this
    /// multiple of the home rung's: a rung measured badly out of
    /// contention is not worth re-measuring on a timer — drift evidence
    /// still forces an excursion there, which is how regime changes
    /// (which come with signals) reopen it.
    static constexpr std::uint64_t kProbeSkipFactor = 2;
    /// Cap on the doublings of a drift account's bar.
    static constexpr std::uint32_t kDriftBackoffCap = 6;

    CalibratedLadderPolicy() : CalibratedLadderPolicy(Params{}) {}

    explicit CalibratedLadderPolicy(Params p)
        : params_(p),
          n_(p.protocols < 2 ? 2 : p.protocols),
          ewma_(n_, SocketSplitStat{0}),
          age_(n_, 0),
          accounts_(n_, 0),
          bar_shift_(n_, 0),
          switch_span_(EwmaStat{0})
    {
        if (params_.probe_len < 2)
            params_.probe_len = 2;  // first probe sample is discarded
    }

    /**
     * One observation. Its cycle sample, when present, updates the
     * executing rung's EWMA first — unless it is the first sample since
     * a protocol change. Per-rung costs are socket-split
     * (SocketSplitStat): on a multi-socket host each rung's episode cost
     * has an intra- and a cross-socket-handoff population, and the rung
     * ranking compares the traffic-mix blends.
     */
    std::uint32_t next_protocol(const Observation& o)
    {
        if (o.cycles && !std::exchange(skip_next_sample_, false)) {
            const std::uint32_t i = clamp(o.protocol);
            // First observation replaces the empty seed outright.
            ewma_[i].observe(*o.cycles, kEwmaShift, o.cross);
            age_[i] = 0;
        }
        return step(o);
    }

    void on_switch()
    {
        probe_ = probe_ == Probe::kPending ? Probe::kProbing : Probe::kNone;
        probe_acqs_ = 0;
        since_probe_ = 0;
        skip_next_sample_ = true;
    }

    void on_switch_cycles(std::uint64_t cycles)
    {
        // Recorded for diagnostics/tests; the excursion bars are the
        // policy's switch-cost control surface.
        switch_span_.observe(cycles, kEwmaShift);
    }

    /// Re-sizes the ladder to @p n rungs, resetting the measurement
    /// and probe state (called by the reactive primitives at
    /// construction; see LadderCompetitivePolicy::resize_protocols).
    void resize_protocols(std::uint32_t n)
    {
        if (n == n_)
            return;
        n_ = n < 2 ? 2 : n;
        ewma_.assign(n_, SocketSplitStat{0});
        age_.assign(n_, 0);
        accounts_.assign(n_, 0);
        bar_shift_.assign(n_, 0);
        home_ = 0;
        probe_ = Probe::kNone;
        probe_target_ = 0;
        probe_acqs_ = 0;
        probe_backoff_ = 0;
        since_probe_ = 0;
    }

    // ---- monitoring (tests, experiments) -----------------------------

    std::uint32_t protocols() const { return n_; }
    std::uint32_t home() const { return home_; }
    bool probing() const { return probe_ != Probe::kNone; }
    std::uint64_t probes_started() const { return probes_started_; }
    std::uint64_t adoptions() const { return adoptions_; }
    std::uint64_t latency(std::uint32_t j) const { return ewma_[j].value(); }
    bool measured(std::uint32_t j) const { return ewma_[j].count() > 0; }
    std::uint64_t account(std::uint32_t j) const { return accounts_[j]; }
    std::uint64_t switch_span() const { return switch_span_.value; }

  private:
    enum class Probe : std::uint8_t { kNone, kPending, kProbing };

    std::uint32_t clamp(std::uint32_t i) const
    {
        return i < n_ ? i : n_ - 1;
    }

    std::uint32_t step(const Observation& o)
    {
        const std::uint32_t i = clamp(o.protocol);
        for (std::uint32_t j = 0; j < n_; ++j)
            ++age_[j];
        if (probe_ == Probe::kPending) {
            // An observation before on_switch() means the caller either
            // dropped the requested change (e.g. it clamped an
            // out-of-range rung) — forget the probe and resume normal
            // operation, a permanent re-request would wedge the policy
            // — or switched without notifying; tolerate that too.
            if (i == probe_target_)
                probe_ = Probe::kProbing;
            else
                probe_ = Probe::kNone;
        }
        if (probe_ == Probe::kProbing) {
            if (i == probe_target_)
                return probe_step(i);
            probe_ = Probe::kNone;  // stale probe: the mode moved away
        }
        home_ = i;
        if (o.drift > 0 && i + 1 < n_)
            accounts_[i + 1] += params_.drift_residual;
        else if (o.drift < 0 && i > 0)
            accounts_[i - 1] += params_.drift_residual;
        ++since_probe_;
        // A full account forces an excursion toward the credited rung
        // (and raises its bar: wrong evidence must back off).
        for (std::uint32_t j = 0; j < n_; ++j) {
            if (j != i && accounts_[j] >= bar(j)) {
                accounts_[j] = 0;
                if (bar_shift_[j] < kDriftBackoffCap)
                    ++bar_shift_[j];
                return start_probe(j, /*drift_triggered=*/true);
            }
        }
        if (probe_due()) {
            const std::uint32_t target = pick_probe_target(i);
            if (target != i) {
                // The cadence backs off only when a probe actually
                // runs (and confirms the status quo); merely being
                // consulted — e.g. while every candidate is
                // skip-filtered — must not ratchet it.
                if (probe_backoff_ < params_.probe_backoff_cap)
                    ++probe_backoff_;
                return start_probe(target, /*drift_triggered=*/false);
            }
        }
        return i;
    }

    /// One observation executed at the probed rung; after probe_len the
    /// measured comparison decides between adoption and returning home.
    std::uint32_t probe_step(std::uint32_t i)
    {
        if (++probe_acqs_ < params_.probe_len)
            return i;
        probe_ = Probe::kNone;
        bool adopt = false;
        if (measured(i) && measured(home_)) {
            const std::uint64_t probed = ewma_[i].value() * 100;
            const std::uint64_t margin = params_.adopt_margin_pct;
            // Scheduled probes need a measured win; drift-triggered
            // probes carry signal evidence and win measurement ties
            // (see file header).
            adopt = probe_from_drift_
                        ? probed <= ewma_[home_].value() * (100 + margin)
                        : probed <= ewma_[home_].value() * (100 - margin);
        }
        if (adopt) {
            // Adoption: the regime moved. Re-arm every exploration
            // cadence so the new neighbourhood is mapped quickly.
            home_ = i;
            probe_backoff_ = 0;
            for (std::uint32_t j = 0; j < n_; ++j) {
                bar_shift_[j] = 0;
                accounts_[j] = 0;
            }
            ++adoptions_;
        }
        return home_;
    }

    std::uint32_t start_probe(std::uint32_t target, bool drift_triggered)
    {
        probe_ = Probe::kPending;
        probe_target_ = target;
        probe_from_drift_ = drift_triggered;
        probe_acqs_ = 0;
        since_probe_ = 0;
        ++probes_started_;
        return target;
    }

    bool probe_due() const
    {
        if (params_.probe_period == 0)
            return false;
        return since_probe_ >=
               (static_cast<std::uint64_t>(params_.probe_period)
                << probe_backoff_);
    }

    /// Candidate with the fullest drift account, then the stalest
    /// estimate (never-measured counts as infinitely stale). Rungs
    /// measured beyond kProbeSkipFactor of home are not scheduled
    /// (drift evidence can still force them); returns @p i when no
    /// candidate is worth a probe.
    std::uint32_t pick_probe_target(std::uint32_t i) const
    {
        std::uint32_t best = i;
        for (std::uint32_t j = 0; j < n_; ++j) {
            if (j == i)
                continue;
            if (measured(j) && measured(i) &&
                ewma_[j].value() > kProbeSkipFactor * ewma_[i].value())
                continue;
            if (best == i ||
                (accounts_[j] != accounts_[best]
                     ? accounts_[j] > accounts_[best]
                     : staleness(j) > staleness(best)))
                best = j;
        }
        return best;
    }

    std::uint64_t staleness(std::uint32_t j) const
    {
        return ewma_[j].count() == 0 ? ~std::uint64_t{0} : age_[j];
    }

    std::uint64_t bar(std::uint32_t j) const
    {
        return params_.drift_round_trip << bar_shift_[j];
    }

    Params params_;
    std::uint32_t n_;
    std::vector<SocketSplitStat> ewma_;
    std::vector<std::uint64_t> age_;
    std::vector<std::uint64_t> accounts_;
    std::vector<std::uint32_t> bar_shift_;
    EwmaStat switch_span_;
    std::uint32_t home_ = 0;
    std::uint32_t probe_target_ = 0;
    std::uint32_t probe_acqs_ = 0;
    std::uint32_t probe_backoff_ = 0;
    std::uint64_t since_probe_ = 0;
    std::uint64_t probes_started_ = 0;
    std::uint64_t adoptions_ = 0;
    Probe probe_ = Probe::kNone;
    bool probe_from_drift_ = false;
    bool skip_next_sample_ = false;
};

static_assert(CalibratingSelectPolicy<CalibratedLadderPolicy>);

// The binary policies embed as two-protocol SelectPolicies.
static_assert(SelectPolicy<SelectAdapter<AlwaysSwitchPolicy>>);
static_assert(!CalibratingSelectPolicy<SelectAdapter<Competitive3Policy>>);

}  // namespace reactive
