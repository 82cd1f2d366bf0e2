/**
 * @file
 * Waiting-mode selection: the second per-object reactive axis.
 *
 * The thesis treats *how to wait* (Chapter 4) as the same competitive
 * choice problem as *which protocol to use* (Chapter 3): spinning costs
 * the waiter's processor, blocking costs a fixed overhead B, and the
 * on-line algorithm that polls for Lpoll = alpha x B before blocking is
 * e/(e-1)-competitive against the offline optimum (Karlin et al.;
 * alpha* = ln(e-1) for exponential waiting times, see
 * theory/waiting_cost.hpp). The static pieces already exist —
 * waiting/wait.hpp implements the algorithms, platform/parker.hpp the
 * signaling mechanism — but until now every primitive hard-coded
 * always-spin. This header adds the *selection* layer: a per-object
 * `WaitSelectPolicy` that the holder consults in consensus, choosing
 *
 *   - **always-spin** when the object's handoffs are saturated (some
 *     waiter is resident and polling — blocking machinery would be
 *     pure overhead) or no waiter has lately lost its processor (no
 *     other thread wants it, so parking would free nothing),
 *   - **two-phase** (spin-then-park with the *calibrated*
 *     Lpoll = alpha x B_measured, replacing the static Alewife
 *     constant) when handoffs run at scheduling timescales and
 *     waiters are being descheduled, and
 *   - **immediate-park** when measured waits dwarf the poll budget
 *     (the polling phase itself becomes pure waste — deep queues,
 *     heavy oversubscription).
 *
 * The selection shares the PR 4/6 safety argument with protocol
 * selection: all estimator lanes (hold-time and queue-depth EWMAs, the
 * handoff-gap lane, plus the measured wake-latency class standing in
 * for B) are written only by in-consensus processes using samples the
 * holder already has, so monitoring adds **zero shared-memory
 * traffic**. The chosen mode is published as a packed *hint* word
 * (WaitSite); like the protocol mode variable it is only a hint — a
 * waiter acting on a stale hint parks when it could have spun (or vice
 * versa) but never loses a wakeup, because releases in parking
 * configurations always notify the site.
 *
 * Selection model: the discriminating quantity is the **handoff gap**
 * — the span from one release to the next acquisition, which the
 * holder chain measures for free (every release carries its timestamp
 * in the WaitSignal; the next holder's hold-start closes the gap). A
 * *saturated* object — some waiter resident and polling — hands off in
 * tens of cycles at any oversubscription level, and spinning is right:
 * blocking could only add the signal cost B to every handoff. An
 * *unsaturated* object (waiters descheduled behind spinners, or
 * threads off thinking between sections) hands off at scheduling
 * timescales, and a resident spinner is then burning the exact quantum
 * some runnable thread needs. Indirect proxies (hold x depth queueing
 * estimates) cannot make this call — an oversubscribed zero-think hot
 * loop and an oversubscribed think-loop produce overlapping hold/depth
 * signatures, yet spin is right for one and parking for the other —
 * but the handoff gap separates them directly: tens of cycles in the
 * first, hundreds-to-quanta in the second.
 *
 * Modes form a *patience ladder* (spin < two-phase < park) and the
 * policy steps one rung at a time, because each rung's exit signal has
 * a different observability:
 *
 *   - under **spin**, gaps are measured exactly (poll-grained);
 *   - under **two-phase**, a regime that quickens is caught by the
 *     polling window — waiters start winning inside Lpoll, the gap
 *     collapses back to poll granularity, and the policy returns to
 *     spin;
 *   - **park** is self-sealing: with no polling phase every handoff
 *     goes through a wake, so both the gap (~B always) and the W lane
 *     (queue rotation at wake cost) stop discriminating. Park tenure
 *     is therefore a bounded *lease* (kParkTenure): on expiry
 *     the policy steps down to two-phase for a revalidation window,
 *     re-measures, and re-escalates only if the waits still dwarf the
 *     poll budget — the same backed-off refresh-probe discipline the
 *     protocol policies use for dormant rungs. In a regime where park
 *     was right the lease costs ~nothing (two-phase differs from park
 *     by at most one expired Lpoll per wait); in a regime that
 *     quickened it is the escape hatch.
 *
 * A decision streak is the hysteresis: kSwitchStreak consecutive
 * disagreeing verdicts for most edges, the longer kLeaveSpinStreak
 * for spin -> two-phase — a wrong park in a saturated regime costs ~B
 * per handoff, so leaving spin demands the most evidence. One
 * preemption-mangled handoff or one quiet release never flips the
 * mode.
 *
 * Leaving spin also needs **deschedule evidence**. Parking pays B to
 * free the waiter's processor, so it pays off only when another thread
 * is ready to run there, and an unsaturated gap cannot tell: with one
 * thread per processor, a think-paced lock or an rwlock writer whose
 * gaps span reader tenures shows the same long gaps as an
 * oversubscribed object. So the spin -> two-phase step is taken only
 * while some slow-path winner reported, within the last
 * kDescheduleEvidence releases, that it lost its processor mid-spin —
 * WaitSite's pause-corrected poll-gap test, the trick of time-published
 * locks (He, Scherer & Scott, HiPC 2005): a waiter's own clock shows
 * that it was preempted. Every other edge is as above. The report
 * arrives through the winner's consensus step, so it is single-writer
 * and adds no shared-memory traffic.
 */
#pragma once

#include <cstdint>

#include "core/cost_model.hpp"
#include "waiting/wait.hpp"

namespace reactive {

/// Waiting mode of a reactive object (the second selection axis).
enum class WaitMode : std::uint8_t {
    kSpin = 0,      ///< poll forever (the pre-subsystem behavior)
    kTwoPhase = 1,  ///< poll up to Lpoll = alpha x B, then park
    kPark = 2,      ///< park immediately (no polling phase)
};

/**
 * alpha* for exponentially distributed waiting times, in permille:
 * ln(e - 1) ~ 0.5413 (theory::exponential_optimal_alpha()). Kept as an
 * integer constant so the hot-path threshold arithmetic — like every
 * policy computation in this repo — stays in integers.
 */
inline constexpr std::uint64_t kWaitAlphaPermille = 541;

/**
 * Unpacked form of the per-object wait hint. The packed form is one
 * uint32_t (written by the holder, read by waiters, both relaxed):
 *
 *   bits [1:0]  WaitMode
 *   bit  [2]    PollMechanism (0 spin, 1 switch-spin)
 *   bits [31:3] poll_limit >> 4 (16-cycle granularity, saturating)
 */
struct WaitHint {
    WaitMode mode = WaitMode::kSpin;
    PollMechanism poll = PollMechanism::kSpin;
    std::uint64_t poll_limit = 0;  ///< cycles (meaningful for kTwoPhase)
};

inline constexpr std::uint32_t pack_wait_hint(const WaitHint& h)
{
    std::uint64_t q = h.poll_limit >> 4;
    if (q > 0x1fffffffu)
        q = 0x1fffffffu;  // saturate: ~8.5e9 cycles is "forever"
    return static_cast<std::uint32_t>(h.mode) |
           (h.poll == PollMechanism::kSwitchSpin ? 4u : 0u) |
           (static_cast<std::uint32_t>(q) << 3);
}

inline constexpr WaitHint unpack_wait_hint(std::uint32_t packed)
{
    WaitHint h;
    h.mode = static_cast<WaitMode>(packed & 3u);
    h.poll = (packed & 4u) != 0 ? PollMechanism::kSwitchSpin
                                : PollMechanism::kSpin;
    h.poll_limit = static_cast<std::uint64_t>(packed >> 3) << 4;
    return h;
}

/// The waiting algorithm a hint tells a waiter to run (wait_until).
inline constexpr WaitingAlgorithm to_algorithm(const WaitHint& h)
{
    switch (h.mode) {
    case WaitMode::kPark:
        return WaitingAlgorithm::always_block();
    case WaitMode::kTwoPhase:
        return WaitingAlgorithm::two_phase(h.poll_limit, h.poll);
    case WaitMode::kSpin:
    default:
        return WaitingAlgorithm::always_spin(h.poll);
    }
}

// clang-format off
/**
 * Waiting-mode selection policy. All methods are called only by
 * in-consensus processes (the same serialization that protects
 * protocol-switch policy state): `on_release` by the departing holder
 * (returns the packed hint for the *next* waiters), `note_wake_latency`
 * by a freshly woken waiter *after* it became the holder (its measured
 * release->running latency is the block-cost class sample).
 */
template <typename Pol>
concept WaitSelectPolicy =
    requires(Pol p, const WaitSignal& s, std::uint64_t c) {
        { p.on_release(s) } -> std::same_as<std::uint32_t>;
        { p.note_wake_latency(c) } -> std::same_as<void>;
        { p.hint() } -> std::same_as<std::uint32_t>;
    };
// clang-format on

/**
 * Measured waiting-mode selection (see file header for the model):
 * threshold decisions on the handoff-gap, wait, and block-cost lanes,
 * with a decision streak as hysteresis.
 *
 * B (the block cost) is seeded and then *observed* from measured wake
 * latencies — the release-to-running span a woken waiter reports when
 * it becomes holder — so Lpoll = alpha x B tracks the machine the
 * object actually runs on instead of the Alewife constant. The first
 * observation replaces the seed outright (EwmaStat::observe): wake
 * latencies arrive only once parking has begun, and a wrong seed would
 * otherwise bias the poll budget for dozens of samples.
 */
class CalibratedWaitPolicy {
  public:
    /// Releases for which one deschedule report keeps the
    /// spin -> two-phase step open (64 and 4,096 measured the same).
    static constexpr std::uint32_t kDescheduleEvidence = 256;
    /// releases_since_deschedule() before the first report.
    static constexpr std::uint32_t kNeverDescheduled = 0xffffffffu;

    /// Mean hold time seed, in cycles.
    static constexpr std::uint64_t kHoldSeed = 200;
    /// B seed until measured, in cycles.
    static constexpr std::uint64_t kBlockSeed = 1000;
    /// Steady-state gain 2^-shift.
    static constexpr std::uint32_t kEwmaShift = 3;
    /// Floor on the calibrated Lpoll (clock-read granularity).
    static constexpr std::uint64_t kMinPoll = 64;
    /// Outlier clamp: a sample folds in at most kClampFactor x the
    /// lane's current estimate (preemption-spike robustness).
    static constexpr std::uint64_t kClampFactor = 8;
    /// Saturated-handoff test: a release-to-acquire gap of at most
    /// hold/2 + kIdleSlack means some waiter was resident and polling
    /// when the lock freed, so spinning hands off at poll granularity.
    /// The additive term absorbs the fixed release-to-stamp path
    /// length (a few cache ops).
    static constexpr std::uint64_t kIdleSlack = 32;
    /// The gap lane clamps much harder than the generic kClampFactor:
    /// one sample moves it by at most a factor of kIdleClampFactor
    /// (plus 2 x kIdleSlack of additive headroom so a near-zero
    /// estimate can still grow). Quantum expiries synchronize across
    /// simulated processors, so context-switch storms produce
    /// *consecutive* gap spikes — under the generic 8x clamp a
    /// four-spike storm multiplies the estimate ~12x and fakes a
    /// regime change; under 2x it takes a dozen consecutive spikes,
    /// which *is* a regime change.
    static constexpr std::uint64_t kIdleClampFactor = 2;
    /// Park cutoff: once measured waits reach this multiple of the
    /// calibrated Lpoll, the two-phase polling prefix is pure waste (it
    /// expires virtually every time) and the policy parks immediately.
    /// 8 x Lpoll ~ 4.3 x B.
    static constexpr std::uint64_t kParkWaitFactor = 8;
    /// Consecutive disagreeing decisions before the mode switches
    /// (hysteresis against boundary flapping and one-off stalls).
    static constexpr std::uint32_t kSwitchStreak = 3;
    /// Leaving spin is the asymmetric risk: a wrong park in a saturated
    /// regime costs ~B per handoff, a wrong spin in an unsaturated one
    /// costs only the quantum tail. So the spin -> two-phase transition
    /// demands a longer run of agreeing verdicts than any other edge.
    static constexpr std::uint32_t kLeaveSpinStreak = 8;
    /// Park self-seals: with no polling phase, neither waiters nor the
    /// holder can observe that handoffs *would* be fast again (every
    /// gap is a wake, ~B cycles). So park tenure is leased: after
    /// kParkTenure releases the policy steps back to two-phase for at
    /// least kParkRevalidate releases, whose poll window re-exposes the
    /// gap and refreshes the W lane — the same backed-off refresh-probe
    /// idea the protocol policies use for dormant rungs.
    static constexpr std::uint32_t kParkTenure = 64;
    static constexpr std::uint32_t kParkRevalidate = 16;
    /// Polling mechanism waiters should use below the park point.
    static constexpr PollMechanism kPoll = PollMechanism::kSpin;

    CalibratedWaitPolicy()
        : hold_(kHoldSeed),
          depth_x16_(0),
          block_(kBlockSeed),
          wait_(0),
          idle_(2 * kIdleSlack)
    {
        // The gap lane opts out of EwmaStat's fast start (gain 1/2 for
        // the first samples): start-of-run gaps are spawn-paced noise,
        // and amplifying them is exactly the spike-compounding the
        // tight idle clamp exists to prevent. idle_seen_ carries the
        // "any contention history?" bit instead of idle_.count.
        idle_.count = EwmaStat::kFastStartSamples;
        hint_ = compute();
    }

    /// Departing holder: fold in this hold's span, the queue depth it
    /// saw for free, and the handoff gap its own acquisition closed;
    /// re-decide the mode; recompute the hint. In-consensus only.
    std::uint32_t on_release(const WaitSignal& s)
    {
        if (since_deschedule_ != kNeverDescheduled)
            ++since_deschedule_;
        hold_.update(clamped(s.hold_cycles, hold_), kEwmaShift);
        depth_x16_.update(static_cast<std::uint64_t>(s.queue_depth) * 16,
                          kEwmaShift);
        if (s.now_cycles != 0) {
            // The gap this holder closed: the previous release's stamp
            // to this hold's start (now - hold span). Derived here so
            // every primitive that timestamps its releases feeds the
            // lane — no extra instrumentation at acquisition.
            const std::uint64_t acquired =
                s.now_cycles > s.hold_cycles ? s.now_cycles - s.hold_cycles
                                             : 0;
            if (last_release_ != 0 && acquired > last_release_) {
                std::uint64_t gap = acquired - last_release_;
                const std::uint64_t cap =
                    idle_.value * kIdleClampFactor + 2 * kIdleSlack;
                idle_.update(gap > cap ? cap : gap, kEwmaShift);
                idle_seen_ = true;
            }
            last_release_ = s.now_cycles;
        }
        decide();
        hint_ = compute();
        return hint_;
    }

    /// Woken waiter, now holder: one measured block-cost-class sample
    /// (release-timestamp -> running). First sample replaces the seed.
    ///
    /// B approximates the *fixed* cost of blocking — unload, signal,
    /// reload — which is a machine constant, not a workload variable.
    /// Raw release-to-running spans also contain scheduling queueing
    /// delay, which under oversubscription is unbounded (a woken
    /// thread waits out its processor's whole run queue) and would
    /// inflate Lpoll = alpha x B until "two-phase" degenerates into
    /// spinning. So the lane tracks the sample *floor*: it chases
    /// lower samples quickly (a clean wake with a free processor is
    /// the overhead itself) and lets higher ones drag it up only by a
    /// bounded fraction per sample.
    void note_wake_latency(std::uint64_t cycles)
    {
        if (block_.count == 0 || cycles < block_.value) {
            block_.observe(cycles, 1);
            return;
        }
        const std::uint64_t ceil_ = block_.value + block_.value / 8;
        block_.update(cycles > ceil_ ? ceil_ : cycles, kEwmaShift);
    }

    /// Slow-path winner, now holder: its own measured wait span (the W
    /// lane). Samples saturate at twice the park cutoff — the lane's
    /// only consumer is the `W >= kParkWaitFactor x Lpoll` comparison,
    /// and an uncapped pathological span (a waiter stranded across a
    /// transient mode excursion can report millions of cycles) would
    /// otherwise pin the verdict at "park" for the dozens of samples
    /// an EWMA needs to flush it.
    void note_wait(std::uint64_t cycles)
    {
        const std::uint64_t cap = 2 * kParkWaitFactor * lpoll();
        wait_.observe(cycles > cap ? cap : cycles, kEwmaShift);
    }

    /// Slow-path winner, now holder: it lost its processor to another
    /// thread while it spun (AwaitResult::descheduled). Opens the
    /// spin -> two-phase step for the next kDescheduleEvidence
    /// releases.
    void note_descheduled() { since_deschedule_ = 0; }

    std::uint32_t hint() const { return hint_; }
    WaitMode mode() const { return mode_; }

    /// Releases since the last deschedule report (kNeverDescheduled
    /// before the first).
    std::uint32_t releases_since_deschedule() const
    {
        return since_deschedule_;
    }

    // ---- estimator lanes (tests, diagnostics, trace snapshots) -------

    std::uint64_t hold_estimate() const { return hold_.value; }
    std::uint64_t depth_estimate_x16() const { return depth_x16_.value; }
    std::uint64_t block_estimate() const { return block_.value; }
    std::uint64_t wait_estimate() const { return wait_.value; }
    std::uint64_t idle_estimate() const { return idle_.value; }
    bool block_measured() const { return block_.count > 0; }

    /// The calibrated poll budget Lpoll = alpha x B_measured.
    std::uint64_t lpoll() const
    {
        const std::uint64_t l = block_.value * kWaitAlphaPermille / 1000;
        return l < kMinPoll ? kMinPoll : l;
    }

    /// Expected wait of the next waiter: the measured W lane (falls
    /// back to the hold x (depth + 1/2) queueing proxy until a wait
    /// has been observed).
    std::uint64_t expected_wait() const
    {
        if (wait_.count > 0)
            return wait_.value;
        return hold_.value * (depth_x16_.value + 8) / 16;
    }

  private:
    /// Outlier clamp (see kClampFactor); the first sample of a
    /// lane passes through untouched.
    std::uint64_t clamped(std::uint64_t sample, const EwmaStat& lane) const
    {
        if (lane.count == 0)
            return sample;
        const std::uint64_t cap = lane.value * kClampFactor;
        return sample > cap ? cap : sample;
    }

    /// Saturation verdict: handoffs at poll granularity (or no
    /// contention history at all — an uncontended object never leaves
    /// spin and so never pays a cycle of blocking machinery).
    bool saturated() const
    {
        return !idle_seen_ ||
               idle_.value <= hold_.value / 2 + kIdleSlack;
    }

    /// Parking frees a processor only if another thread wants it: some
    /// winner reported a deschedule within the last
    /// kDescheduleEvidence releases.
    bool processor_wanted() const
    {
        return since_deschedule_ <= kDescheduleEvidence;
    }

    /// Waits so long the two-phase poll prefix virtually always
    /// expires — polling before parking is pure waste.
    bool waits_dwarf_poll() const
    {
        return wait_.count > 0 &&
               wait_.value >= kParkWaitFactor * lpoll();
    }

    /// The adjacent rung the lanes currently argue for. Modes form a
    /// patience ladder (spin < two-phase < park) and transitions step
    /// one rung at a time: spin never jumps straight to park on a
    /// stale W estimate, and park steps down through two-phase, whose
    /// poll window re-measures the gap before spin is reachable.
    /// Leaving spin also needs recent deschedule evidence: a gap that
    /// spans reader tenures or think time is no reason to pay B when
    /// no other thread wants the waiter's processor.
    WaitMode desired() const
    {
        switch (mode_) {
        case WaitMode::kSpin:
            return saturated() || !processor_wanted() ? WaitMode::kSpin
                                                      : WaitMode::kTwoPhase;
        case WaitMode::kTwoPhase:
            if (saturated())
                return WaitMode::kSpin;
            return waits_dwarf_poll() ? WaitMode::kPark
                                      : WaitMode::kTwoPhase;
        case WaitMode::kPark:
        default:
            return waits_dwarf_poll() ? WaitMode::kPark
                                      : WaitMode::kTwoPhase;
        }
    }

    /// Streak hysteresis plus the park lease. A transition lands only
    /// after enough consecutive releases agreed on the same
    /// non-incumbent rung — kLeaveSpinStreak for the risky
    /// spin -> two-phase edge, kSwitchStreak elsewhere. Park tenure is
    /// bounded (kParkTenure): on expiry the policy steps back to
    /// two-phase and refuses to re-escalate for kParkRevalidate
    /// releases, so the W lane is refreshed by measurements the park
    /// mode itself could never produce.
    void decide()
    {
        if (mode_ == WaitMode::kPark && ++park_age_ >= kParkTenure) {
            mode_ = WaitMode::kTwoPhase;
            pending_ = WaitMode::kTwoPhase;
            streak_ = 0;
            park_age_ = 0;
            revalidate_left_ = kParkRevalidate;
            return;
        }
        if (revalidate_left_ > 0)
            --revalidate_left_;
        WaitMode d = desired();
        if (d == WaitMode::kPark && revalidate_left_ > 0)
            d = WaitMode::kTwoPhase;
        if (d == mode_) {
            streak_ = 0;
            return;
        }
        if (d != pending_) {
            pending_ = d;
            streak_ = 1;
            return;
        }
        const std::uint32_t need =
            mode_ == WaitMode::kSpin ? kLeaveSpinStreak : kSwitchStreak;
        if (++streak_ >= need) {
            mode_ = d;
            streak_ = 0;
            park_age_ = 0;
        }
    }

    std::uint32_t compute() const
    {
        WaitHint h;
        h.poll = kPoll;
        h.mode = mode_;
        if (h.mode == WaitMode::kTwoPhase)
            h.poll_limit = lpoll();
        return pack_wait_hint(h);
    }

    EwmaStat hold_;      ///< holder's critical-section span
    EwmaStat depth_x16_; ///< parked/queued waiters at release, x16
    EwmaStat block_;     ///< B: measured wake latency class
    EwmaStat wait_;      ///< W: winners' measured wait spans
    EwmaStat idle_;      ///< handoff gap: release -> next acquisition

    WaitMode mode_ = WaitMode::kSpin;     ///< published mode
    WaitMode pending_ = WaitMode::kSpin;  ///< streak candidate
    std::uint32_t streak_ = 0;
    std::uint32_t park_age_ = 0;         ///< releases spent in kPark
    std::uint32_t revalidate_left_ = 0;  ///< park re-entry ban countdown
    bool idle_seen_ = false;             ///< any gap sample folded yet?
    std::uint32_t since_deschedule_ = kNeverDescheduled;
    std::uint64_t last_release_ = 0;
    std::uint32_t hint_ = 0;
};

/**
 * Static waiting mode behind the WaitSelectPolicy interface — the
 * always-spin / always-block / fixed-two-phase comparison rows of
 * fig_wait_reactive, and the forced-mode handle for tests.
 */
class FixedWaitPolicy {
  public:
    FixedWaitPolicy() : FixedWaitPolicy(WaitingAlgorithm::always_spin()) {}

    explicit FixedWaitPolicy(const WaitingAlgorithm& alg)
    {
        WaitHint h;
        h.poll = alg.poll;
        switch (alg.kind) {
        case WaitKind::kAlwaysBlock:
            h.mode = WaitMode::kPark;
            break;
        case WaitKind::kTwoPhase:
            h.mode = WaitMode::kTwoPhase;
            h.poll_limit = alg.poll_limit;
            break;
        case WaitKind::kAlwaysSpin:
        default:
            h.mode = WaitMode::kSpin;
            break;
        }
        hint_ = pack_wait_hint(h);
    }

    std::uint32_t on_release(const WaitSignal&) { return hint_; }
    void note_wake_latency(std::uint64_t) {}
    std::uint32_t hint() const { return hint_; }

  private:
    std::uint32_t hint_ = 0;
};

static_assert(WaitSelectPolicy<CalibratedWaitPolicy>);
static_assert(WaitSelectPolicy<FixedWaitPolicy>);

}  // namespace reactive
