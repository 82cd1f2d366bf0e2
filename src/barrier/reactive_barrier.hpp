/**
 * @file
 * The reactive barrier: dynamically selects among an N-protocol
 * `ProtocolSet` of barrier implementations (core/protocol_set.hpp).
 * The stock two-protocol set pairs the centralized sense-reversing
 * barrier (central_barrier.hpp, optimal at low participant counts and
 * skewed arrivals) with the fan-in-k combining tree
 * (combining_tree_barrier.hpp, optimal at high participant counts
 * under bunched arrivals); the three-protocol set adds the
 * dissemination barrier (dissemination_barrier.hpp, contended-RMW-free
 * log2 P critical path) as the most scalable rung.
 *
 * This is the consensus-object construction of the reactive lock
 * (thesis Sections 3.2.5-3.3.1) carried to a primitive with *no
 * holder*: nobody owns a barrier the way a process owns a lock, so the
 * lock subsystems' rule "protocol changes are made only by the lock
 * holder" has no direct analogue. The barrier substitutes a different
 * consensus point with a stronger property:
 *
 *  - **Each episode elects exactly one in-consensus completer.** Every
 *    slot protocol elects one such process per episode (the arrival
 *    that takes the central counter to zero; the climber that
 *    completes the root; the dissemination protocol's designated
 *    completer). Between that election and the release it performs,
 *    *every other participant is provably quiescent*: each has
 *    finished its arrival and cannot leave the episode's wait — let
 *    alone start the next episode — until the release. The completer
 *    therefore mutates policy state, the mode index, and any slot's
 *    idle state entirely race-free, with no INVALID sentinels, no
 *    retry dispatch, and no switch serialization beyond the episode
 *    order itself (consecutive completers are ordered by the
 *    release/acquire chain of the episodes between them).
 *  - **The mode index is exact, not a hint.** The switch is stored
 *    before the release; every participant's next arrival happens
 *    after acquiring that release, so all participants of an episode
 *    execute the same protocol. This is *stronger* than the lock case
 *    (where racing the mode hint is benign-but-possible) and is what
 *    removes the need for the locks' invalid-protocol retry loops. It
 *    also keeps each slot's episode bookkeeping trivially consistent:
 *    a participant's per-slot state advances exactly once per episode
 *    executed on that slot, uniformly across the participant set.
 *  - **Monitoring rides on arrival** (the analogue of Section 3.2.6):
 *    the completer classifies its episode from what it already holds
 *    in consensus, so monitoring adds no shared-memory operation and a
 *    reactive barrier parked in a protocol executes that static
 *    protocol's exact memory operations (plus the per-arrival mode
 *    read). It reads two things. *Who* completed: an elected
 *    completer is the last arrival, so a completer that differs from
 *    the previous episode's means the arrivals raced (the scalable
 *    rungs' regime), while one participant completing several
 *    episodes running is a straggler dominating them (any tree or
 *    round structure is then pure overhead: the central regime). A
 *    designated completer's identity says nothing, so its own rounds,
 *    which wait out any straggler it depends on, are its skew signal.
 *    *When*: the episode period, the difference of consecutive
 *    consensus timestamps — the episode's true wall cost, taken at the
 *    same point of every protocol's episode and so comparable across
 *    protocols (DESIGN.md, "Completer-measured spreads are not
 *    comparable across barrier protocols"). Only a calibrating policy
 *    reads the clock for it. The completer's observe / switch /
 *    publish steps are one ConsensusPoint (core/consensus_point.hpp;
 *    DESIGN.md "One consensus point").
 *
 * Policy interface: the completer classifies the episode into one
 * `Observation` — drift +1 (a rotating completer below the top rung:
 * the current protocol is under-provisioned), drift -1
 * (straggler-dominated above the bottom rung: over-provisioned), plus
 * the episode period as its cost sample once there is one — and asks
 * the policy for the next protocol. Binary `SwitchPolicy` policies
 * embed through `SelectAdapter` with their historical observation
 * mapping (a central-mode episode feeds `on_tts_acquire(drift > 0)`, a
 * top-rung episode feeds `on_queue_acquire(drift < 0)`), so
 * AlwaysSwitch, Competitive3 and Hysteresis apply to the two-protocol
 * set bit-compatibly, with an episode as the unit of observation; the
 * calibrated binary policies map the same way. Every two-protocol
 * policy declares `kProtocols = 2`, and a three-protocol set rejects
 * it at compile time. N-protocol sets take an N-ary `SelectPolicy`
 * (e.g. CalibratedLadderPolicy, whose measured per-rung episode costs
 * rank protocols the drift signal alone cannot).
 *
 * Calibration (core/cost_model.hpp) lives in the policy: a calibrating
 * policy receives each episode's period as a cost sample, computed by
 * the completer from its own consensus stamps, so calibration adds no
 * shared-memory traffic. The episode classification itself has no
 * cycle threshold except the designated completer's skew test
 * (kSkewCyclesPerParticipant); the rest is who completed.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <tuple>

#include "barrier/barrier_concepts.hpp"
#include "barrier/central_barrier.hpp"
#include "barrier/combining_tree_barrier.hpp"
#include "core/consensus_point.hpp"
#include "core/policy.hpp"
#include "core/protocol_set.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "platform/thread_slots.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/// Slot-protocol settings of the reactive barrier. The episode
/// monitor has none: its two thresholds are the constants
/// `ReactiveBarrier::kSkewCyclesPerParticipant` and
/// `ReactiveBarrier::kSkewCompleterStreak`.
struct ReactiveBarrierParams {
    /// Arrival fan-in of tree-shaped slot protocols.
    std::uint32_t fan_in = 4;
    /// Topology-aware slot placement (BarrierSlotOptions): with
    /// sockets >= 2, tree-shaped slots assign leaves by socket so
    /// fan-in groups never straddle a socket boundary.
    std::uint32_t sockets = 1;
    /// Participants per socket (0 = balanced, ceil(P / sockets)).
    std::uint32_t cores_per_socket = 0;
};

/// The stock barrier protocol sets, in scalability order.
template <Platform P>
using CentralTreeBarrierSet =
    ProtocolSet<CentralBarrier<P>, CombiningTreeBarrier<P>>;

/**
 * Reactive barrier selecting among the slots of a barrier ProtocolSet
 * between episodes.
 *
 * The waiting axis (waiting/reactive/): slots exposing a
 * site-dispatched wait_episode (the central barrier) wait through one
 * barrier-level WaitSite — the empty spin site under SpinWaiting, the
 * completer-published hint under ParkWaiting; tree- and round-shaped
 * slots keep their local spins (their per-level waits are short by
 * construction, and parking mid-combine would serialize the fan-in).
 * The completer is the consensus point: it alone feeds the
 * WaitSelectPolicy (episode period as the hold analogue, plus its own
 * carried wake latency from the last episode it parked in) and
 * broadcasts on the site after the release.
 *
 * @tparam P          Platform model.
 * @tparam Policy     switching policy: any N-ary `SelectPolicy`, or —
 *                    for two-protocol sets — any binary `SwitchPolicy`
 *                    (embedded via SelectAdapter) or calibrated binary
 *                    policy (shared with the reactive mutex/rwlock).
 * @tparam Set        `ProtocolSet` of BarrierProtocolSlot members,
 *                    ordered by scalability (index 0 = low-contention
 *                    protocol).
 * @tparam Waiting    SpinWaiting (default) or ParkWaiting.
 * @tparam WaitPolicy WaitSelectPolicy choosing the waiting mode
 *                    (ParkWaiting instantiations only).
 */
template <Platform P, typename Policy = AlwaysSwitchPolicy,
          typename Set = CentralTreeBarrierSet<P>,
          typename Waiting = SpinWaiting,
          typename WaitPolicy = CalibratedWaitPolicy>
class ReactiveBarrier {
    using Consensus = ConsensusPoint<P, Policy, Waiting, WaitPolicy>;

  public:
    /// The select-interface view of the policy parameter.
    using Select = typename Consensus::Select;
    /// Number of protocols in the set.
    static constexpr std::uint32_t kProtocols = Set::kCount;

    /// A designated completer whose own rounds took at least this many
    /// cycles per participant waited out a straggler: the episode is
    /// "skewed" and a scalable rung buys nothing. Four bunched
    /// per-arrival budgets of 150 cycles, each a directory-serialized
    /// RMW plus slack on the simulated machine (on native hardware,
    /// TSC cycles).
    static constexpr std::uint64_t kSkewCyclesPerParticipant = 600;
    /// Consecutive episodes completed by the same participant that
    /// classify the regime as straggler-dominated.
    static constexpr std::uint32_t kSkewCompleterStreak = 3;

    static_assert(kProtocols == 2 || !requires { Select::kProtocols; },
                  "two-protocol policies (binary SwitchPolicies, the "
                  "calibrated binary policies) drive only two-protocol "
                  "sets; N-protocol sets need an N-ary SelectPolicy");

    /**
     * Protocol executing the current episode (exact, not a hint). The
     * mode *is* the protocol index; the enumerators name the stock
     * sets' rungs for readability.
     */
    enum class Mode : std::uint32_t {
        kCentral = 0,
        kTree = 1,
        kDissemination = 2,
    };

    /// The barrier-level waiting site for this Waiting tag.
    using Site = typename Consensus::Site;
    /// Whether episode waits may park (ParkWaiting instantiations).
    static constexpr bool kParking = Consensus::kParking;

    /// Per-participant state (one sub-node per slot); reuse the same
    /// Node across episodes.
    struct Node {
        typename Set::Nodes nodes;
        /// Wake latency of the last parked wait, carried until this
        /// participant is next in consensus (it feeds the wake-latency
        /// estimator only as a completer). Empty in spin instantiations.
        [[no_unique_address]] typename Consensus::WakeCarry last_wake{};
    };

    explicit ReactiveBarrier(std::uint32_t participants)
        : ReactiveBarrier(participants, ReactiveBarrierParams{})
    {
    }

    ReactiveBarrier(std::uint32_t participants, ReactiveBarrierParams params,
                    Policy policy = Policy{})
        : set_(participants,
               BarrierSlotOptions{/*fan_in=*/params.fan_in,
                                  /*sockets=*/params.sockets,
                                  /*cores_per_socket=*/
                                  params.cores_per_socket}),
          participants_(participants),
          cp_(trace::ObjectClass::kBarrier, kProtocols, std::move(policy),
              participants)
    {
        // Initial protocol: index 0 (the low-contention choice, as the
        // reactive lock starts in TTS mode, Figure 3.27).
        mode_->store(0, std::memory_order_relaxed);
    }

    // ---- Barrier interface -------------------------------------------

    void arrive(Node& n)
    {
        set_.dispatch(protocol_index(), [&](auto& proto, auto index) {
            auto& pn = std::get<index.value>(n.nodes);
            const BarrierEpisode ep = proto.arrive_only(pn);
            if (!ep.last) {
                // Slots exposing a site-dispatched wait (the central
                // barrier) wait through the site; tree/round slots keep
                // their local spins.
                if constexpr (requires(AwaitResult& w) {
                                  proto.wait_episode(pn, cp_.site(), w);
                              }) {
                    AwaitResult wr{};
                    proto.wait_episode(pn, cp_.site(), wr);
                    cp_.parked(wr, n.last_wake);
                } else {
                    proto.wait_episode(pn);
                }
                return;
            }
            // In consensus: select the next waiting mode first, so the
            // waiters this release is about to free dispatch under it.
            publish_wait(n);
            episode_consensus(static_cast<std::uint32_t>(index.value), ep,
                              &n);
            proto.release_episode(pn);
            // Parking wake rule: the sense flip (and any mode store)
            // above is followed, in the same thread, by a broadcast on
            // the group lane, where every episode waiter parks.
            cp_.site().wake();
        });
    }

    /// std::barrier-shaped arrival: the participant's persistent Node
    /// lives in a thread-local slot keyed by this barrier's unique
    /// instance token (platform/thread_slots.hpp — the address would
    /// hand a successor barrier at a reused address the predecessor's
    /// stale nodes), so one participant must equal one thread for the
    /// barrier's whole lifetime. arrive() with an explicit Node
    /// remains the primary interface (and the only correct one for
    /// simulated fibers, which share their host thread's slots).
    void arrive_and_wait()
    {
        arrive(*ThreadNodeSlots<Node>::claim(facade_key_));
    }

    std::uint32_t participants() const { return participants_; }

    // ---- monitoring (tests, experiments) -----------------------------

    /// Protocol index of the upcoming episode. Exact for participants
    /// (they read it after acquiring the previous release); racy
    /// inspection for everyone else.
    std::uint32_t protocol_index() const
    {
        return mode_->load(std::memory_order_relaxed);
    }

    /// protocol_index() under the stock sets' conventional names.
    Mode mode() const { return static_cast<Mode>(protocol_index()); }

    /// Number of completed protocol changes. Race-free for any
    /// *participant* between its own arrivals: no episode can complete
    /// (and no completer can touch this) until that participant
    /// arrives again. Racy inspection for non-participants.
    std::uint64_t protocol_changes() const { return cp_.protocol_changes(); }

    /// Policy state access (in-consensus callers only). Returns the
    /// policy as passed in (binary policies are unwrapped from their
    /// adapter).
    Policy& policy() { return cp_.policy(); }

    /// Direct slot access (tests, experiments).
    template <std::size_t I>
    auto& slot()
    {
        return set_.template get<I>();
    }

    /// Wait-policy state access (in-consensus callers only).
    WaitPolicy& wait_policy()
        requires kParking
    {
        return cp_.wait_policy();
    }

    /// The packed wait hint currently published to waiters (tests).
    std::uint32_t wait_hint() const { return cp_.site().hint(); }

    /// Wait-mode transitions the completers published (tests).
    std::uint64_t wait_mode_changes() const
        requires kParking
    {
        return cp_.wait_mode_changes();
    }

  private:
    /// The completer (in consensus) publishes the next wait hint. The
    /// episode period — the span since the previous completer's stamp —
    /// is the hold analogue; an arrival's mean residual wait is about
    /// half a period, so the depth multiplier is deliberately withheld
    /// (queue_depth = 0 makes the policy's expected wait period/2). Its
    /// own carried wake latency is fed first.
    void publish_wait(Node& n)
    {
        const WaitSignal ws = cp_.hold_signal(/*queue_depth=*/0);
        cp_.stamp_hold();
        cp_.publish_wait(ws, n.last_wake);
    }

    /**
     * The completer's in-consensus step, run after its arrival and
     * before the release: classify the episode, consult the policy,
     * and perform any protocol change. Every other participant is
     * waiting inside the current protocol, so everything here is
     * race-free; the mode store is published by the release that
     * follows.
     */
    void episode_consensus(std::uint32_t m, const BarrierEpisode& ep,
                           const void* completer)
    {
        if (participants_ < 2)
            return;  // a 1-participant barrier has no contention axis
        // The episode's consensus stamp, read only for a calibrating
        // policy (the lock's rule): the classification needs no clock.
        const std::uint64_t end = Consensus::clock();
        bool skewed = false;
        bool rotating = false;
        if (ep.fixed_completer) {
            // The designated completer's own rounds wait out any
            // straggler it depends on, so its arrival latency is the
            // skew signal. Known blind spot: if the straggler *is* the
            // designated completer (ids are assigned by first-arrival
            // race, so probability ~1/P per run), its own rounds finish
            // instantly and skew goes undetected — the barrier then
            // idles in this rung through the straggler regime, paying
            // the rung's O(log P) structure (a small constant against
            // the straggle window) until the regime changes.
            skewed = ep.arrive_cycles >=
                     kSkewCyclesPerParticipant * participants_;
        } else {
            // An elected completer is the episode's last arrival: a
            // straggler completes every episode it dominates, while
            // arrivals that race hand the completion around. The first
            // episode has no previous completer to differ from.
            rotating =
                prev_completer_ != nullptr && completer != prev_completer_;
            completer_streak_ =
                completer == prev_completer_ ? completer_streak_ + 1 : 1;
            prev_completer_ = completer;
            skewed = completer_streak_ >= kSkewCompleterStreak;
        }
        // Drift along the set's scalability order. Under-provisioned: a
        // rotating completer on any rung with a rung above it — the
        // arrivals raced to the end. Over-provisioned: a straggler
        // dominates a scalable rung. Gating the up-drift on rotation
        // keeps a policy that commits on drift alone from climbing
        // through episodes that carry neither signal.
        int drift = 0;
        if (m > 0 && skewed)
            drift = -1;
        else if (rotating && m + 1 < kProtocols)
            drift = +1;
        // The cost sample is the episode period: the difference of
        // consecutive consensus stamps, i.e. the true wall cost of an
        // episode, comparable across protocols (none on the first
        // episode, nor for a policy that reads no clock).
        Observation obs{m, drift};
        if (prev_end_ != 0 && end > prev_end_)
            obs.cycles = end - prev_end_;
        prev_end_ = end;
        const std::uint32_t next = cp_.observe(obs);
        if (next != m) {
            mode_->store(next, std::memory_order_relaxed);
            // The completer's measurable switching span — from the
            // consensus stamp to here — covers the classification,
            // policy, and mode-store work. The systemic remainder of a
            // barrier change (the next episode running the other
            // protocol cold) is excluded by the policy's
            // first-sample-after-switch discard, and the policy's
            // switch-cost accounting scales the span to a disruption
            // estimate, exactly as for the locks.
            cp_.switched(m, next, drift, end);
        }
    }

    Set set_;
    const std::uint32_t participants_;

    // The mode word is written once per protocol change and read once
    // per arrival; it lives on its own mostly-read line (Section 3.2.6).
    CacheAligned<typename P::template Atomic<std::uint32_t>> mode_;

    const std::uint64_t facade_key_ = next_object_key();
    Consensus cp_;  // mutated in-consensus only
    // Episode-signal state (mutated in-consensus only).
    std::uint64_t prev_end_ = 0;
    const void* prev_completer_ = nullptr;
    std::uint32_t completer_streak_ = 0;
};

}  // namespace reactive
