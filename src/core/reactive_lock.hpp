/**
 * @file
 * The reactive spin lock (thesis Sections 3.3.1 and 3.7.3, Figures
 * 3.27-3.29): dynamically selects between the test-and-test-and-set
 * protocol (best at low contention) and an MCS-style queue protocol
 * (best at high contention).
 *
 * Design highlights, all from the thesis:
 *
 *  - **Consensus objects instead of locks.** The TTS lock word is the
 *    TTS protocol's consensus object; the queue tail pointer is the
 *    queue protocol's. The algorithm maintains the invariant that the
 *    two sub-locks are never free at the same time, so possessing a
 *    freshly-free sub-lock *is* possessing the valid protocol. Invalid
 *    protocols are left busy (TTS) or marked with an INVALID tail
 *    sentinel (queue), so a process executing the wrong protocol simply
 *    finds it busy and retries through the dispatcher. No extra
 *    synchronization sits on the common-case critical path.
 *  - **The mode variable is only a hint** (Section 3.3.1): it speeds up
 *    dispatch and is usually read-cached; the race between reading it
 *    and running a protocol is benign by the invariant above.
 *  - **Optimistic test&set fast path** (Section 3.7.3): acquisition
 *    first tries the TTS lock without even reading the mode variable,
 *    optimizing the no-contention latency; if the lock is in queue mode
 *    the attempt fails harmlessly (and pre-fetches the line).
 *  - **Protocol changes are made only by the lock holder** (a process
 *    with the valid consensus object), which serializes changes against
 *    all protocol executions — the C-serializability argument of
 *    Section 3.2.5.
 *  - **Monitoring rides on waiting** (Section 3.2.6): the holder's
 *    observe / switch / publish steps are one ConsensusPoint
 *    (core/consensus_point.hpp; DESIGN.md "One consensus point").
 *
 * Policy interface: decisions flow through the N-protocol selection
 * framework (core/protocol_set.hpp) — the holder builds one
 * `Observation` (mode index, contention drift and, for a clean sample,
 * the acquisition's cycles) and asks the policy for the next protocol.
 * Binary `SwitchPolicy` policies embed through `SelectAdapter` with the
 * identical historical call sequence (`on_tts_acquire(contended)` /
 * `on_queue_acquire(empty)`), so their decisions are bit-compatible with
 * the pre-ProtocolSet lock; the calibrated binary policies are
 * two-protocol SelectPolicies themselves. `Mode` values are the
 * protocol indices of the lock's two-slot set.
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>

#include "core/consensus_point.hpp"
#include "core/policy.hpp"
#include "core/protocol_set.hpp"
#include "core/reactive_queue.hpp"
#include "platform/backoff.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/// Tunables for the reactive lock's contention monitors.
struct ReactiveLockParams {
    /// Failed test&set attempts within one acquisition that mark it
    /// "contended" (the TTS->queue signal).
    std::uint32_t tts_retry_limit = 8;
    /// Backoff while spinning on the TTS protocol.
    BackoffParams backoff = BackoffParams::for_contenders(64);
    /// Optimistic test&set fast path before consulting the mode hint
    /// (Section 3.7.3). Disable only for the ablation benchmark.
    bool optimistic_tts = true;
};

/**
 * Reactive spin lock selecting between TTS and MCS queue protocols.
 *
 * Usage mirrors the thesis code: `acquire` returns a release token that
 * encodes both which protocol the caller holds and whether a protocol
 * change is due on release; the token must be passed to `release`.
 * `ReactiveMutex` wraps this into an RAII interface.
 *
 * @tparam P      Platform model.
 * @tparam Policy switching policy (Section 3.4): a binary SwitchPolicy
 *                or a two-protocol SelectPolicy.
 * @tparam Queue  queue-protocol slot: any type speaking ReactiveQueue's
 *                consensus-object dialect (acquire/Outcome, release,
 *                acquire_invalid, invalidate). The default is the flat
 *                MCS ReactiveQueue; CohortQueue (core/cohort_queue.hpp)
 *                substitutes NUMA cohort handoff.
 * @tparam Waiting  waiting-mode axis (waiting/reactive/wait_site.hpp):
 *                SpinWaiting (default) keeps the historical pure-spin
 *                slow paths (the wait loops run through the empty spin
 *                site); ParkWaiting dispatches the same loops through
 *                the holder-published hint (spin / two-phase / park)
 *                over an object-level WaitSite.
 * @tparam WaitPolicy  waiting-mode selection policy (WaitSelectPolicy;
 *                only instantiated under ParkWaiting). The default
 *                calibrates Lpoll = alpha x B from measured wake
 *                latencies; FixedWaitPolicy forces a static mode.
 */
template <Platform P, typename Policy = AlwaysSwitchPolicy,
          typename Queue = ReactiveQueue<P>,
          typename Waiting = SpinWaiting,
          typename WaitPolicy = CalibratedWaitPolicy>
class ReactiveLock {
    using Consensus = ConsensusPoint<P, Policy, Waiting, WaitPolicy>;

  public:
    /// The select-interface view of the policy parameter.
    using Select = typename Consensus::Select;
    /// The lock's protocol set is fixed: {TTS, MCS queue}.
    static constexpr std::uint32_t kProtocols = 2;

    /// Protocol index currently servicing requests (the hint
    /// variable), under the set's conventional names.
    enum class Mode : std::uint32_t { kTts = 0, kQueue = 1 };

    /// Release token: protocol held plus any pending protocol change.
    enum class ReleaseMode : std::uint32_t {
        kTts,         ///< release the TTS lock
        kQueue,       ///< release the queue lock
        kTtsToQueue,  ///< release and change TTS -> queue
        kQueueToTts,  ///< release and change queue -> TTS
    };

    /// Queue node; must live from acquire() to release().
    using Node = typename Queue::Node;

    /// The object-level waiting site for this Waiting tag.
    using Site = typename Consensus::Site;
    /// Whether slow-path waits may park (ParkWaiting instantiations).
    static constexpr bool kParking = Consensus::kParking;

    ReactiveLock() : ReactiveLock(ReactiveLockParams{}, Policy{}) {}

    explicit ReactiveLock(ReactiveLockParams params, Policy policy = Policy{})
        : queue_(/*initially_valid=*/false),
          params_(params),
          cp_(trace::ObjectClass::kLock, kProtocols, std::move(policy))
    {
        init();
    }

    /// Queue-slot configuration pass-through (e.g. CohortQueue::Params).
    template <typename QueueParams>
        requires std::constructible_from<Queue, bool, QueueParams>
    ReactiveLock(ReactiveLockParams params, Policy policy,
                 const QueueParams& queue_params)
        : queue_(/*initially_valid=*/false, queue_params),
          params_(params),
          cp_(trace::ObjectClass::kLock, kProtocols, std::move(policy))
    {
        init();
    }

    /// Acquires the lock; returns the token to pass to release().
    ReleaseMode acquire(Node& node)
    {
        // Optimistic test&set (Section 3.7.3): correct regardless of
        // mode because a free TTS lock implies the TTS protocol is the
        // valid one. Note that, as in the thesis' Figure 3.27, the fast
        // path performs *no* monitoring: a fast-path win says nothing
        // reliable about contention, and feeding it to a streak-based
        // policy as "uncontended" would break hysteresis streaks that
        // spinning acquirers are legitimately building. The winner is
        // still the new holder (fast_acquired).
        if (params_.optimistic_tts &&
            tts_lock_.exchange(kBusy, std::memory_order_acquire) == kFree) {
            cp_.fast_acquired(kTtsIndex);
            return ReleaseMode::kTts;
        }
        // Dispatch loop: each protocol attempt either succeeds or
        // observes that its protocol was retired and retries with the
        // other one (the protocol-manager loop of Figure 3.6, flattened
        // into the lock per Section 3.2.6).
        Mode m = mode();
        for (;;) {
            if (m == Mode::kTts) {
                if (auto r = try_acquire_tts())
                    return *r;
                m = Mode::kQueue;
            } else {
                if (auto r = try_acquire_queue(node))
                    return *r;
                m = Mode::kTts;
            }
        }
    }

    /**
     * Single non-blocking acquisition attempt: the optimistic test&set,
     * then — if the hint says queue mode — a tail CAS that wins only an
     * empty valid queue. Neither path performs monitoring (a try is the
     * fast path's sibling: its outcome says nothing reliable about
     * contention), so like the optimistic fast path it leaves policy
     * streaks untouched. Failure may be spurious, as Lockable permits.
     */
    std::optional<ReleaseMode> try_acquire(Node& node)
    {
        if (tts_lock_.load(std::memory_order_relaxed) == kFree &&
            tts_lock_.exchange(kBusy, std::memory_order_acquire) == kFree) {
            cp_.fast_acquired(kTtsIndex);
            return ReleaseMode::kTts;
        }
        if (mode() == Mode::kQueue && queue_.try_acquire(node)) {
            cp_.fast_acquired(kQueueIndex);
            return ReleaseMode::kQueue;
        }
        return std::nullopt;
    }

    /// Releases the lock, performing any pending protocol change.
    void release(Node& node, ReleaseMode mode)
    {
        // Waiting-mode selection happens first, while still in
        // consensus, so the waiters this release is about to signal
        // dispatch under the new hint. Queues with their own sites
        // (CohortQueue) take the hint too.
        const std::uint32_t hint = cp_.publish_wait();
        if constexpr (requires { queue_.set_wait_hint(hint); })
            queue_.set_wait_hint(hint);
        switch (mode) {
        case ReleaseMode::kTts:
            release_tts();
            break;
        case ReleaseMode::kQueue:
            queue_release(node);
            break;
        case ReleaseMode::kTtsToQueue:
            release_tts_to_queue(node);
            break;
        case ReleaseMode::kQueueToTts:
            release_queue_to_tts(node);
            break;
        }
        // Parking wake rule: a queue grant or invalidation walk above
        // already woke the lane of each node it signalled; every
        // release that frees the TTS word or flips the mode (all but a
        // plain queue release) also broadcasts the group lane, where
        // TTS waiters park. Woken waiters re-check their own predicate
        // and re-park if it still fails.
        if (mode != ReleaseMode::kQueue)
            cp_.site().wake();
    }

    /// Current protocol-index hint (tests and monitoring).
    std::uint32_t protocol_index() const
    {
        return mode_.value.load(std::memory_order_relaxed);
    }

    /// protocol_index() under the set's conventional names.
    Mode mode() const { return static_cast<Mode>(protocol_index()); }

    /// Number of completed protocol changes (tests and experiments).
    std::uint64_t protocol_changes() const { return cp_.protocol_changes(); }

    /// Policy state access (in-consensus callers only). Returns the
    /// policy as passed in (binary policies are unwrapped from their
    /// adapter).
    Policy& policy() { return cp_.policy(); }

    /// Wait-policy state access (in-consensus callers only).
    WaitPolicy& wait_policy()
        requires kParking
    {
        return cp_.wait_policy();
    }

    /// The packed wait hint currently published to waiters (tests).
    std::uint32_t wait_hint() const { return cp_.site().hint(); }

    /// Wait-mode transitions published over the lock's lifetime
    /// (tests/benchmarks; 0 for a run the policy never left spin).
    std::uint64_t wait_mode_changes() const
        requires kParking
    {
        return cp_.wait_mode_changes();
    }

  private:
    static constexpr std::uint32_t kFree = 0;
    static constexpr std::uint32_t kBusy = 1;
    static constexpr std::uint32_t kTtsIndex =
        static_cast<std::uint32_t>(Mode::kTts);
    static constexpr std::uint32_t kQueueIndex =
        static_cast<std::uint32_t>(Mode::kQueue);

    /// Figure 3.28 acquire_tts: spin with backoff, count failed
    /// attempts; returns nullopt if the mode changed (caller retries
    /// with the queue protocol).
    ///
    /// The loop runs through the site: the predicate *acquires* (the
    /// same load-then-exchange), counts its failed attempts for the
    /// contention signal, and aborts on a mode change, checked after
    /// each pause as in Figure 3.28. The backoff is the site's poll
    /// step: polling the contended TTS line at pause cadence would be
    /// an invalidation storm. (Two-phase polling is bounded by Lpoll
    /// and park mode does not poll, so the backoff only ever paces the
    /// spin-mode loop.)
    std::optional<ReleaseMode> try_acquire_tts()
    {
        const std::uint64_t start = cp_.clock();
        ExpBackoff<P> backoff(params_.backoff);
        std::uint32_t retries = 0;
        std::uint32_t polls = 0;
        bool won = false;
        const AwaitResult wr = cp_.site().await([&] {
            if (polls++ != 0 && mode() != Mode::kTts)
                return true;  // retired: retry with the queue protocol
            if (tts_lock_.load(std::memory_order_relaxed) == kFree) {
                if (tts_lock_.exchange(kBusy, std::memory_order_acquire) ==
                    kFree)
                    return won = true;
                ++retries;
            }
            return false;
        }, [&] { return backoff.pause(); });
        if (!won)
            return std::nullopt;
        cp_.waited(wr, Consensus::WaitSpan::kFeed);
        // Clean samples only: an immediate win measures the uncontended
        // protocol cost, a past-the-retry-limit win the contended cost.
        // A win that merely spun measures waiting.
        const bool contended = retries > params_.tts_retry_limit;
        Observation obs{kTtsIndex, contended ? +1 : 0};
        if (contended || polls == 1)
            obs.cycles = cp_.since(start);
        const std::uint32_t next = cp_.observe(obs);
        return next != kTtsIndex ? ReleaseMode::kTtsToQueue
                                 : ReleaseMode::kTts;
    }

    /// Shared tail of both constructors: initial state per Figure
    /// 3.27 — TTS valid and free, queue invalid, mode = TTS.
    void init()
    {
        mode_->store(static_cast<std::uint32_t>(Mode::kTts),
                     std::memory_order_relaxed);
        tts_lock_.store(kFree, std::memory_order_relaxed);
    }

    /// Figure 3.28 acquire_queue; nullopt when the queue protocol was
    /// (or became) invalid — retry with TTS.
    std::optional<ReleaseMode> try_acquire_queue(Node& node)
    {
        const std::uint64_t start = cp_.clock();
        AwaitResult wr;
        typename Queue::Outcome oc;
        // Lane-aware queues wait (and, dismantling a bogus chain, wake)
        // on the lock's site; queues with their own internal sites
        // (CohortQueue's per-socket parking) run the waits themselves
        // and report the combined cost back.
        if constexpr (requires { queue_.acquire(node, cp_.site(), wr); })
            oc = queue_.acquire(node, cp_.site(), wr);
        else
            oc = queue_.acquire(node, wr);
        if (oc == Queue::Outcome::kInvalid)
            return std::nullopt;
        // An empty queue signals low contention; its winner did not wait.
        const bool empty = oc == Queue::Outcome::kAcquiredEmpty;
        cp_.waited(empty ? AwaitResult{} : wr, Consensus::WaitSpan::kFeed);
        const std::uint32_t next =
            cp_.observe({kQueueIndex, empty ? -1 : 0, cp_.since(start)});
        return next != kQueueIndex ? ReleaseMode::kQueueToTts
                                   : ReleaseMode::kQueue;
    }

    void release_tts()
    {
        tts_lock_.store(kFree, std::memory_order_release);
    }

    /// Queue-slot release and retirement on the lock's site for queues
    /// that wake lanes on it (ReactiveQueue); queues with their own
    /// sites (CohortQueue) wake internally.
    void queue_release(Node& node)
    {
        if constexpr (requires { queue_.release(node, cp_.site()); })
            queue_.release(node, cp_.site());
        else
            queue_.release(node);
    }

    void queue_invalidate(Node& node)
    {
        if constexpr (requires { queue_.invalidate(&node, cp_.site()); })
            queue_.invalidate(&node, cp_.site());
        else
            queue_.invalidate(&node);
    }

    /// Figure 3.29 release_tts_to_queue: the holder validates the queue
    /// protocol, flips the hint, then releases via the queue. The TTS
    /// lock is left busy (= invalid).
    void release_tts_to_queue(Node& node)
    {
        const std::uint64_t start = cp_.clock();
        queue_.acquire_invalid(node);
        mode_.value.store(static_cast<std::uint32_t>(Mode::kQueue),
                          std::memory_order_release);
        cp_.switched(kTtsIndex, kQueueIndex, +1, start);
        queue_release(node);
    }

    /// Figure 3.29 release_queue_to_tts: flip the hint, dismantle the
    /// queue (waking waiters with INVALID so they retry via TTS), then
    /// free the TTS lock. The queue is left invalid.
    void release_queue_to_tts(Node& node)
    {
        const std::uint64_t start = cp_.clock();
        mode_.value.store(static_cast<std::uint32_t>(Mode::kTts),
                          std::memory_order_release);
        queue_invalidate(node);
        // Still in consensus until the TTS word is freed below; the
        // measured span covers the queue dismantling (the expensive
        // half of this direction's change).
        cp_.switched(kQueueIndex, kTtsIndex, -1, start);
        release_tts();
    }

    // The mode hint lives on its own (mostly-read) cache line, separate
    // from the frequently written lock words (Section 3.2.6).
    CacheAligned<typename P::template Atomic<std::uint32_t>> mode_;
    alignas(kCacheLineSize) typename P::template Atomic<std::uint32_t>
        tts_lock_{kFree};
    Queue queue_;

    ReactiveLockParams params_;
    Consensus cp_;  // mutated in-consensus only
};

}  // namespace reactive
