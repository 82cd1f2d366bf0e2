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
 *  - **Monitoring rides on waiting** (Section 3.2.6): failed test&set
 *    counts and empty-queue observations are collected in code that was
 *    already spinning, and fed to a pluggable switching policy
 *    (Section 3.4) whose state is only touched in-consensus.
 *
 * Policy interface: decisions flow through the N-protocol selection
 * framework (core/protocol_set.hpp) — the holder builds a
 * `ProtocolSignal` (mode index + contention drift) and asks the policy
 * for `next_protocol`. Binary `SwitchPolicy` policies embed through
 * `SelectAdapter` with the identical historical call sequence
 * (`on_tts_acquire(contended)` / `on_queue_acquire(empty)`), so their
 * decisions are bit-compatible with the pre-ProtocolSet lock; `Mode`
 * values are the protocol indices of the lock's two-slot set.
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "audit/audit.hpp"
#include "core/cost_model.hpp"
#include "core/policy.hpp"
#include "core/protocol_set.hpp"
#include "core/reactive_queue.hpp"
#include "platform/backoff.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "trace/instrument.hpp"
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
 *                slow paths byte-for-byte (every parking branch is
 *                `if constexpr`-pruned and the site/state members are
 *                empty); ParkWaiting dispatches the slow-path waits
 *                through the holder-published hint (spin / two-phase /
 *                park) over an object-level WaitSite.
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
  public:
    /// The select-interface view of the policy parameter.
    using Select = SelectFor<Policy>;
    /// The lock's protocol set is fixed: {TTS, MCS queue}.
    static constexpr std::uint32_t kProtocols = 2;

    static_assert(SelectPolicy<Select>);

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
    using Site = WaitSite<P, Waiting>;
    /// Whether slow-path waits may park (ParkWaiting instantiations).
    static constexpr bool kParking = Site::kParking;

    static_assert(WaitSelectPolicy<WaitPolicy>);

    ReactiveLock() : ReactiveLock(ReactiveLockParams{}, Policy{}) {}

    explicit ReactiveLock(ReactiveLockParams params, Policy policy = Policy{})
        : queue_(/*initially_valid=*/false),
          params_(params),
          select_(std::move(policy))
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
          select_(std::move(policy))
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
        // spinning acquirers are legitimately building. Fast-path-aware
        // calibrating policies get a bare won-here notification (the
        // winner holds the lock, so the private counter increment is
        // in-consensus; no timestamp, no shared write).
        if (params_.optimistic_tts &&
            tts_lock_.exchange(kBusy, std::memory_order_acquire) == kFree) {
            if constexpr (FastPathAwareSelect<Select>)
                select_.on_tts_fast_acquire();
            // A fast-path winner is still the new holder: the *next*
            // slow acquisition's handoff-locality bit is measured
            // against this socket (plain store, no timestamp).
            if constexpr (kSocketAware)
                (void)note_holder_socket();
            stamp_hold();
            REACTIVE_TRACE_EVENT(trace::EventType::kFastAcquire,
                                 trace::ObjectClass::kLock, trace_id_,
                                 kTtsIndex, kTtsIndex, P::now());
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
     * streaks untouched; a fast-path-aware policy gets the same
     * won-here notification. Failure may be spurious, as Lockable
     * permits.
     */
    std::optional<ReleaseMode> try_acquire(Node& node)
    {
        if (tts_lock_.load(std::memory_order_relaxed) == kFree &&
            tts_lock_.exchange(kBusy, std::memory_order_acquire) == kFree) {
            if constexpr (FastPathAwareSelect<Select>)
                select_.on_tts_fast_acquire();
            if constexpr (kSocketAware)
                (void)note_holder_socket();
            stamp_hold();
            REACTIVE_TRACE_EVENT(trace::EventType::kFastAcquire,
                                 trace::ObjectClass::kLock, trace_id_,
                                 kTtsIndex, kTtsIndex, P::now());
            return ReleaseMode::kTts;
        }
        if (mode() == Mode::kQueue && queue_.try_acquire(node)) {
            if constexpr (kSocketAware)
                (void)note_holder_socket();
            stamp_hold();
            return ReleaseMode::kQueue;
        }
        return std::nullopt;
    }

    /// Releases the lock, performing any pending protocol change.
    void release(Node& node, ReleaseMode mode)
    {
        // Waiting-mode selection happens first, while still in
        // consensus: fold this hold's span and the free queue-depth
        // signal into the wait policy and publish the new hint, so the
        // waiters this release is about to signal dispatch under it.
        update_wait_policy();
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
            wsite_.wake();
    }

    /// Current protocol-index hint (tests and monitoring).
    std::uint32_t protocol_index() const
    {
        return mode_.value.load(std::memory_order_relaxed);
    }

    /// protocol_index() under the set's conventional names.
    Mode mode() const { return static_cast<Mode>(protocol_index()); }

    /// Number of completed protocol changes (tests and experiments).
    std::uint64_t protocol_changes() const { return protocol_changes_; }

    /// Policy state access (in-consensus callers only). Returns the
    /// policy as passed in (binary policies are unwrapped from their
    /// adapter).
    Policy& policy()
    {
        if constexpr (SelectPolicy<Policy>)
            return select_;
        else
            return select_.underlying();
    }

    /// Wait-policy state access (in-consensus callers only).
    WaitPolicy& wait_policy()
        requires kParking
    {
        return wstate_.policy;
    }

    /// The packed wait hint currently published to waiters (tests).
    std::uint32_t wait_hint() const { return wsite_.hint(); }

    /// Wait-mode transitions published over the lock's lifetime
    /// (tests/benchmarks; 0 for a run the policy never left spin).
    std::uint64_t wait_mode_changes() const
        requires kParking
    {
        return wstate_.mode_changes;
    }

  private:
    static constexpr std::uint32_t kFree = 0;
    static constexpr std::uint32_t kBusy = 1;
    static constexpr std::uint32_t kTtsIndex =
        static_cast<std::uint32_t>(Mode::kTts);
    static constexpr std::uint32_t kQueueIndex =
        static_cast<std::uint32_t>(Mode::kQueue);

    /// Calibrating policies (core/cost_model.hpp) receive each
    /// slow-path acquisition's measured latency and each switch's
    /// measured duration; for plain policies no timestamp is ever
    /// taken. Either way the samples flow only through policy state
    /// (in-consensus, non-shared), never through shared memory.
    static constexpr bool kCalibrating = CalibratingSelectPolicy<Select>;

    /// Socket-aware policies additionally receive each sample's
    /// socket-of-previous-holder bit, splitting the latency classes by
    /// handoff locality (SocketSplitStat). The bit is free: the new
    /// holder knows its own socket, and the previous holder's socket
    /// is holder-only plain state carried across the handoff
    /// (SocketHandoffTracker, platform/platform_concept.hpp).
    static constexpr bool kSocketAware = SocketAwareSelect<Select>;

    bool note_holder_socket() { return holder_socket_.note_handoff(); }

    // ---- waiting-mode selection (ParkWaiting instantiations only) ----

    /// Park-axis holder state; the empty stand-in keeps SpinWaiting
    /// object layout (and code) identical to the pre-subsystem lock.
    struct ParkWaitState {
        WaitPolicy policy{};
        std::uint64_t hold_start = 0;  ///< stamped at every acquisition
        /// Wait-mode transitions published so far. Observability only
        /// (tests, benchmarks): the *final* hint says nothing about a
        /// run — a calibrated policy correctly decays back to spin as
        /// contention drains at the end.
        std::uint64_t mode_changes = 0;
    };
    struct NoWaitState {};
    using WaitState = std::conditional_t<kParking, ParkWaitState, NoWaitState>;

    /// Every successful acquisition stamps the hold start so the
    /// departing holder can report its span for free. The stamp also
    /// closes the release-to-acquire handoff gap — the policy's
    /// saturation discriminator — but no extra call is needed here: the
    /// policy recovers the gap from the release-stamped WaitSignal
    /// (now_cycles - hold_cycles = this stamp).
    void stamp_hold()
    {
        if constexpr (kParking)
            wstate_.hold_start = P::now();
    }

    /// A slow-path winner reports how it waited. Called only once the
    /// caller *is* the holder, so feeding the measured samples to the
    /// (single-writer) wait policy is in-consensus.
    void note_waited(const AwaitResult& wr)
    {
        if constexpr (kParking) {
            if constexpr (requires(std::uint64_t c) {
                              wstate_.policy.note_wait(c);
                          }) {
                if (wr.wait_cycles != 0)
                    wstate_.policy.note_wait(wr.wait_cycles);
            }
            if (!wr.blocked)
                return;
            if (wr.wake_latency != 0)
                wstate_.policy.note_wake_latency(wr.wake_latency);
            if constexpr (trace::kCompiled) {
                if (trace::enabled()) [[unlikely]] {
                    const auto m = static_cast<std::uint8_t>(
                        unpack_wait_hint(wsite_.hint()).mode);
                    trace::emit(trace::EventType::kPark,
                                trace::ObjectClass::kLock, trace_id_, m, m,
                                P::now(), wr.wait_cycles, wr.wake_latency);
                }
            }
        }
    }

    /// Departing holder (still in consensus): fold this hold's span and
    /// the free queue-depth signal into the wait policy, publish the new
    /// hint, and mirror the signal into a wait-aware protocol policy.
    void update_wait_policy()
    {
        if constexpr (kParking) {
            WaitSignal ws;
            const std::uint64_t now = P::now();
            ws.hold_cycles =
                now > wstate_.hold_start ? now - wstate_.hold_start : 0;
            ws.queue_depth = wsite_.waiters();
            ws.now_cycles = now;
            const auto old_mode = static_cast<std::uint8_t>(
                unpack_wait_hint(wstate_.policy.hint()).mode);
            const std::uint32_t h = wstate_.policy.on_release(ws);
            const auto new_mode =
                static_cast<std::uint8_t>(unpack_wait_hint(h).mode);
            if (new_mode != old_mode)
                ++wstate_.mode_changes;
            wsite_.set_hint(h);
            if constexpr (requires(std::uint32_t x) {
                              queue_.set_wait_hint(x);
                          })
                queue_.set_wait_hint(h);
            if constexpr (WaitAwareSelect<Select>)
                select_.on_wait_signal(ws);
            if constexpr (trace::kCompiled) {
                if (new_mode != old_mode && trace::enabled()) [[unlikely]] {
                    std::uint64_t ests = 0;
                    std::uint64_t ew = 0;
                    if constexpr (requires {
                                      wstate_.policy.hold_estimate();
                                      wstate_.policy.block_estimate();
                                      wstate_.policy.expected_wait();
                                  }) {
                        ests = (wstate_.policy.hold_estimate() << 32) |
                               (wstate_.policy.block_estimate() &
                                0xffffffffull);
                        ew = wstate_.policy.expected_wait();
                    }
                    trace::emit(trace::EventType::kWaitModeSwitch,
                                trace::ObjectClass::kLock, trace_id_,
                                old_mode, new_mode, P::now(), h, ests, ew);
                }
            }
        }
    }

    /// Bookkeeping common to every successful TTS acquisition; the
    /// caller holds the lock, so policy state is safe to touch. A
    /// latency sample is passed only when its class is clean: an
    /// immediate win measures the uncontended protocol cost, a
    /// past-the-retry-limit win measures the contended cost. Wins that
    /// merely spun a while measure *waiting*, which would poison the
    /// estimator's residuals (see cost_model.hpp).
    ReleaseMode tts_acquired(bool contended, bool spun, std::uint64_t start)
    {
        stamp_hold();
        const ProtocolSignal sig{kTtsIndex, contended ? +1 : 0};
        const trace::ProbeWatch<Select> probe(select_, trace::enabled());
        [[maybe_unused]] std::uint64_t cycles = 0;
        std::uint32_t next;
        if constexpr (kCalibrating) {
            if (contended || !spun) {
                cycles = P::now() - start;
                if constexpr (kSocketAware)
                    next = select_.next_protocol(sig, cycles,
                                                 note_holder_socket());
                else
                    next = select_.next_protocol(sig, cycles);
            } else {
                if constexpr (kSocketAware)
                    (void)note_holder_socket();  // still a new holder
                next = select_.next_protocol(sig);
            }
        } else {
            (void)spun;
            (void)start;
            next = select_.next_protocol(sig);
        }
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]] {
                const std::uint64_t ts = P::now();
                trace::emit(trace::EventType::kAcqSample,
                            trace::ObjectClass::kLock, trace_id_,
                            kTtsIndex, static_cast<std::uint8_t>(next), ts,
                            cycles,
                            trace::pack_signal(sig.protocol, sig.drift));
                probe.emit_edges(select_, trace::ObjectClass::kLock,
                                 trace_id_, kTtsIndex,
                                 static_cast<std::uint8_t>(next), ts);
                if constexpr (kCalibrating) {
                    if (cycles > 0) {
                        if (const auto best = audit::best_alternative(
                                select_, kProtocols)) {
                            const std::uint64_t regret = audit::record(
                                trace::ObjectClass::kLock, trace_id_,
                                cycles, *best);
                            trace::emit(trace::EventType::kRegret,
                                        trace::ObjectClass::kLock,
                                        trace_id_, kTtsIndex,
                                        static_cast<std::uint8_t>(next),
                                        ts, cycles, *best, regret);
                        }
                    }
                }
            }
        }
        return next != kTtsIndex ? ReleaseMode::kTtsToQueue
                                 : ReleaseMode::kTts;
    }

    /// Figure 3.28 acquire_tts: spin with backoff, count failed
    /// attempts; returns nullopt if the mode changed (caller retries
    /// with the queue protocol).
    ///
    /// Under ParkWaiting the wait runs through the site instead: the
    /// predicate *acquires* (the same load-then-exchange), counts its
    /// failed attempts for the contention signal, and aborts on a mode
    /// change via a captured flag. The spin build's exponential
    /// backoff is passed through as the site's poll step: spin mode
    /// must reproduce the spin build exactly, and polling the
    /// contended TTS line at pause cadence is an invalidation storm
    /// the spin build does not have. (Two-phase polling is bounded by
    /// Lpoll and park mode does not poll, so the backoff only ever
    /// paces the spin-mode loop.)
    std::optional<ReleaseMode> try_acquire_tts()
    {
        const std::uint64_t start = kCalibrating ? P::now() : 0;
        if constexpr (kParking) {
            ExpBackoff<P> backoff(params_.backoff);
            std::uint32_t retries = 0;
            std::uint32_t polls = 0;
            bool won = false;
            bool aborted = false;
            const AwaitResult wr = wsite_.await([&] {
                ++polls;
                if (tts_lock_.load(std::memory_order_relaxed) == kFree) {
                    if (tts_lock_.exchange(kBusy,
                                           std::memory_order_acquire) ==
                        kFree) {
                        won = true;
                        return true;
                    }
                    ++retries;
                }
                if (mode_.value.load(std::memory_order_relaxed) !=
                    static_cast<std::uint32_t>(Mode::kTts)) {
                    aborted = true;
                    return true;
                }
                return false;
            }, [&] { backoff.pause(); });
            if (!won) {
                (void)aborted;
                return std::nullopt;
            }
            note_waited(wr);
            return tts_acquired(retries > params_.tts_retry_limit,
                                /*spun=*/polls > 1, start);
        } else {
            ExpBackoff<P> backoff(params_.backoff);
            std::uint32_t retries = 0;
            bool contended = false;
            bool spun = false;
            for (;;) {
                if (tts_lock_.load(std::memory_order_relaxed) == kFree) {
                    if (tts_lock_.exchange(kBusy,
                                           std::memory_order_acquire) ==
                        kFree)
                        return tts_acquired(contended, spun, start);
                    if (++retries > params_.tts_retry_limit)
                        contended = true;
                }
                spun = true;
                backoff.pause();
                if (mode_.value.load(std::memory_order_relaxed) !=
                    static_cast<std::uint32_t>(Mode::kTts))
                    return std::nullopt;
            }
        }
    }

    /// Queue-side twin of tts_acquired.
    ReleaseMode queue_acquired(bool empty, std::uint64_t start)
    {
        stamp_hold();
        const ProtocolSignal sig{kQueueIndex, empty ? -1 : 0};
        const trace::ProbeWatch<Select> probe(select_, trace::enabled());
        [[maybe_unused]] std::uint64_t cycles = 0;
        std::uint32_t next;
        if constexpr (kCalibrating) {
            cycles = P::now() - start;
            if constexpr (kSocketAware)
                next = select_.next_protocol(sig, cycles,
                                             note_holder_socket());
            else
                next = select_.next_protocol(sig, cycles);
        } else {
            next = select_.next_protocol(sig);
        }
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]] {
                const std::uint64_t ts = P::now();
                trace::emit(trace::EventType::kAcqSample,
                            trace::ObjectClass::kLock, trace_id_,
                            kQueueIndex, static_cast<std::uint8_t>(next), ts,
                            cycles,
                            trace::pack_signal(sig.protocol, sig.drift));
                probe.emit_edges(select_, trace::ObjectClass::kLock,
                                 trace_id_, kQueueIndex,
                                 static_cast<std::uint8_t>(next), ts);
                if constexpr (kCalibrating) {
                    if (cycles > 0) {
                        if (const auto best = audit::best_alternative(
                                select_, kProtocols)) {
                            const std::uint64_t regret = audit::record(
                                trace::ObjectClass::kLock, trace_id_,
                                cycles, *best);
                            trace::emit(trace::EventType::kRegret,
                                        trace::ObjectClass::kLock,
                                        trace_id_, kQueueIndex,
                                        static_cast<std::uint8_t>(next),
                                        ts, cycles, *best, regret);
                        }
                    }
                }
            }
        }
        return next != kQueueIndex ? ReleaseMode::kQueueToTts
                                   : ReleaseMode::kQueue;
    }

    /// Shared tail of both constructors: initial state per Figure
    /// 3.27 — TTS valid and free, queue invalid, mode = TTS.
    void init()
    {
        mode_->store(static_cast<std::uint32_t>(Mode::kTts),
                     std::memory_order_relaxed);
        tts_lock_.store(kFree, std::memory_order_relaxed);
        wsite_.set_trace_identity(trace::ObjectClass::kLock, trace_id_);
    }

    /// Figure 3.28 acquire_queue; nullopt when the queue protocol was
    /// (or became) invalid — retry with TTS.
    std::optional<ReleaseMode> try_acquire_queue(Node& node)
    {
        const std::uint64_t start = kCalibrating ? P::now() : 0;
        typename Queue::Outcome oc;
        if constexpr (requires(AwaitResult& wr) {
                          queue_.acquire(node, wsite_, wr);
                      }) {
            // Lane-aware queues wait (and, dismantling a bogus chain,
            // wake) on the lock's site.
            AwaitResult wr;
            oc = queue_.acquire(node, wsite_, wr);
            if (oc == Queue::Outcome::kAcquiredWaited)
                note_waited(wr);
        } else if constexpr (kParking && requires(AwaitResult& wr) {
                                 queue_.acquire(node, wr);
                             }) {
            // Queues with their own internal sites (CohortQueue's
            // per-socket parking) run the waits themselves and report
            // the combined cost back.
            AwaitResult wr;
            oc = queue_.acquire(node, wr);
            if (oc == Queue::Outcome::kAcquiredWaited)
                note_waited(wr);
        } else {
            oc = queue_.acquire(node);
        }
        switch (oc) {
        case Queue::Outcome::kAcquiredEmpty:
            // An empty queue signals low contention.
            return queue_acquired(/*empty=*/true, start);
        case Queue::Outcome::kAcquiredWaited:
            return queue_acquired(/*empty=*/false, start);
        case Queue::Outcome::kInvalid:
        default:
            return std::nullopt;
        }
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
        if constexpr (requires { queue_.release(node, wsite_); })
            queue_.release(node, wsite_);
        else
            queue_.release(node);
    }

    void queue_invalidate(Node& node)
    {
        if constexpr (requires { queue_.invalidate(&node, wsite_); })
            queue_.invalidate(&node, wsite_);
        else
            queue_.invalidate(&node);
    }

    /// Figure 3.29 release_tts_to_queue: the holder validates the queue
    /// protocol, flips the hint, then releases via the queue. The TTS
    /// lock is left busy (= invalid).
    void release_tts_to_queue(Node& node)
    {
        const std::uint64_t start = kCalibrating ? P::now() : 0;
        queue_.acquire_invalid(node);
        mode_.value.store(static_cast<std::uint32_t>(Mode::kQueue),
                          std::memory_order_release);
        ++protocol_changes_;
        select_.on_switch();
        [[maybe_unused]] std::uint64_t dur = 0;
        if constexpr (kCalibrating) {
            dur = P::now() - start;
            select_.on_switch_cycles(dur);
        }
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]]
                trace::emit(trace::EventType::kSwitch,
                            trace::ObjectClass::kLock, trace_id_, kTtsIndex,
                            kQueueIndex, P::now(),
                            trace::pack_signal(kTtsIndex, +1),
                            trace::estimator_pair(select_, kTtsIndex,
                                                  kQueueIndex),
                            dur);
        }
        queue_release(node);
    }

    /// Figure 3.29 release_queue_to_tts: flip the hint, dismantle the
    /// queue (waking waiters with INVALID so they retry via TTS), then
    /// free the TTS lock. The queue is left invalid.
    void release_queue_to_tts(Node& node)
    {
        const std::uint64_t start = kCalibrating ? P::now() : 0;
        mode_.value.store(static_cast<std::uint32_t>(Mode::kTts),
                          std::memory_order_release);
        ++protocol_changes_;
        select_.on_switch();
        queue_invalidate(node);
        // Still in consensus until the TTS word is freed below; the
        // measured span covers the queue dismantling (the expensive
        // half of this direction's change).
        [[maybe_unused]] std::uint64_t dur = 0;
        if constexpr (kCalibrating) {
            dur = P::now() - start;
            select_.on_switch_cycles(dur);
        }
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]]
                trace::emit(trace::EventType::kSwitch,
                            trace::ObjectClass::kLock, trace_id_,
                            kQueueIndex, kTtsIndex, P::now(),
                            trace::pack_signal(kQueueIndex, -1),
                            trace::estimator_pair(select_, kQueueIndex,
                                                  kTtsIndex),
                            dur);
        }
        release_tts();
    }

    // The mode hint lives on its own (mostly-read) cache line, separate
    // from the frequently written lock words (Section 3.2.6).
    CacheAligned<typename P::template Atomic<std::uint32_t>> mode_;
    alignas(kCacheLineSize) typename P::template Atomic<std::uint32_t>
        tts_lock_{kFree};
    Queue queue_;

    ReactiveLockParams params_;
    Select select_;                        // mutated in-consensus only
    std::uint64_t protocol_changes_ = 0;   // mutated in-consensus only
    // Socket of the previous holder (socket-aware policies only;
    // mutated in-consensus by each new holder).
    SocketHandoffTracker<P> holder_socket_;
    // Waiting axis: the object-level parking site and the holder-only
    // wait-policy state. Both are empty under SpinWaiting.
    [[no_unique_address]] Site wsite_;
    [[no_unique_address]] WaitState wstate_;
    // Trace identity (0 when tracing is compiled out). Unconditional
    // member so object layout is identical in both build modes.
    std::uint32_t trace_id_ = trace::new_object(trace::ObjectClass::kLock);
};

}  // namespace reactive
