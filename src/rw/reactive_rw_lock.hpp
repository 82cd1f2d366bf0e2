/**
 * @file
 * The reactive reader-writer lock: dynamically selects between the
 * centralized counter protocol (simple_rw_lock.hpp, best at low
 * contention — one fetch&add per read acquisition) and the fair queue
 * protocol (queue_rw_lock.hpp, best at high contention — local spinning
 * and O(1) remote references per acquisition).
 *
 * This is the consensus-object construction of the reactive spin lock
 * (core/reactive_lock.hpp, thesis Sections 3.2.5-3.3.1) applied to a
 * primitive with *two* contention axes — reader parallelism and writer
 * exclusivity:
 *
 *  - **Consensus objects.** The simple protocol's word is its consensus
 *    object (a reserved INVALID bit marks it retired); the queue
 *    protocol's tail is its own (an INVALID sentinel, exactly as in the
 *    reactive mutex). The two are never simultaneously free-and-valid,
 *    so possessing a freshly-acquired valid protocol *is* possessing
 *    the lock; a process executing a retired protocol observes INVALID
 *    and retries through the dispatcher.
 *  - **Protocol changes are made only by a lock-holding writer.** A
 *    writer excludes readers and writers of both protocols, so it holds
 *    the full consensus — the rwlock analogue of "changes are made only
 *    by the lock holder". Readers never switch and never touch policy
 *    state; their acquisitions are pure protocol executions. This keeps
 *    the C-serializability argument of Section 3.2.5 intact even though
 *    read acquisitions overlap.
 *  - **The mode variable is only a hint**: it routes the dispatcher and
 *    is usually read-cached; racing it is benign by the invariant above.
 *  - **Monitoring rides on waiting** (Section 3.2.6): the writer-side
 *    signals are the mutex path's signals verbatim — failed acquisition
 *    attempts in simple mode (fed to `Policy::on_tts_acquire`) and
 *    empty-queue acquisitions in queue mode (`Policy::on_queue_acquire`)
 *    — so all three switching policies of core/policy.hpp apply
 *    unchanged.
 *
 * The release token rides inside the Node, so ReactiveRwLock satisfies
 * the plain RwLock concept and is a drop-in replacement for either
 * static protocol ("the interface to the application program remains
 * constant", Section 1.1).
 *
 * Calibrating-policy caveat: only writers feed the policy, so a
 * re-probe (cost_model.hpp) that switches into the dormant protocol
 * ends only after `probe_len` further *write* acquisitions. Reads that
 * arrive meanwhile execute the probed protocol — correct, and within a
 * constant factor of the home protocol's read cost (both serve reads
 * in O(1) remote references) — but a workload that goes read-only
 * right after a probe keeps that constant overhead until the next
 * write. Read-mostly workloads that want zero probe exposure can set
 * probe_period = 0 (estimates then refresh only when the protocols
 * genuinely alternate).
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
#include "platform/backoff.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "rw/queue_rw_lock.hpp"
#include "rw/rw_concepts.hpp"
#include "rw/simple_rw_lock.hpp"
#include "trace/instrument.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/// Tunables for the reactive rwlock's contention monitors.
struct ReactiveRwLockParams {
    /// Failed write-acquisition attempts within one acquisition that
    /// mark it "contended" (the simple->queue signal).
    std::uint32_t write_retry_limit = 8;
    /// Backoff while spinning on the simple protocol.
    BackoffParams backoff = BackoffParams::for_contenders(64);
    /// Optimistic simple-protocol fast path before consulting the mode
    /// hint (the rwlock analogue of Section 3.7.3's optimistic
    /// test&set). Disable only for ablation experiments.
    bool optimistic_simple = true;
};

/**
 * Reactive reader-writer lock selecting between the centralized and
 * queue protocols.
 *
 * Policy decisions flow through the N-protocol selection framework
 * (core/protocol_set.hpp), with the writer-side signals mapped to the
 * two-slot set {simple, queue}: binary SwitchPolicy policies embed via
 * SelectAdapter with their historical call sequence (bit-compatible
 * decisions), and Mode values are the protocol indices.
 *
 * The second, orthogonal selection axis is *how to wait*
 * (waiting/reactive/): with Waiting = ParkWaiting the slow paths of
 * both protocols dispatch through one lock-level WaitSite on the
 * writer-published wait hint (spin / two-phase / park). The same
 * consensus discipline governs it — only the departing *writer* (full
 * exclusivity) feeds the WaitSelectPolicy and republishes the hint;
 * readers merely obey it. Wakes are directed: simple-word waiters
 * share the site's group lane, which every release that frees,
 * retires or revalidates the simple word broadcasts; queue waiters
 * park on their node's lane, and each queue grant or invalidation
 * (end_read's writer handoff, end_write's succession, reader-grant
 * propagation, invalidation walks) wakes only the lane of the node it
 * lands in — a queue-mode release wakes one writer or one reader
 * group, never the whole site.
 *
 * @tparam P          Platform model.
 * @tparam Policy     switching policy (Section 3.4): a binary
 *                    SwitchPolicy or a two-protocol SelectPolicy;
 *                    shared with the reactive mutex.
 * @tparam Waiting    SpinWaiting (default; byte-identical to the
 *                    pre-subsystem lock) or ParkWaiting.
 * @tparam WaitPolicy WaitSelectPolicy choosing the waiting mode
 *                    (ParkWaiting instantiations only).
 */
template <Platform P, typename Policy = AlwaysSwitchPolicy,
          typename Waiting = SpinWaiting,
          typename WaitPolicy = CalibratedWaitPolicy>
class ReactiveRwLock {
  public:
    /// The select-interface view of the policy parameter.
    using Select = SelectFor<Policy>;
    /// The rwlock's protocol set is fixed: {simple, MCS-style queue}.
    static constexpr std::uint32_t kProtocols = 2;

    static_assert(SelectPolicy<Select>);

    /// Protocol index currently servicing requests (the hint
    /// variable), under the set's conventional names.
    enum class Mode : std::uint32_t { kSimple = 0, kQueue = 1 };

    /// Release token: protocol held plus any pending protocol change.
    /// Only writers carry the switch variants.
    enum class ReleaseMode : std::uint32_t {
        kSimple,          ///< release the simple protocol
        kQueue,           ///< release the queue protocol
        kSimpleToQueue,   ///< writer release + change simple -> queue
        kQueueToSimple,   ///< writer release + change queue -> simple
    };

    /// Per-acquisition context; the queue node and the release token.
    struct Node {
        typename QueueRwLock<P>::Node qnode;
        ReleaseMode rm{ReleaseMode::kSimple};
    };

    /// The lock-level waiting site for this Waiting tag.
    using Site = WaitSite<P, Waiting>;
    /// Whether slow-path waits may park (ParkWaiting instantiations).
    static constexpr bool kParking = Site::kParking;

    static_assert(WaitSelectPolicy<WaitPolicy>);

    ReactiveRwLock() : ReactiveRwLock(ReactiveRwLockParams{}, Policy{}) {}

    explicit ReactiveRwLock(ReactiveRwLockParams params,
                            Policy policy = Policy{})
        : queue_(/*initially_valid=*/false),
          params_(params),
          select_(std::move(policy))
    {
        // Initial state: simple valid and free, queue invalid,
        // mode = simple (the low-contention protocol, as in Figure 3.27).
        mode_->store(static_cast<std::uint32_t>(Mode::kSimple),
                     std::memory_order_relaxed);
        wsite_.set_trace_identity(trace::ObjectClass::kRwLock, trace_id_);
    }

    // ---- RwLock interface --------------------------------------------

    void lock_read(Node& n)
    {
        using Attempt = typename SimpleRwLock<P>::Attempt;
        // Optimistic fast path: a valid-and-writer-free simple word
        // admits the reader regardless of the (possibly stale) hint.
        // No monitoring: readers never feed the policy.
        if (params_.optimistic_simple &&
            simple_.try_lock_read() == Attempt::kAcquired) {
            n.rm = ReleaseMode::kSimple;
            return;
        }
        Mode m = mode();
        for (;;) {
            if (m == Mode::kSimple) {
                if (try_read_simple()) {
                    n.rm = ReleaseMode::kSimple;
                    return;
                }
                m = Mode::kQueue;
            } else {
                if (start_read_queue(n) !=
                    QueueRwLock<P>::Outcome::kInvalid) {
                    n.rm = ReleaseMode::kQueue;
                    return;
                }
                m = Mode::kSimple;
            }
        }
    }

    void unlock_read(Node& n)
    {
        // A leaving reader may free the simple word for a parked
        // writer, or (last of its group) grant the queue's next writer
        // — which wakes that writer's lane itself.
        if (n.rm == ReleaseMode::kSimple) {
            simple_.unlock_read();
            wsite_.wake();
        } else {
            queue_.end_read(n.qnode, wsite_);
        }
    }

    void lock_write(Node& n)
    {
        using Attempt = typename SimpleRwLock<P>::Attempt;
        // Optimistic compare&swap on the simple word (Section 3.7.3).
        // As in the reactive mutex, the fast path performs no
        // monitoring: an uncontended win says nothing reliable and
        // would break streaks that spinning acquirers are building.
        // Fast-path-aware policies get the traffic-free won-here
        // notification (the writer holds full exclusivity, so the
        // increment is in-consensus). Reader fast paths never touch
        // policy state — readers hold no exclusivity.
        if (params_.optimistic_simple &&
            simple_.try_lock_write() == Attempt::kAcquired) {
            if constexpr (FastPathAwareSelect<Select>)
                select_.on_tts_fast_acquire();
            if constexpr (kSocketAware)
                (void)note_writer_socket();  // still the new writer
            stamp_hold();
            REACTIVE_TRACE_EVENT(trace::EventType::kFastAcquire,
                                 trace::ObjectClass::kRwLock, trace_id_,
                                 kSimpleIndex, kSimpleIndex, P::now());
            n.rm = ReleaseMode::kSimple;
            return;
        }
        Mode m = mode();
        for (;;) {
            if (m == Mode::kSimple) {
                if (auto r = try_write_simple()) {
                    n.rm = *r;
                    return;
                }
                m = Mode::kQueue;
            } else {
                if (auto r = try_write_queue(n)) {
                    n.rm = *r;
                    return;
                }
                m = Mode::kSimple;
            }
        }
    }

    void unlock_write(Node& n)
    {
        // Waiting-mode selection happens first, while still holding
        // full exclusivity: fold this hold's span and the free
        // queue-depth signal into the wait policy and publish the new
        // hint, so the waiters this release signals dispatch under it.
        update_wait_policy();
        switch (n.rm) {
        case ReleaseMode::kSimple:
            simple_.unlock_write();
            break;
        case ReleaseMode::kQueue:
            queue_.end_write(n.qnode, wsite_);
            break;
        case ReleaseMode::kSimpleToQueue:
            release_simple_to_queue(n);
            break;
        case ReleaseMode::kQueueToSimple:
            release_queue_to_simple(n);
            break;
        }
        // Parking wake rule: queue grants and invalidation walks above
        // already woke the lanes of the nodes they signalled; every
        // release that frees, retires or revalidates the simple word
        // (all but a plain queue release) also broadcasts the group
        // lane, where simple-word waiters park.
        if (n.rm != ReleaseMode::kQueue)
            wsite_.wake();
    }

    // ---- std-facade hooks (one-shot tries; see reactive_shared_mutex)

    /// Single non-blocking write attempt: the optimistic simple-word
    /// CAS, then — if the hint says queue mode — a tail CAS that wins
    /// only an empty valid queue (so try_lock keeps making progress
    /// while the lock lives in the queue protocol; std::lock over
    /// several reactive locks depends on that). Neither path performs
    /// monitoring, as for the optimistic fast path. Failure may be
    /// spurious.
    bool try_lock_write(Node& n)
    {
        if (simple_.try_lock_write() ==
            SimpleRwLock<P>::Attempt::kAcquired) {
            if constexpr (FastPathAwareSelect<Select>)
                select_.on_tts_fast_acquire();
            stamp_hold();
            n.rm = ReleaseMode::kSimple;
            return true;
        }
        if (mode() == Mode::kQueue &&
            queue_.try_start_write(n.qnode) != QueueRwLock<P>::Outcome::kInvalid) {
            stamp_hold();
            n.rm = ReleaseMode::kQueue;
            return true;
        }
        return false;
    }

    /// Single non-blocking read attempt (simple word, then the queue's
    /// empty-tail path in queue mode; readers never monitor). Failure
    /// may be spurious.
    bool try_lock_read(Node& n)
    {
        if (simple_.try_lock_read() == SimpleRwLock<P>::Attempt::kAcquired) {
            n.rm = ReleaseMode::kSimple;
            return true;
        }
        // The empty-tail win may propagate a grant to a parked
        // successor reader, waking its lane on the site.
        if (mode() == Mode::kQueue &&
            queue_.try_start_read(n.qnode, wsite_) !=
                QueueRwLock<P>::Outcome::kInvalid) {
            n.rm = ReleaseMode::kQueue;
            return true;
        }
        return false;
    }

    // ---- monitoring (tests, experiments) -----------------------------

    /// Current protocol-index hint.
    std::uint32_t protocol_index() const
    {
        return mode_.value.load(std::memory_order_relaxed);
    }

    /// protocol_index() under the set's conventional names.
    Mode mode() const { return static_cast<Mode>(protocol_index()); }

    /// Number of completed protocol changes.
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

  private:
    using Attempt = typename SimpleRwLock<P>::Attempt;
    using QOutcome = typename QueueRwLock<P>::Outcome;
    static constexpr std::uint32_t kSimpleIndex =
        static_cast<std::uint32_t>(Mode::kSimple);
    static constexpr std::uint32_t kQueueIndex =
        static_cast<std::uint32_t>(Mode::kQueue);

    /// Calibrating policies (core/cost_model.hpp) receive each
    /// slow-path *write* acquisition's measured latency and each
    /// switch's measured duration. Readers never feed the policy, so
    /// they are never timed; plain policies never are either.
    static constexpr bool kCalibrating = CalibratingSelectPolicy<Select>;

    /// Socket-aware policies also receive the socket-of-previous-
    /// *writer* bit (readers neither feed the policy nor hand off the
    /// write-side lines), splitting the write-latency classes by
    /// handoff locality (SocketHandoffTracker; writer-only, full
    /// exclusivity, no timestamp).
    static constexpr bool kSocketAware = SocketAwareSelect<Select>;

    bool note_writer_socket() { return writer_socket_.note_handoff(); }

    /// Simple-protocol read acquisition: spin with backoff while a
    /// writer is inside; false if the protocol was retired or the hint
    /// moved on (caller retries with the queue protocol). Parking
    /// instantiations dispatch through the site instead: the predicate
    /// *is* the acquisition attempt, aborting on retirement or a mode
    /// change, and the freeing writer's release broadcast re-checks us.
    /// Readers never feed the wait policy (no consensus), so the wait
    /// cost is traced but not folded into the estimators.
    bool try_read_simple()
    {
        if constexpr (kParking) {
            // The spin build's backoff paces spin-mode polling: the
            // predicate hits the contended reader count (see
            // try_acquire_tts in reactive_lock.hpp).
            ExpBackoff<P> backoff(params_.backoff);
            bool acquired = false;
            const AwaitResult wr = wsite_.await([&] {
                switch (simple_.try_lock_read()) {
                case Attempt::kAcquired:
                    acquired = true;
                    return true;
                case Attempt::kInvalid:
                    return true;
                case Attempt::kBusy:
                    break;
                }
                return mode_.value.load(std::memory_order_relaxed) !=
                       static_cast<std::uint32_t>(Mode::kSimple);
            }, [&] { backoff.pause(); });
            note_read_waited(wr);
            return acquired;
        } else {
            ExpBackoff<P> backoff(params_.backoff);
            for (;;) {
                switch (simple_.try_lock_read()) {
                case Attempt::kAcquired:
                    return true;
                case Attempt::kInvalid:
                    return false;
                case Attempt::kBusy:
                    break;
                }
                backoff.pause();
                if (mode_.value.load(std::memory_order_relaxed) !=
                    static_cast<std::uint32_t>(Mode::kSimple))
                    return false;
            }
        }
    }

    /// Queue-protocol read acquisition through the site (pure
    /// predicate — the grant is pushed into the node). The grants it
    /// makes (propagation to a parked successor reader, a dismantled
    /// bogus chain) wake their lanes inside the queue.
    QOutcome start_read_queue(Node& n)
    {
        AwaitResult wr{};
        const QOutcome out = queue_.start_read(n.qnode, wsite_, wr);
        note_read_waited(wr);
        return out;
    }

    /// Simple-protocol write acquisition: spin with backoff, count
    /// failed attempts, and feed the policy on success (the caller then
    /// holds full exclusivity, so policy state is safe to touch).
    /// Parking instantiations run the attempt loop as the site
    /// predicate (abortable acquiring predicate, as in the reactive
    /// mutex's TTS slow path); the winner then reports its measured
    /// wake latency — it holds full exclusivity, so the single-writer
    /// wait policy is safe to feed.
    std::optional<ReleaseMode> try_write_simple()
    {
        const std::uint64_t start = kCalibrating ? P::now() : 0;
        std::uint32_t retries = 0;
        if constexpr (kParking) {
            // Same contended-line pacing as try_read_simple.
            ExpBackoff<P> backoff(params_.backoff);
            bool acquired = false;
            const AwaitResult wr = wsite_.await([&] {
                switch (simple_.try_lock_write()) {
                case Attempt::kAcquired:
                    acquired = true;
                    return true;
                case Attempt::kInvalid:
                    return true;
                case Attempt::kBusy:
                    ++retries;
                    break;
                }
                return mode_.value.load(std::memory_order_relaxed) !=
                       static_cast<std::uint32_t>(Mode::kSimple);
            }, [&] { backoff.pause(); });
            if (!acquired)
                return std::nullopt;
            note_write_waited(wr);
            return write_simple_acquired(retries, start);
        } else {
            ExpBackoff<P> backoff(params_.backoff);
            for (;;) {
                switch (simple_.try_lock_write()) {
                case Attempt::kAcquired:
                    return write_simple_acquired(retries, start);
                case Attempt::kInvalid:
                    return std::nullopt;
                case Attempt::kBusy:
                    ++retries;
                    break;
                }
                backoff.pause();
                if (mode_.value.load(std::memory_order_relaxed) !=
                    static_cast<std::uint32_t>(Mode::kSimple))
                    return std::nullopt;
            }
        }
    }

    /// Bookkeeping common to every successful simple-protocol write
    /// acquisition (the caller holds full exclusivity).
    ReleaseMode write_simple_acquired(std::uint32_t retries,
                                      std::uint64_t start)
    {
        stamp_hold();
        const bool contended = retries > params_.write_retry_limit;
        const ProtocolSignal sig{kSimpleIndex, contended ? +1 : 0};
        const trace::ProbeWatch<Select> probe(select_, trace::enabled());
        [[maybe_unused]] std::uint64_t cycles = 0;
        std::uint32_t next;
        if constexpr (kCalibrating) {
            // Sample only clean classes (immediate or past the retry
            // limit); mid-spin wins measure waiting, not protocol cost
            // (see cost_model.hpp).
            if (contended || retries == 0) {
                cycles = P::now() - start;
                if constexpr (kSocketAware)
                    next = select_.next_protocol(sig, cycles,
                                                 note_writer_socket());
                else
                    next = select_.next_protocol(sig, cycles);
            } else {
                if constexpr (kSocketAware)
                    (void)note_writer_socket();
                next = select_.next_protocol(sig);
            }
        } else {
            next = select_.next_protocol(sig);
        }
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]] {
                const std::uint64_t ts = P::now();
                trace::emit(trace::EventType::kAcqSample,
                            trace::ObjectClass::kRwLock, trace_id_,
                            kSimpleIndex, static_cast<std::uint8_t>(next),
                            ts, cycles,
                            trace::pack_signal(sig.protocol, sig.drift));
                probe.emit_edges(select_, trace::ObjectClass::kRwLock,
                                 trace_id_, kSimpleIndex,
                                 static_cast<std::uint8_t>(next), ts);
                if constexpr (kCalibrating) {
                    if (cycles > 0) {
                        if (const auto best = audit::best_alternative(
                                select_, kProtocols)) {
                            const std::uint64_t regret = audit::record(
                                trace::ObjectClass::kRwLock, trace_id_,
                                cycles, *best);
                            trace::emit(trace::EventType::kRegret,
                                        trace::ObjectClass::kRwLock,
                                        trace_id_, kSimpleIndex,
                                        static_cast<std::uint8_t>(next),
                                        ts, cycles, *best, regret);
                        }
                    }
                }
            }
        }
        return next != kSimpleIndex ? ReleaseMode::kSimpleToQueue
                                    : ReleaseMode::kSimple;
    }

    /// Queue-protocol write acquisition; an empty queue signals low
    /// contention. nullopt when the protocol was retired.
    std::optional<ReleaseMode> try_write_queue(Node& n)
    {
        const std::uint64_t start = kCalibrating ? P::now() : 0;
        AwaitResult wr{};
        // Enqueuing onto a retired tail dismantles the bogus chain we
        // headed; the walk wakes the lanes of the waiters it signals.
        const QOutcome outcome = queue_.start_write(n.qnode, wsite_, wr);
        if (outcome == QOutcome::kInvalid)
            return std::nullopt;
        note_write_waited(wr);
        stamp_hold();
        const bool empty = outcome == QOutcome::kAcquiredEmpty;
        const ProtocolSignal sig{kQueueIndex, empty ? -1 : 0};
        const trace::ProbeWatch<Select> probe(select_, trace::enabled());
        [[maybe_unused]] std::uint64_t cycles = 0;
        std::uint32_t next;
        if constexpr (kCalibrating) {
            cycles = P::now() - start;
            if constexpr (kSocketAware)
                next =
                    select_.next_protocol(sig, cycles, note_writer_socket());
            else
                next = select_.next_protocol(sig, cycles);
        } else {
            next = select_.next_protocol(sig);
        }
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]] {
                const std::uint64_t ts = P::now();
                trace::emit(trace::EventType::kAcqSample,
                            trace::ObjectClass::kRwLock, trace_id_,
                            kQueueIndex, static_cast<std::uint8_t>(next), ts,
                            cycles,
                            trace::pack_signal(sig.protocol, sig.drift));
                probe.emit_edges(select_, trace::ObjectClass::kRwLock,
                                 trace_id_, kQueueIndex,
                                 static_cast<std::uint8_t>(next), ts);
                if constexpr (kCalibrating) {
                    if (cycles > 0) {
                        if (const auto best = audit::best_alternative(
                                select_, kProtocols)) {
                            const std::uint64_t regret = audit::record(
                                trace::ObjectClass::kRwLock, trace_id_,
                                cycles, *best);
                            trace::emit(trace::EventType::kRegret,
                                        trace::ObjectClass::kRwLock,
                                        trace_id_, kQueueIndex,
                                        static_cast<std::uint8_t>(next),
                                        ts, cycles, *best, regret);
                        }
                    }
                }
            }
        }
        return next != kQueueIndex ? ReleaseMode::kQueueToSimple
                                   : ReleaseMode::kQueue;
    }

    /// The holding writer validates the queue (capturing its INVALID
    /// tail), retires the simple word, flips the hint, and releases via
    /// the queue. Mirrors release_tts_to_queue (Figure 3.29).
    void release_simple_to_queue(Node& n)
    {
        const std::uint64_t start = kCalibrating ? P::now() : 0;
        queue_.acquire_invalid_write(n.qnode);
        simple_.invalidate_from_writer();
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
                            trace::ObjectClass::kRwLock, trace_id_,
                            kSimpleIndex, kQueueIndex, P::now(),
                            trace::pack_signal(kSimpleIndex, +1),
                            trace::estimator_pair(select_, kSimpleIndex,
                                                  kQueueIndex),
                            dur);
        }
        queue_.end_write(n.qnode, wsite_);
    }

    /// The holding writer flips the hint, dismantles the queue (waking
    /// waiters with INVALID so they retry via the simple protocol), and
    /// validates + frees the simple word. Mirrors release_queue_to_tts.
    void release_queue_to_simple(Node& n)
    {
        const std::uint64_t start = kCalibrating ? P::now() : 0;
        mode_.value.store(static_cast<std::uint32_t>(Mode::kSimple),
                          std::memory_order_release);
        ++protocol_changes_;
        select_.on_switch();
        queue_.invalidate(&n.qnode, wsite_);
        // Still in consensus until validate_free() publishes the word.
        [[maybe_unused]] std::uint64_t dur = 0;
        if constexpr (kCalibrating) {
            dur = P::now() - start;
            select_.on_switch_cycles(dur);
        }
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]]
                trace::emit(trace::EventType::kSwitch,
                            trace::ObjectClass::kRwLock, trace_id_,
                            kQueueIndex, kSimpleIndex, P::now(),
                            trace::pack_signal(kQueueIndex, -1),
                            trace::estimator_pair(select_, kQueueIndex,
                                                  kSimpleIndex),
                            dur);
        }
        simple_.validate_free();
    }

    // ---- waiting-mode selection (ParkWaiting instantiations only) ----

    /// Park-axis writer state; the empty stand-in keeps SpinWaiting
    /// object layout (and code) identical to the pre-subsystem lock.
    struct ParkWaitState {
        WaitPolicy policy{};
        std::uint64_t hold_start = 0;  ///< stamped at every write acquire
    };
    struct NoWaitState {};
    using WaitState = std::conditional_t<kParking, ParkWaitState, NoWaitState>;

    /// Every successful *write* acquisition stamps the hold start so
    /// the departing writer can report its span for free. Readers hold
    /// no exclusivity and never stamp.
    void stamp_hold()
    {
        if constexpr (kParking)
            wstate_.hold_start = P::now();
    }

    /// A slow-path *writer* reports how it waited. Called only once the
    /// caller holds full exclusivity, so feeding the measured wake
    /// latency to the (single-writer) wait policy is in-consensus.
    void note_write_waited(const AwaitResult& wr)
    {
        if constexpr (kParking) {
            if (!wr.blocked)
                return;
            if (wr.wake_latency != 0)
                wstate_.policy.note_wake_latency(wr.wake_latency);
            trace_park(wr);
        }
    }

    /// A slow-path *reader* reports how it waited: trace only — readers
    /// are never in consensus, so the wait policy is left untouched.
    void note_read_waited(const AwaitResult& wr)
    {
        if constexpr (kParking) {
            if (wr.blocked)
                trace_park(wr);
        }
    }

    void trace_park(const AwaitResult& wr)
    {
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]] {
                const auto m = static_cast<std::uint8_t>(
                    unpack_wait_hint(wsite_.hint()).mode);
                trace::emit(trace::EventType::kPark,
                            trace::ObjectClass::kRwLock, trace_id_, m, m,
                            P::now(), wr.wait_cycles, wr.wake_latency);
            }
        }
    }

    /// Departing writer (full exclusivity): fold this hold's span and
    /// the free queue-depth signal into the wait policy, publish the
    /// new hint, and mirror the signal into a wait-aware protocol
    /// policy.
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
            wsite_.set_hint(h);
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
                                trace::ObjectClass::kRwLock, trace_id_,
                                old_mode, new_mode, P::now(), h, ests, ew);
                }
            }
        }
    }

    // The mode hint lives on its own (mostly-read) cache line, separate
    // from the frequently written protocol words (Section 3.2.6).
    CacheAligned<typename P::template Atomic<std::uint32_t>> mode_;
    SimpleRwLock<P> simple_;
    QueueRwLock<P> queue_;

    ReactiveRwLockParams params_;
    Select select_;                       // mutated in-consensus only
    std::uint64_t protocol_changes_ = 0;  // mutated in-consensus only
    // Socket of the previous writer (socket-aware policies only;
    // mutated only by writers, under full exclusivity).
    SocketHandoffTracker<P> writer_socket_;
    // Waiting-mode state: both empty (and branch-free above) for
    // SpinWaiting instantiations.
    [[no_unique_address]] Site wsite_;
    [[no_unique_address]] WaitState wstate_;
    // Trace identity (0 when tracing is compiled out). Unconditional
    // member so object layout is identical in both build modes.
    std::uint32_t trace_id_ = trace::new_object(trace::ObjectClass::kRwLock);
};

}  // namespace reactive
