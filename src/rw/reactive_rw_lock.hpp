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
 *    signals are the mutex path's signals verbatim (failed attempts in
 *    simple mode, empty-queue acquisitions in queue mode), so all three
 *    switching policies of core/policy.hpp apply unchanged; the
 *    writer's observe / switch / publish steps are one ConsensusPoint
 *    (core/consensus_point.hpp; DESIGN.md "One consensus point").
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
#include <utility>

#include "core/consensus_point.hpp"
#include "core/policy.hpp"
#include "core/protocol_set.hpp"
#include "platform/backoff.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "rw/queue_rw_lock.hpp"
#include "rw/rw_concepts.hpp"
#include "rw/simple_rw_lock.hpp"
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
 * (core/protocol_set.hpp): each slow-path write shows the policy one
 * `Observation` over the two-slot set {simple, queue}, with a cycle
 * sample only when the write's cost is a clean sample. Binary
 * SwitchPolicy policies embed via SelectAdapter with their historical
 * call sequence (bit-compatible decisions), the calibrated binary
 * policies are two-protocol SelectPolicies themselves, and Mode values
 * are the protocol indices.
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
 * @tparam Waiting    SpinWaiting (default; the wait loops run through
 *                    the empty spin site) or ParkWaiting.
 * @tparam WaitPolicy WaitSelectPolicy choosing the waiting mode
 *                    (ParkWaiting instantiations only).
 */
template <Platform P, typename Policy = AlwaysSwitchPolicy,
          typename Waiting = SpinWaiting,
          typename WaitPolicy = CalibratedWaitPolicy>
class ReactiveRwLock {
    using Consensus = ConsensusPoint<P, Policy, Waiting, WaitPolicy>;

  public:
    /// The select-interface view of the policy parameter.
    using Select = typename Consensus::Select;
    /// The rwlock's protocol set is fixed: {simple, MCS-style queue}.
    static constexpr std::uint32_t kProtocols = 2;

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
    using Site = typename Consensus::Site;
    /// Whether slow-path waits may park (ParkWaiting instantiations).
    static constexpr bool kParking = Consensus::kParking;

    ReactiveRwLock() : ReactiveRwLock(ReactiveRwLockParams{}, Policy{}) {}

    explicit ReactiveRwLock(ReactiveRwLockParams params,
                            Policy policy = Policy{})
        : queue_(/*initially_valid=*/false),
          params_(params),
          cp_(trace::ObjectClass::kRwLock, kProtocols, std::move(policy))
    {
        // Initial state: simple valid and free, queue invalid,
        // mode = simple (the low-contention protocol, as in Figure 3.27).
        mode_->store(static_cast<std::uint32_t>(Mode::kSimple),
                     std::memory_order_relaxed);
    }

    // ---- RwLock interface --------------------------------------------

    void lock_read(Node& n)
    {
        // Optimistic fast path: a valid-and-writer-free simple word
        // admits the reader regardless of the (possibly stale) hint.
        // No monitoring: readers never feed the policy.
        if (params_.optimistic_simple &&
            read_simple_once() == Attempt::kAcquired) {
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
                if (start_read_queue(n) != QOutcome::kInvalid) {
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
        // — which wakes that writer's lane itself. Only the release
        // that empties the word can satisfy a group-lane waiter:
        // readers there wait for the writer bit to clear, which no
        // read release does, so earlier releases wake nobody.
        if (n.rm == ReleaseMode::kSimple) {
            if (simple_.unlock_read())
                cp_.site().wake();
        } else {
            queue_.end_read(n.qnode, cp_.site());
        }
    }

    void lock_write(Node& n)
    {
        // Optimistic compare&swap on the simple word (Section 3.7.3).
        // As in the reactive mutex, the fast path performs no
        // monitoring: an uncontended win says nothing reliable and
        // would break streaks that spinning acquirers are building.
        // The winner is still the new writer (fast_acquired). Reader
        // fast paths never touch policy state — readers hold no
        // exclusivity.
        if (params_.optimistic_simple &&
            simple_.try_lock_write() == Attempt::kAcquired) {
            cp_.fast_acquired(kSimpleIndex);
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
        // full exclusivity, so the waiters this release signals
        // dispatch under the new hint.
        cp_.publish_wait();
        switch (n.rm) {
        case ReleaseMode::kSimple:
            simple_.unlock_write();
            break;
        case ReleaseMode::kQueue:
            queue_.end_write(n.qnode, cp_.site());
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
            cp_.site().wake();
    }

    // ---- std-facade hooks (one-shot tries; see reactive_shared_mutex)

    /// Single non-blocking write attempt: the optimistic simple-word
    /// CAS, then — if the hint says queue mode — a tail CAS that wins
    /// only an empty valid queue (so try_lock keeps making progress
    /// while the lock lives in the queue protocol; std::lock over
    /// several reactive locks depends on that). Neither path performs
    /// monitoring, as for the optimistic fast path, but either winner
    /// is the new writer. Failure may be spurious.
    bool try_lock_write(Node& n)
    {
        if (simple_.try_lock_write() == Attempt::kAcquired) {
            cp_.fast_acquired(kSimpleIndex);
            n.rm = ReleaseMode::kSimple;
            return true;
        }
        if (mode() == Mode::kQueue &&
            queue_.try_start_write(n.qnode) != QOutcome::kInvalid) {
            cp_.fast_acquired(kQueueIndex);
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
        if (read_simple_once() == Attempt::kAcquired) {
            n.rm = ReleaseMode::kSimple;
            return true;
        }
        // The empty-tail win may propagate a grant to a parked
        // successor reader, waking its lane on the site.
        if (mode() == Mode::kQueue &&
            queue_.try_start_read(n.qnode, cp_.site()) != QOutcome::kInvalid) {
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

    /// Wait-mode transitions the writers published (tests/benchmarks).
    std::uint64_t wait_mode_changes() const
        requires kParking
    {
        return cp_.wait_mode_changes();
    }

  private:
    using Attempt = typename SimpleRwLock<P>::Attempt;
    using QOutcome = typename QueueRwLock<P>::Outcome;
    static constexpr std::uint32_t kSimpleIndex =
        static_cast<std::uint32_t>(Mode::kSimple);
    static constexpr std::uint32_t kQueueIndex =
        static_cast<std::uint32_t>(Mode::kQueue);

    /// One simple-word read attempt. A back-out that empties the word
    /// frees it like a last reader's release, so it wakes the group
    /// lane too: a one-shot try that gives up after it would otherwise
    /// leave a writer parked on an empty word.
    Attempt read_simple_once()
    {
        bool emptied = false;
        const Attempt a = simple_.try_lock_read(emptied);
        if (emptied)
            cp_.site().wake();
        return a;
    }

    /// Simple-protocol read acquisition: poll with backoff while a
    /// writer is inside; false if the protocol was retired or the hint
    /// moved on (caller retries with the queue protocol). The loop runs
    /// through the site: the predicate *is* the acquisition attempt,
    /// the mode is re-checked after each pause, and in park mode the
    /// freeing writer's release broadcast re-checks us. The backoff
    /// paces spin-mode polling of the contended reader count (see
    /// try_acquire_tts in reactive_lock.hpp). Readers are never in
    /// consensus, so a park is traced but not fed to the wait policy.
    bool try_read_simple()
    {
        ExpBackoff<P> backoff(params_.backoff);
        bool first = true;
        bool acquired = false;
        const AwaitResult wr = cp_.site().await([&] {
            if (!std::exchange(first, false) && mode() != Mode::kSimple)
                return true;
            const Attempt a = read_simple_once();
            acquired = a == Attempt::kAcquired;
            return a != Attempt::kBusy;
        }, [&] { return backoff.pause(); });
        cp_.parked(wr);
        return acquired;
    }

    /// Queue-protocol read acquisition through the site (pure
    /// predicate — the grant is pushed into the node). The grants it
    /// makes (propagation to a parked successor reader, a dismantled
    /// bogus chain) wake their lanes inside the queue.
    QOutcome start_read_queue(Node& n)
    {
        AwaitResult wr{};
        const QOutcome out = queue_.start_read(n.qnode, cp_.site(), wr);
        cp_.parked(wr);
        return out;
    }

    /// Simple-protocol write acquisition: the same site loop, counting
    /// failed attempts; on success the caller holds full exclusivity
    /// and takes the consensus step.
    std::optional<ReleaseMode> try_write_simple()
    {
        const std::uint64_t start = cp_.clock();
        ExpBackoff<P> backoff(params_.backoff);
        std::uint32_t retries = 0;
        bool first = true;
        bool acquired = false;
        const AwaitResult wr = cp_.site().await([&] {
            if (!std::exchange(first, false) && mode() != Mode::kSimple)
                return true;
            const Attempt a = simple_.try_lock_write();
            acquired = a == Attempt::kAcquired;
            if (a != Attempt::kBusy)
                return true;
            ++retries;
            return false;
        }, [&] { return backoff.pause(); });
        if (!acquired)
            return std::nullopt;
        cp_.waited(wr);
        // Clean samples only (immediate or past the retry limit); a
        // mid-spin win measures waiting, not protocol cost.
        const bool contended = retries > params_.write_retry_limit;
        Observation obs{kSimpleIndex, contended ? +1 : 0};
        if (contended || retries == 0)
            obs.cycles = cp_.since(start);
        const std::uint32_t next = cp_.observe(obs);
        return next != kSimpleIndex ? ReleaseMode::kSimpleToQueue
                                    : ReleaseMode::kSimple;
    }

    /// Queue-protocol write acquisition; an empty queue signals low
    /// contention. nullopt when the protocol was retired.
    std::optional<ReleaseMode> try_write_queue(Node& n)
    {
        const std::uint64_t start = cp_.clock();
        AwaitResult wr{};
        // Enqueuing onto a retired tail dismantles the bogus chain we
        // headed; the walk wakes the lanes of the waiters it signals.
        const QOutcome outcome = queue_.start_write(n.qnode, cp_.site(), wr);
        if (outcome == QOutcome::kInvalid)
            return std::nullopt;
        cp_.waited(wr);
        const bool empty = outcome == QOutcome::kAcquiredEmpty;
        const std::uint32_t next =
            cp_.observe({kQueueIndex, empty ? -1 : 0, cp_.since(start)});
        return next != kQueueIndex ? ReleaseMode::kQueueToSimple
                                   : ReleaseMode::kQueue;
    }

    /// The holding writer validates the queue (capturing its INVALID
    /// tail), retires the simple word, flips the hint, and releases via
    /// the queue. Mirrors release_tts_to_queue (Figure 3.29).
    void release_simple_to_queue(Node& n)
    {
        const std::uint64_t start = cp_.clock();
        queue_.acquire_invalid_write(n.qnode);
        simple_.invalidate_from_writer();
        mode_.value.store(static_cast<std::uint32_t>(Mode::kQueue),
                          std::memory_order_release);
        cp_.switched(kSimpleIndex, kQueueIndex, +1, start);
        queue_.end_write(n.qnode, cp_.site());
    }

    /// The holding writer flips the hint, dismantles the queue (waking
    /// waiters with INVALID so they retry via the simple protocol), and
    /// validates + frees the simple word. Mirrors release_queue_to_tts.
    void release_queue_to_simple(Node& n)
    {
        const std::uint64_t start = cp_.clock();
        mode_.value.store(static_cast<std::uint32_t>(Mode::kSimple),
                          std::memory_order_release);
        queue_.invalidate(&n.qnode, cp_.site());
        // Still in consensus until validate_free() publishes the word.
        cp_.switched(kQueueIndex, kSimpleIndex, -1, start);
        simple_.validate_free();
    }

    // The mode hint lives on its own (mostly-read) cache line, separate
    // from the frequently written protocol words (Section 3.2.6).
    CacheAligned<typename P::template Atomic<std::uint32_t>> mode_;
    SimpleRwLock<P> simple_;
    QueueRwLock<P> queue_;

    ReactiveRwLockParams params_;
    // Writer-only consensus state (policy, socket of the previous
    // writer, wait policy); readers touch only its site.
    Consensus cp_;
};

}  // namespace reactive
