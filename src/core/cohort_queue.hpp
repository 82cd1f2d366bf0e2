/**
 * @file
 * NUMA cohort queue lock: the topology-aware sibling of
 * core/reactive_queue.hpp, in the lineage of lock cohorting (Dice,
 * Marathe & Shavit, PPoPP '12) built from two levels of MCS queue.
 *
 * Structure: each socket owns a *local* MCS queue; the socket's local
 * head (the "leader") competes on one *global* MCS queue through a
 * per-socket global node embedded in the lock. A releasing holder
 * prefers its local successor — handing over both the lock and,
 * implicitly, the socket's global tenancy — for at most
 * `cohort_limit` (B) consecutive local grants, then releases the
 * global queue so the next socket's leader proceeds. Handoff within a
 * socket touches only lines already resident on that socket (the
 * successor's node, enqueued from the same socket), so under
 * contention the expensive cross-socket transfer happens once per
 * cohort batch instead of once per critical section.
 *
 * Fairness bound (explicit, and property-tested): once a waiter's
 * socket leader is enqueued in the global queue, at most B further
 * critical sections complete under the currently serving socket before
 * the global lock is handed over, and the global queue is FIFO across
 * sockets — so a remote waiter that is its socket's leader acquires
 * within B+1 lock grants of its global enqueue, and in general within
 * (sockets - 1) * (B + 1) grants. No waiter starves: the budget is
 * enforced unconditionally, even against an adversarial all-local
 * arrival stream.
 *
 * Reactive extensions (the ReactiveQueue consensus-object dialect, so
 * this protocol can serve as the queue slot of a reactive lock): the
 * *global* tail is the consensus object with a distinguished INVALID
 * sentinel; waiters can be signalled INVALID and abort to the
 * dispatcher; `acquire_invalid` captures a retired queue while
 * validating it; `invalidate` retires the protocol, waking every
 * waiter — local and global — with INVALID. A leader that finds the
 * global tail INVALID dismantles its own socket's local chain so its
 * followers retry too.
 *
 * With sockets = 1 the structure degenerates to a single local queue
 * whose batches are ended only by queue exhaustion — per-grant work is
 * then one extra predicate against plain MCS, the price fig_numa's
 * flat rows measure as "ties within noise".
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "trace/trace.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/// See file header. The global tail is the protocol's consensus
/// object; everything else is per-socket or per-waiter state.
///
/// @tparam Waiting  waiting-mode axis: SpinWaiting (default) keeps the
///         historical pure-spin waits; ParkWaiting parks local waiters
///         and queued leaders under their *socket's* WaitSite — wakes
///         stay socket-local exactly like the grants themselves, so
///         parking adds no cross-socket traffic beyond the eventcount
///         broadcast that follows a cross-socket grant.
template <Platform P, typename Waiting = SpinWaiting>
class CohortQueue {
  public:
    static constexpr std::uint32_t kWaiting = 0;
    /// Lock granted together with the socket's global tenancy (a
    /// cohort pass, or a fresh global acquisition completing).
    static constexpr std::uint32_t kGoGlobal = 1;
    /// Local leadership granted: proceed to the global queue.
    static constexpr std::uint32_t kGoAcquire = 2;
    static constexpr std::uint32_t kInvalid = 3;

    struct Params {
        /// Socket count; waiters name theirs via the platform
        /// (TopologyAwarePlatform; flat platforms all report 0).
        std::uint32_t sockets = 1;
        /// B: consecutive local grants per global tenancy.
        std::uint32_t cohort_limit = 4;
    };

    /// Per-acquisition local-queue node; must live from acquire() to
    /// release().
    struct Node {
        typename P::template Atomic<Node*> next{nullptr};
        typename P::template Atomic<std::uint32_t> status{kWaiting};
        std::uint32_t socket = 0;  // written by owner before enqueue
        /// Lock grant count observed at this waiter's global enqueue —
        /// the fairness tests' measuring stick. Recorded only on the
        /// deterministic simulator (plain reads there are exact and
        /// free; on native platforms the read would race the holder's
        /// increment).
        std::uint64_t enqueue_grants = 0;
    };

    /// How an acquisition attempt concluded (ReactiveQueue dialect).
    enum class Outcome {
        kAcquiredEmpty,   ///< got the lock, both queues were empty
        kAcquiredWaited,  ///< got the lock after queuing
        kInvalid,         ///< protocol retired; retry with the other one
    };

    /// @param initially_valid false leaves the global tail INVALID (the
    ///        state a reactive algorithm starts its non-designated
    ///        protocols in).
    explicit CohortQueue(bool initially_valid = false, Params params = {})
        : params_(params),
          sockets_(params.sockets < 1 ? 1 : params.sockets),
          socks_(std::make_unique<CacheAligned<SocketState>[]>(sockets_))
    {
        for (std::uint32_t i = 0; i < sockets_; ++i)
            socks_[i]->gnode.socket = i;
        gtail_.store(initially_valid ? nullptr : invalid_gtail(),
                     std::memory_order_relaxed);
    }

    /// Attempts to acquire the lock with @p node.
    Outcome acquire(Node& node)
    {
        AwaitResult wr;
        return acquire(node, wr);
    }

    /// Acquire reporting how the waits ran (ParkWaiting callers; under
    /// SpinWaiting @p wr reports a plain spin). Local waiters and
    /// queued leaders wait under their socket's site, dispatched by the
    /// holder-published hint (set_wait_hint).
    Outcome acquire(Node& node, AwaitResult& wr)
    {
        SocketState& ss = enqueue_local(node);
        Node* pred = ss.tail.exchange(&node, std::memory_order_acq_rel);
        if (pred == nullptr)
            return acquire_global(node, ss, /*waited=*/false, wr);
        pred->next.store(&node, std::memory_order_release);
        std::uint32_t s = kWaiting;
        merge_wait(wr, ss.site.await([&] {
            return (s = node.status.load(std::memory_order_acquire)) !=
                   kWaiting;
        }));
        if (s == kInvalid)
            return Outcome::kInvalid;
        if (s == kGoGlobal) {
            ++grants_;
            return Outcome::kAcquiredWaited;
        }
        return acquire_global(node, ss, /*waited=*/true, wr);  // kGoAcquire
    }

    /**
     * Non-blocking attempt: wins only when both the local and the
     * global queue are empty and the protocol is valid. A failed
     * global race retracts from the local queue — or, if a successor
     * already enqueued, abdicates local leadership to it (the
     * successor made a blocking call; promoting it is exactly the
     * end-of-cohort handoff without the lock). Failure may be
     * spurious, as the std try_lock facade permits.
     */
    bool try_acquire(Node& node)
    {
        SocketState& ss = enqueue_local(node);
        Node* expected = nullptr;
        if (!ss.tail.compare_exchange_strong(expected, &node,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed))
            return false;
        GlobalNode& g = ss.gnode;
        g.next.store(nullptr, std::memory_order_relaxed);
        g.status.store(kWaiting, std::memory_order_relaxed);
        GlobalNode* gexpected = nullptr;
        if (gtail_.compare_exchange_strong(gexpected, &g,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
            ss.passes = 0;
            ++grants_;
            return true;
        }
        expected = &node;
        if (ss.tail.compare_exchange_strong(expected, nullptr,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
            return false;  // fully retracted
        Node* succ;
        while ((succ = node.next.load(std::memory_order_acquire)) == nullptr)
            P::pause();
        succ->status.store(kGoAcquire, std::memory_order_release);
        wake_socket(node.socket);
        return false;
    }

    /// Holder-only broadcast of the packed wait hint to every socket's
    /// site (ReactiveLock::release forwards the hint it published).
    /// The hint is advisory; relaxed stores, no ordering obligations.
    void set_wait_hint(std::uint32_t packed)
    {
        if constexpr (kParking) {
            for (std::uint32_t i = 0; i < sockets_; ++i)
                socks_[i]->site.set_hint(packed);
        } else {
            (void)packed;
        }
    }

    /// Releases the lock held with @p node.
    void release(Node& node)
    {
        SocketState& ss = *socks_[node.socket];
        Node* succ = node.next.load(std::memory_order_acquire);
        if (succ == nullptr) {
            // No local successor yet: release the global tenancy
            // *before* giving up local leadership. The socket's global
            // node is serialized by leadership, and release_global's
            // usurper repair keeps using it after its first tail
            // exchange — clearing the local tail first would let the
            // next local leader reset the node mid-repair (observed as
            // a lost lock). A successor that slips in meanwhile is
            // promoted to a plain leader below.
            release_global(ss);
            Node* expected = &node;
            if (ss.tail.compare_exchange_strong(expected, nullptr,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed))
                return;
            while ((succ = node.next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            succ->status.store(kGoAcquire, std::memory_order_release);
            wake_socket(node.socket);
            return;
        }
        // With one socket there is nobody to be fair *to*: the budget
        // would only break the batch to hand the global queue straight
        // back to this socket. Passing until the local queue drains
        // makes the flat degeneration's per-grant work identical to
        // plain MCS (one next-load + one status store).
        if (sockets_ == 1 || ss.passes < params_.cohort_limit) {
            // Cohort pass: lock and global tenancy stay on this socket.
            ++ss.passes;
            REACTIVE_TRACE_EVENT(trace::EventType::kCohortGrant,
                                 trace::ObjectClass::kCohort, trace_id_,
                                 static_cast<std::uint8_t>(node.socket),
                                 static_cast<std::uint8_t>(node.socket),
                                 P::now(), ss.passes);
            succ->status.store(kGoGlobal, std::memory_order_release);
            wake_socket(node.socket);
            return;
        }
        // Budget exhausted: the global queue moves on *first* (the
        // socket's global node must be out of it before the promoted
        // successor can re-enqueue it), then the successor becomes a
        // plain leader and waits its socket's next global turn.
        REACTIVE_TRACE_EVENT(trace::EventType::kCohortHandoff,
                             trace::ObjectClass::kCohort, trace_id_,
                             static_cast<std::uint8_t>(node.socket),
                             static_cast<std::uint8_t>(node.socket),
                             P::now(), ss.passes);
        release_global(ss);
        succ->status.store(kGoAcquire, std::memory_order_release);
        wake_socket(node.socket);
    }

    // ---- consensus-object entry points (reactive dispatcher only) ----

    /**
     * Captures the INVALID global tail, making @p node the holder of a
     * freshly validated queue. Must be called only by a process
     * holding the valid consensus object of another protocol.
     * Competing bogus chains from late wrong-protocol arrivals — on
     * this socket's local queue and on the global queue — are waited
     * out, exactly as in ReactiveQueue::acquire_invalid.
     */
    void acquire_invalid(Node& node)
    {
        // Become the local leader first (predecessors can only be
        // bailing wrong-protocol arrivals; their dismantle signals us
        // INVALID and we re-enqueue).
        SocketState* ssp;
        for (;;) {
            SocketState& ss = enqueue_local(node);
            Node* pred = ss.tail.exchange(&node, std::memory_order_acq_rel);
            if (pred == nullptr) {
                ssp = &ss;
                break;
            }
            pred->next.store(&node, std::memory_order_release);
            std::uint32_t s;
            while ((s = node.status.load(std::memory_order_acquire)) ==
                   kWaiting)
                P::pause();
            assert(s == kInvalid &&
                   "no cohort holder can exist while another protocol "
                   "is valid");
            (void)s;
        }
        // Leadership held; now capture the global tail.
        SocketState& ss = *ssp;
        for (;;) {
            GlobalNode& g = ss.gnode;
            g.next.store(nullptr, std::memory_order_relaxed);
            g.status.store(kWaiting, std::memory_order_relaxed);
            GlobalNode* gpred =
                gtail_.exchange(&g, std::memory_order_acq_rel);
            if (gpred == invalid_gtail()) {
                ss.passes = 0;
                ++grants_;
                return;
            }
            assert(gpred != nullptr &&
                   "queue must not be valid-free while another protocol "
                   "is valid");
            // Bogus chain of bailing leaders; its head dismantles it
            // and signals us INVALID. Wait it out and retry.
            gpred->next.store(&g, std::memory_order_release);
            while (g.status.load(std::memory_order_acquire) == kWaiting)
                P::pause();
        }
    }

    /**
     * Retires the protocol: swings the global tail to INVALID, walks
     * the global chain signalling every queued socket leader INVALID
     * (each then dismantles its own socket's local chain), and
     * dismantles the holder's own local chain. Caller is the holder
     * performing a protocol change; @p head is its own node.
     */
    void invalidate(Node* head)
    {
        // The caller holds the valid consensus object of another
        // protocol; this is the retire/abort edge of a protocol change.
        REACTIVE_TRACE_EVENT(trace::EventType::kCohortAbort,
                             trace::ObjectClass::kCohort, trace_id_,
                             static_cast<std::uint8_t>(head->socket),
                             static_cast<std::uint8_t>(head->socket),
                             P::now());
        SocketState& ss = *socks_[head->socket];
        // Global first: future leaders on any socket must bail.
        GlobalNode& g = ss.gnode;
        GlobalNode* gtail =
            gtail_.exchange(invalid_gtail(), std::memory_order_acq_rel);
        if (gtail != &g) {
            GlobalNode* h;
            while ((h = g.next.load(std::memory_order_acquire)) == nullptr)
                P::pause();
            signal_global_chain(h, gtail);
        }
        // Then this socket's local chain behind the holder.
        Node* ltail = ss.tail.exchange(nullptr, std::memory_order_acq_rel);
        Node* h = head;
        while (h != ltail) {
            Node* next;
            while ((next = h->next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            h->status.store(kInvalid, std::memory_order_release);
            h = next;
        }
        h->status.store(kInvalid, std::memory_order_release);
        wake_all_sites();
    }

    // ---- racy inspection (tests, monitoring) -------------------------

    bool is_invalid() const
    {
        return gtail_.load(std::memory_order_relaxed) == invalid_gtail();
    }

    /// Total lock grants so far. Written only by holders (in-consensus,
    /// traffic-free); exact when read from simulated code, racy
    /// diagnostic elsewhere.
    std::uint64_t grants() const { return grants_; }

    std::uint32_t sockets() const { return sockets_; }
    std::uint32_t cohort_limit() const { return params_.cohort_limit; }

    /// Whether this instantiation parks waiters (tests).
    static constexpr bool kParking = WaitSite<P, Waiting>::kParking;

  private:
    struct GlobalNode {
        typename P::template Atomic<GlobalNode*> next{nullptr};
        typename P::template Atomic<std::uint32_t> status{kWaiting};
        std::uint32_t socket = 0;  // fixed at construction (owning socket)
    };

    /// Per-socket state, one line per socket: the local tail is that
    /// socket's enqueue point, the global node is touched only by the
    /// socket's leader (local leadership serializes it), the pass
    /// count only by lock holders, and the waiting site by the
    /// socket's waiters plus whoever grants to them.
    struct SocketState {
        typename P::template Atomic<Node*> tail{nullptr};
        GlobalNode gnode;
        std::uint32_t passes = 0;
        /// Socket-local parking point (empty under SpinWaiting).
        [[no_unique_address]] WaitSite<P, Waiting> site;
    };

    /// Socket-local wake after a condition-changing store (no-op under
    /// SpinWaiting). The store must precede the call in program order.
    void wake_socket(std::uint32_t s)
    {
        if constexpr (kParking)
            socks_[s]->site.wake();
    }

    /// Broadcast wake after a chain walk that signalled nodes on
    /// potentially every socket (invalidation paths; rare).
    void wake_all_sites()
    {
        if constexpr (kParking) {
            for (std::uint32_t i = 0; i < sockets_; ++i)
                socks_[i]->site.wake();
        }
    }

    /// Folds a second wait's cost into an acquisition's AwaitResult
    /// (local wait then global wait).
    static void merge_wait(AwaitResult& into, const AwaitResult& r)
    {
        into.wait_cycles += r.wait_cycles;
        into.blocked = into.blocked || r.blocked;
        into.descheduled = into.descheduled || r.descheduled;
        if (r.wake_latency != 0)
            into.wake_latency = r.wake_latency;
    }

    static GlobalNode* invalid_gtail()
    {
        return reinterpret_cast<GlobalNode*>(static_cast<std::uintptr_t>(1));
    }

    /// Fairness bookkeeping is recorded only on the deterministic
    /// simulator, where a plain read of the holder-owned grant count
    /// is exact and free; on native platforms it would be a data race
    /// for a diagnostic nobody can read exactly anyway.
    static constexpr bool kRecordEnqueueGrants =
        requires { requires P::deterministic_simulation; };

    /// Resets @p node for a fresh attempt and names its socket.
    SocketState& enqueue_local(Node& node)
    {
        std::uint32_t s = platform_socket<P>();
        if (s >= sockets_)
            s = sockets_ - 1;
        node.socket = s;
        node.next.store(nullptr, std::memory_order_relaxed);
        node.status.store(kWaiting, std::memory_order_relaxed);
        return *socks_[s];
    }

    /// Local leader's global acquisition (or bail-out on a retired
    /// protocol).
    Outcome acquire_global(Node& node, SocketState& ss, bool waited,
                           AwaitResult& wr)
    {
        GlobalNode& g = ss.gnode;
        g.next.store(nullptr, std::memory_order_relaxed);
        g.status.store(kWaiting, std::memory_order_relaxed);
        if constexpr (kRecordEnqueueGrants)
            node.enqueue_grants = grants_;
        GlobalNode* gpred = gtail_.exchange(&g, std::memory_order_acq_rel);
        if (gpred == invalid_gtail()) {
            // Retired: restore the sentinel, dismantle whatever queued
            // behind us globally, then our own local followers.
            invalidate_global_from(&g);
            local_bailout(node, ss);
            wake_all_sites();
            return Outcome::kInvalid;
        }
        if (gpred != nullptr) {
            gpred->next.store(&g, std::memory_order_release);
            std::uint32_t s = kWaiting;
            merge_wait(wr, ss.site.await([&] {
                return (s = g.status.load(std::memory_order_acquire)) !=
                       kWaiting;
            }));
            if (s == kInvalid) {
                local_bailout(node, ss);
                wake_socket(node.socket);
                return Outcome::kInvalid;
            }
            waited = true;
        }
        ss.passes = 0;
        ++grants_;
        return waited ? Outcome::kAcquiredWaited : Outcome::kAcquiredEmpty;
    }

    /// MCS release of the socket's global tenancy, with the usurper
    /// repair of ReactiveQueue::release (including the reactive-only
    /// race where the usurper retires the protocol mid-repair).
    void release_global(SocketState& ss)
    {
        ss.passes = 0;
        GlobalNode& g = ss.gnode;
        GlobalNode* succ = g.next.load(std::memory_order_acquire);
        if (succ == nullptr) {
            GlobalNode* old_tail =
                gtail_.exchange(nullptr, std::memory_order_acq_rel);
            if (old_tail == &g)
                return;  // truly no successor
            GlobalNode* usurper =
                gtail_.exchange(old_tail, std::memory_order_acq_rel);
            while ((succ = g.next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            if (usurper == invalid_gtail()) {
                invalidate_global_from(succ);
                wake_all_sites();
            } else if (usurper != nullptr) {
                usurper->next.store(succ, std::memory_order_release);
            } else {
                succ->status.store(kGoGlobal, std::memory_order_release);
                wake_socket(succ->socket);
            }
            return;
        }
        succ->status.store(kGoGlobal, std::memory_order_release);
        wake_socket(succ->socket);
    }

    /// Swings the global tail (back) to INVALID and signals the chain
    /// from @p head; each signalled leader dismantles its own local
    /// queue from its acquire path.
    void invalidate_global_from(GlobalNode* head)
    {
        GlobalNode* tail =
            gtail_.exchange(invalid_gtail(), std::memory_order_acq_rel);
        signal_global_chain(head, tail);
    }

    void signal_global_chain(GlobalNode* head, GlobalNode* tail)
    {
        while (head != tail) {
            GlobalNode* next;
            while ((next = head->next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            head->status.store(kInvalid, std::memory_order_release);
            head = next;
        }
        head->status.store(kInvalid, std::memory_order_release);
    }

    /// A bailing local leader dismantles its socket's chain: every
    /// follower joined a retired protocol and must retry through the
    /// dispatcher.
    void local_bailout(Node& node, SocketState& ss)
    {
        Node* ltail = ss.tail.exchange(nullptr, std::memory_order_acq_rel);
        Node* h = &node;
        while (h != ltail) {
            Node* next;
            while ((next = h->next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            h->status.store(kInvalid, std::memory_order_release);
            h = next;
        }
        h->status.store(kInvalid, std::memory_order_release);
    }

    // The global tail is the hot cross-socket word; keep it alone.
    alignas(kCacheLineSize)
        typename P::template Atomic<GlobalNode*> gtail_{nullptr};
    Params params_;
    std::uint32_t sockets_;
    std::unique_ptr<CacheAligned<SocketState>[]> socks_;
    std::uint64_t grants_ = 0;  // mutated by lock holders only
    // Trace identity (0 when tracing is compiled out). Unconditional
    // member so object layout is identical in both build modes.
    std::uint32_t trace_id_ = trace::new_object(trace::ObjectClass::kCohort);
};

}  // namespace reactive
