/**
 * @file
 * Invalidatable MCS-style queue: the queue-protocol component shared by
 * the reactive spin lock (Section 3.3.1) and the reactive fetch-and-op
 * (Section 3.3.2 / Appendix C).
 *
 * This is the MCS queue lock (fetch&store-only release, as on Alewife)
 * extended with the three mechanisms the reactive framework needs:
 *
 *  - the tail pointer doubles as the protocol's *consensus object*: a
 *    distinguished INVALID sentinel marks the protocol retired;
 *  - waiters can be signalled INVALID (instead of GO) so they abort and
 *    retry the operation with the currently valid protocol;
 *  - a process holding the valid consensus object of another protocol
 *    can capture an INVALID tail (`acquire_invalid`) to become the
 *    queue's holder while validating it, and a holder can retire the
 *    queue (`invalidate`), waking every waiter with INVALID.
 *
 * The usurper-repair path of the MCS release additionally handles the
 * reactive-only race where the usurper retires the protocol while the
 * repair is in flight (it dismantles the victim chain).
 *
 * Waits run through a WaitSite (waiting/reactive/wait_site.hpp): the
 * plain overloads pass an empty spin site (the historical
 * load-then-pause loop, no wakes); with a parking site every grant or
 * INVALID store wakes only the lane of the node it lands in, and a
 * node's lane is its queue position (one past its predecessor's).
 *
 * A waiter's predicate also loads its own `next` link on every poll
 * until the successor has linked in (prefetch_successor, wait_site.hpp),
 * so release finds the successor in its own cache: a handoff pays one
 * remote transfer, the grant store, instead of the link miss plus the
 * grant. The load is relaxed and its value discarded; release keeps its
 * acquire load of the link (DESIGN.md, "Handoff").
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "platform/platform_concept.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/// See file header. All members are lock-free of extra state: the queue
/// *is* its own consensus object.
template <Platform P>
class ReactiveQueue {
  public:
    static constexpr std::uint32_t kWaiting = 0;
    static constexpr std::uint32_t kGo = 1;
    static constexpr std::uint32_t kInvalid = 2;

    struct Node {
        typename P::template Atomic<Node*> next{nullptr};
        typename P::template Atomic<std::uint32_t> status{kWaiting};
        /// Wake lane of the node's queue position, written by the owner
        /// before it links in and read by its granter. Host memory,
        /// relaxed: a stale read only picks another lane.
        std::atomic<std::uint32_t> lane{kGroupLane};
    };

    /// How an acquisition attempt concluded.
    enum class Outcome {
        kAcquiredEmpty,   ///< got the lock, queue was empty (low contention)
        kAcquiredWaited,  ///< got the lock after queuing behind a holder
        kInvalid,         ///< protocol retired; retry with the other one
    };

    /// @param initially_valid false leaves the tail INVALID (the state a
    ///        reactive algorithm starts its non-designated protocols in).
    explicit ReactiveQueue(bool initially_valid = false)
    {
        tail_.store(initially_valid ? nullptr : invalid_tail(),
                    std::memory_order_relaxed);
    }

    /// Attempts to acquire the queue lock with @p node.
    Outcome acquire(Node& node)
    {
        SpinSite site;
        AwaitResult wr;
        return acquire(node, site, wr);
    }

    /**
     * Site-aware acquisition: the status wait runs through @p site's
     * await on the node's lane, which may spin, spin-then-park, or park
     * immediately per the holder-published hint. @p wr receives the
     * AwaitResult when the wait actually ran (untouched on the empty /
     * invalid fast paths). Every store of kGo / kInvalid into a node is
     * followed by a wake of that node's lane on the same site (release,
     * invalidate), so the waker needs no broadcast of its own.
     */
    template <typename Site>
    Outcome acquire(Node& node, Site& site, AwaitResult& wr)
    {
        node.next.store(nullptr, std::memory_order_relaxed);
        node.status.store(kWaiting, std::memory_order_relaxed);
        Node* pred = tail_.exchange(&node, std::memory_order_acq_rel);
        take_lane(node, pred);
        if (pred == nullptr)
            return Outcome::kAcquiredEmpty;
        if (pred == invalid_tail()) {
            // We appended onto an invalid queue; dismantle the bogus
            // chain we now head so anyone queued behind us retries too.
            invalidate(&node, site);
            return Outcome::kInvalid;
        }
        pred->next.store(&node, std::memory_order_release);
        std::uint32_t s = kWaiting;
        bool linked = false;
        wr = site.await(node.lane.load(std::memory_order_relaxed), [&] {
            prefetch_successor(node, linked);
            return (s = node.status.load(std::memory_order_acquire)) !=
                   kWaiting;
        });
        return s == kGo ? Outcome::kAcquiredWaited : Outcome::kInvalid;
    }

    /**
     * Non-blocking acquisition attempt: wins only an empty *valid*
     * queue (tail == nullptr); a busy or invalid queue fails without
     * enqueuing. Backs the std try_lock facade — a failure may be
     * spurious under contention, which Lockable permits.
     */
    bool try_acquire(Node& node)
    {
        node.next.store(nullptr, std::memory_order_relaxed);
        node.status.store(kWaiting, std::memory_order_relaxed);
        take_lane(node, nullptr);
        Node* expected = nullptr;
        return tail_.compare_exchange_strong(expected, &node,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed);
    }

    /**
     * Releases the queue lock held with @p node (fetch&store-only MCS
     * release with usurper repair). Handles the reactive race where the
     * usurper retires the protocol during the repair.
     */
    void release(Node& node)
    {
        SpinSite site;
        release(node, site);
    }

    /// release whose grant (or victim-chain invalidation) wakes the
    /// granted node's lane on @p site.
    template <typename Site>
    void release(Node& node, Site& site)
    {
        Node* succ = node.next.load(std::memory_order_acquire);
        if (succ == nullptr) {
            Node* old_tail =
                tail_.exchange(nullptr, std::memory_order_acq_rel);
            if (old_tail == &node)
                return;  // truly no successor
            // Someone enqueued while we were emptying the queue. The
            // instant the tail went nullptr the lock was up for grabs;
            // the usurper (if any) is the legitimate holder now and may
            // even have performed a protocol change already.
            Node* usurper =
                tail_.exchange(old_tail, std::memory_order_acq_rel);
            while ((succ = node.next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            if (usurper == invalid_tail()) {
                // The usurper retired the protocol: dismantle the victim
                // chain; victims retry with the valid protocol.
                invalidate(succ, site);
            } else if (usurper != nullptr) {
                usurper->next.store(succ, std::memory_order_release);
            } else {
                signal(*succ, kGo, site);
            }
            return;
        }
        signal(*succ, kGo, site);
    }

    /**
     * Captures the INVALID tail, making @p node the holder of a
     * freshly validated queue. Must be called only by a process holding
     * the valid consensus object of another protocol (serialization of
     * protocol changes, Section 3.2.5). Competing bogus chains from
     * late wrong-protocol arrivals are waited out.
     */
    void acquire_invalid(Node& node)
    {
        for (;;) {
            node.next.store(nullptr, std::memory_order_relaxed);
            node.status.store(kWaiting, std::memory_order_relaxed);
            Node* pred = tail_.exchange(&node, std::memory_order_acq_rel);
            take_lane(node, pred);
            if (pred == invalid_tail())
                return;
            assert(pred != nullptr &&
                   "queue must not be valid-free while another protocol "
                   "is valid");
            pred->next.store(&node, std::memory_order_release);
            // Wait out the bogus chain (spinning: the caller holds the
            // other protocol) and retry.
            SpinSite spin;
            (void)spin.await([&] {
                return node.status.load(std::memory_order_acquire) !=
                       kWaiting;
            });
        }
    }

    /**
     * Retires the queue protocol: swings the tail to INVALID and walks
     * the chain from @p head signalling INVALID to every node. Callers:
     * the queue holder performing a protocol change (head = its own
     * node), or internal cleanup paths.
     */
    void invalidate(Node* head)
    {
        SpinSite site;
        invalidate(head, site);
    }

    /// invalidate whose walk wakes each signalled node's lane on
    /// @p site.
    template <typename Site>
    void invalidate(Node* head, Site& site)
    {
        Node* tail = tail_.exchange(invalid_tail(), std::memory_order_acq_rel);
        while (head != tail) {
            Node* next;
            while ((next = head->next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            signal(*head, kInvalid, site);
            head = next;
        }
        signal(*head, kInvalid, site);
    }

    /// Racy check used by tests.
    bool is_invalid() const
    {
        return tail_.load(std::memory_order_relaxed) == invalid_tail();
    }

  private:
    /// The wait loop of the plain overloads: no hint, no lanes.
    using SpinSite = WaitSite<P, SpinWaiting>;

    static Node* invalid_tail()
    {
        return reinterpret_cast<Node*>(static_cast<std::uintptr_t>(1));
    }

    /// Gives @p node the lane one past its predecessor's (the head of
    /// an empty or retired queue takes the first). Called right after
    /// the tail exchange, before the node is linked in, so the
    /// granter's read of it (ordered after the link) sees this store;
    /// the read of @p pred is unordered with pred's own store and may
    /// be stale, which only picks another lane.
    static void take_lane(Node& node, const Node* pred)
    {
        const bool queued = pred != nullptr && pred != invalid_tail();
        node.lane.store(
            next_queue_lane(queued ? pred->lane.load(std::memory_order_relaxed)
                                   : kGroupLane),
            std::memory_order_relaxed);
    }

    /// Stores @p status into @p n and wakes @p n's lane. The lane is
    /// read first: once the status lands the owner may leave and reuse
    /// the node, so afterwards only site memory is touched.
    template <typename Site>
    static void signal(Node& n, std::uint32_t status, Site& site)
    {
        if constexpr (Site::kParking) {
            const std::uint32_t lane = n.lane.load(std::memory_order_relaxed);
            n.status.store(status, std::memory_order_release);
            site.wake(lane);
        } else {
            n.status.store(status, std::memory_order_release);
        }
    }

    typename P::template Atomic<Node*> tail_{nullptr};
};

}  // namespace reactive
