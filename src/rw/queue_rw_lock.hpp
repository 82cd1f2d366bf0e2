/**
 * @file
 * Fair, locally-spinning queue-based reader-writer lock (Mellor-Crummey
 * & Scott, PPoPP '91), extended with the consensus-object machinery of
 * core/reactive_queue.hpp so it can serve as the high-contention
 * protocol of the reactive rwlock.
 *
 * Readers and writers join a single FIFO queue with fetch&store on the
 * tail and spin on a flag in their *own* queue node, so every waiter
 * polls a distinct cache line. Consecutive readers overlap: a reader
 * that reaches the front propagates the grant to an immediately
 * following reader, and a reader arriving behind an *active* reader
 * joins it without queuing a full wait. Writers are granted alone, in
 * arrival order; readers that arrive after a waiting writer queue
 * behind it (no starvation in either direction).
 *
 * Auxiliary centralized state (`reader_count`, `next_writer`) is
 * touched O(1) times per acquisition — it hands the lock from the last
 * leaving reader to the next writer — so the protocol keeps the queue
 * lock's O(1)-remote-references property that makes it win at high
 * contention.
 *
 * Reactive extensions (unused in standalone operation):
 *  - the tail doubles as the protocol's consensus object, with a
 *    distinguished INVALID sentinel marking the protocol retired;
 *  - waiters can be signalled INVALID instead of GO, aborting to the
 *    dispatcher to retry with the valid protocol;
 *  - a process holding the other protocol's valid consensus object can
 *    capture an INVALID tail (`acquire_invalid_write`), becoming the
 *    queue's writer while validating it, and a holding writer can
 *    retire the queue (`invalidate`), waking every waiter with INVALID.
 *
 * Per-node wait/successor state is packed into one atomic word: the
 * GO / INVALID signal bits and the successor-class bits must be read
 * and written together (a reader registering behind a waiting reader
 * must atomically verify the predecessor is still waiting), which the
 * original expresses as a CAS on a two-field record.
 *
 * Every wait runs through a WaitSite (waiting/reactive/wait_site.hpp):
 * the plain overloads pass an empty spin site, whose await is the
 * historical load-then-pause loop and whose wakes compile away; a
 * parking site makes each grant wake only the lane the granted node
 * parks on. A node's lane is its queue position — one past a writer
 * predecessor's, the same as a reader predecessor's, so a reader group
 * shares one lane and a grant to its head wakes the whole group at once.
 *
 * Every wait (wait_for_signal) also loads the node's own `next` link on
 * each poll until the successor has linked in (prefetch_successor,
 * wait_site.hpp). end_write, end_read and propagate_reader_grant then
 * read the successor from the waiter's own cache, so a handoff pays one
 * remote transfer, the grant, instead of the link miss plus the grant.
 * The load is relaxed and its value discarded; those paths keep their
 * acquire loads of the link (DESIGN.md, "Handoff").
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "rw/rw_concepts.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/**
 * MCS-style fair queue rwlock with local spinning.
 *
 * @tparam P Platform model.
 */
template <Platform P>
class QueueRwLock {
  public:
    // Node state word: signal bits (set by the granting predecessor or
    // the invalidator) plus successor-class bits (set by the successor).
    static constexpr std::uint32_t kGoBit = 1u;
    static constexpr std::uint32_t kInvalidBit = 2u;
    static constexpr std::uint32_t kSuccReaderBit = 4u;
    static constexpr std::uint32_t kSuccWriterBit = 8u;

    enum class Kind : std::uint32_t { kReader = 0, kWriter = 1 };

    /// Per-acquisition queue node; must live from start to end.
    struct Node {
        typename P::template Atomic<Node*> next{nullptr};
        typename P::template Atomic<std::uint32_t> state{0};
        Kind kind = Kind::kReader;  // written by owner before enqueue
        /// Wake lane of the node's queue position, written by the owner
        /// before it links in and read by its granter. Host memory,
        /// relaxed: a stale read only picks another lane.
        std::atomic<std::uint32_t> lane{kGroupLane};
    };

    /// How an acquisition attempt concluded.
    enum class Outcome {
        kAcquiredEmpty,   ///< got the lock, queue was empty (low contention)
        kAcquiredWaited,  ///< got the lock after queuing
        kInvalid,         ///< protocol retired; retry with the other one
    };

    /// @param initially_valid false leaves the tail INVALID (the state a
    ///        reactive algorithm starts its non-designated protocols in).
    explicit QueueRwLock(bool initially_valid = true)
    {
        tail_.store(initially_valid ? nullptr : invalid_tail(),
                    std::memory_order_relaxed);
    }

    // ---- plain blocking interface (RwLock concept) -------------------

    void lock_read(Node& node)
    {
        const Outcome o = start_read(node);
        assert(o != Outcome::kInvalid &&
               "invalidated lock used through the plain interface");
        (void)o;
    }

    void unlock_read(Node& node) { end_read(node); }

    void lock_write(Node& node)
    {
        const Outcome o = start_write(node);
        assert(o != Outcome::kInvalid &&
               "invalidated lock used through the plain interface");
        (void)o;
    }

    void unlock_write(Node& node) { end_write(node); }

    // ---- queue protocol proper ---------------------------------------

    /// Attempts a shared acquisition with @p node.
    Outcome start_read(Node& node)
    {
        SpinSite site;
        AwaitResult wr;
        return start_read(node, site, wr);
    }

    /// Shared acquisition whose blocking wait runs through @p site's
    /// hint-dispatched await on the node's lane; @p wr receives the
    /// wait cost when the wait actually ran. The grant is pushed into
    /// the node by the predecessor, so the predicate is pure — no
    /// acquiring action. Grants and invalidations this call makes
    /// (propagation to a parked reader, a dismantled bogus chain) wake
    /// their lanes on @p site.
    template <typename Site>
    Outcome start_read(Node& node, Site& site, AwaitResult& wr)
    {
        node.kind = Kind::kReader;
        node.next.store(nullptr, std::memory_order_relaxed);
        node.state.store(0, std::memory_order_relaxed);
        Node* pred = tail_.exchange(&node, std::memory_order_acq_rel);
        if (pred == invalid_tail()) {
            // We head a bogus post-retirement chain; dismantle it so
            // anyone queued behind us retries too.
            take_lane(node, nullptr);
            invalidate(&node, site);
            return Outcome::kInvalid;
        }
        Outcome out;
        if (pred == nullptr) {
            take_lane(node, nullptr);
            reader_count_.fetch_add(1, std::memory_order_seq_cst);
            node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
            out = Outcome::kAcquiredEmpty;
        } else if (pred->kind == Kind::kWriter ||
                   reader_must_block(*pred)) {
            // Predecessor is a writer, a still-waiting reader we just
            // registered with (it will propagate the grant), or an
            // invalidated node (the invalidator's chain walk will reach
            // us through the link we are about to publish). Block —
            // on the lane of the reader group ahead, if any (pred's
            // kind must be read before the link frees it to leave).
            const bool in_group = pred->kind == Kind::kReader;
            take_lane(node, pred);
            pred->next.store(&node, std::memory_order_release);
            if (!wait_for_signal(node, site, wr, in_group))
                return Outcome::kInvalid;
            out = Outcome::kAcquiredWaited;
        } else {
            // Predecessor is an *active* reader: join it immediately.
            reader_count_.fetch_add(1, std::memory_order_seq_cst);
            take_lane(node, pred);
            pred->next.store(&node, std::memory_order_release);
            node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
            out = Outcome::kAcquiredWaited;
        }
        propagate_reader_grant(node, site);
        return out;
    }

    /**
     * Non-blocking shared attempt: wins only an *empty* valid queue
     * (tail == nullptr); a busy or retired queue fails immediately as
     * kInvalid. Backs the std try_lock_shared facade — spurious
     * failure under contention is permitted there.
     */
    Outcome try_start_read(Node& node)
    {
        SpinSite site;
        return try_start_read(node, site);
    }

    /// try_start_read whose propagated grant wakes its lane on @p site
    /// (a reader may have registered behind us and parked already).
    template <typename Site>
    Outcome try_start_read(Node& node, Site& site)
    {
        node.kind = Kind::kReader;
        node.next.store(nullptr, std::memory_order_relaxed);
        node.state.store(0, std::memory_order_relaxed);
        node.lane.store(next_queue_lane(kGroupLane),
                        std::memory_order_relaxed);
        Node* expected = nullptr;
        if (!tail_.compare_exchange_strong(expected, &node,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
            return Outcome::kInvalid;
        reader_count_.fetch_add(1, std::memory_order_seq_cst);
        node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
        propagate_reader_grant(node, site);
        return Outcome::kAcquiredEmpty;
    }

    /// Releases a shared acquisition.
    void end_read(Node& node)
    {
        SpinSite site;
        end_read(node, site);
    }

    /// end_read whose writer handoff wakes the writer's lane on @p site.
    template <typename Site>
    void end_read(Node& node, Site& site)
    {
        Node* succ = node.next.load(std::memory_order_acquire);
        Node* expected = &node;
        if (succ != nullptr ||
            !tail_.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
            while ((succ = node.next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            // A waiting writer behind us becomes the reader group's
            // designated heir; the *last* leaving reader wakes it.
            if (node.state.load(std::memory_order_acquire) & kSuccWriterBit)
                next_writer_.store(succ, std::memory_order_seq_cst);
        }
        if (reader_count_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
            Node* w = next_writer_.exchange(nullptr,
                                            std::memory_order_seq_cst);
            if (w != nullptr)
                signal(*w, kGoBit, site);
        }
    }

    /// Attempts an exclusive acquisition with @p node.
    Outcome start_write(Node& node)
    {
        SpinSite site;
        AwaitResult wr;
        return start_write(node, site, wr);
    }

    /// Exclusive acquisition with a site-dispatched wait; see the
    /// start_read overload.
    template <typename Site>
    Outcome start_write(Node& node, Site& site, AwaitResult& wr)
    {
        node.kind = Kind::kWriter;
        node.next.store(nullptr, std::memory_order_relaxed);
        node.state.store(0, std::memory_order_relaxed);
        Node* pred = tail_.exchange(&node, std::memory_order_acq_rel);
        if (pred == invalid_tail()) {
            take_lane(node, nullptr);
            invalidate(&node, site);
            return Outcome::kInvalid;
        }
        if (pred == nullptr) {
            take_lane(node, nullptr);
            if (dekker_claim_empty(node))
                return Outcome::kAcquiredEmpty;
        } else {
            pred->state.fetch_or(kSuccWriterBit, std::memory_order_release);
            take_lane(node, pred);
            pred->next.store(&node, std::memory_order_release);
        }
        return wait_for_signal(node, site, wr) ? Outcome::kAcquiredWaited
                                               : Outcome::kInvalid;
    }

    /**
     * Non-blocking exclusive attempt: fails immediately (kInvalid)
     * unless the queue's tail is empty, the lock is valid, and no
     * reader group is inside. The reader pre-check fails the common
     * contended case without dirtying the tail line, but it is not
     * airtight: between it and the tail CAS a reader can win the
     * empty tail, a second reader can join it, and the joiner — now
     * the tail — can leave, clearing the tail while the first reader
     * is still inside. The Dekker handshake with end_read
     * (dekker_claim_empty) detects that residue, and the attempt then
     * *retracts* the node (retract_or_commit_write) instead of
     * waiting out an application-controlled read-side critical
     * section, so the try blocks only in the narrow case where
     * another thread has already enqueued a blocking acquisition
     * behind it. Backs the std try_lock facade; failure may be
     * spurious.
     */
    Outcome try_start_write(Node& node)
    {
        if (reader_count_.load(std::memory_order_seq_cst) != 0)
            return Outcome::kInvalid;  // readers inside: fail the try
        node.kind = Kind::kWriter;
        node.next.store(nullptr, std::memory_order_relaxed);
        node.state.store(0, std::memory_order_relaxed);
        node.lane.store(next_queue_lane(kGroupLane),
                        std::memory_order_relaxed);
        Node* expected = nullptr;
        if (!tail_.compare_exchange_strong(expected, &node,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
            return Outcome::kInvalid;
        if (dekker_claim_empty(node))
            return Outcome::kAcquiredEmpty;
        return retract_or_commit_write(node);
    }

    /// Releases an exclusive acquisition.
    void end_write(Node& node)
    {
        SpinSite site;
        end_write(node, site);
    }

    /// end_write whose grant wakes the successor's lane on @p site.
    template <typename Site>
    void end_write(Node& node, Site& site)
    {
        Node* succ = node.next.load(std::memory_order_acquire);
        Node* expected = &node;
        if (succ != nullptr ||
            !tail_.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
            while ((succ = node.next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            if (succ->kind == Kind::kReader)
                reader_count_.fetch_add(1, std::memory_order_seq_cst);
            signal(*succ, kGoBit, site);
        }
    }

    // ---- consensus-object entry points (reactive rwlock only) --------

    /**
     * Captures the INVALID tail, making @p node the writer of a freshly
     * validated queue. Must be called only by a process holding the
     * valid consensus object of the other protocol (serialization of
     * protocol changes). Competing bogus chains from late
     * wrong-protocol arrivals are waited out.
     */
    void acquire_invalid_write(Node& node)
    {
        for (;;) {
            node.kind = Kind::kWriter;
            node.next.store(nullptr, std::memory_order_relaxed);
            node.state.store(0, std::memory_order_relaxed);
            Node* pred = tail_.exchange(&node, std::memory_order_acq_rel);
            if (pred == invalid_tail()) {
                take_lane(node, nullptr);
                node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
                return;
            }
            assert(pred != nullptr &&
                   "queue must not be valid-free while another protocol "
                   "is valid");
            take_lane(node, pred);
            // We appended onto a bogus chain; its head will dismantle
            // it and signal us INVALID. Wait it out (spinning: the
            // caller holds the other protocol) and retry.
            pred->next.store(&node, std::memory_order_release);
            SpinSite spin;
            AwaitResult wr;
            (void)wait_for_signal(node, spin, wr);
        }
    }

    /**
     * Retires the queue protocol: swings the tail to INVALID and walks
     * the chain from @p head signalling INVALID to every node. Callers:
     * the queue's holding *writer* performing a protocol change (head =
     * its own node; exclusivity guarantees reader_count == 0 and
     * next_writer == nullptr, so no auxiliary state needs repair), or
     * the internal bogus-chain cleanup.
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
            signal(*head, kInvalidBit, site);
            head = next;
        }
        signal(*head, kInvalidBit, site);
    }

    // ---- racy inspection (tests, monitoring) -------------------------

    bool is_invalid() const
    {
        return tail_.load(std::memory_order_relaxed) == invalid_tail();
    }

    std::uint32_t reader_count() const
    {
        return reader_count_.load(std::memory_order_relaxed);
    }

  private:
    /// White-box access for tests/test_rw.cpp: retract_or_commit_write
    /// resolves a race (the drained-reader-group window) that no
    /// sequence of complete public calls can reproduce on the
    /// deterministic simulator, so its branches are driven directly.
    friend struct QueueRwLockTestPeer;

    /// The wait loop of the plain overloads: no hint, no lanes.
    using SpinSite = WaitSite<P, SpinWaiting>;

    static Node* invalid_tail()
    {
        return reinterpret_cast<Node*>(static_cast<std::uintptr_t>(1));
    }

    /// Gives @p node the wake lane of its queue position: a reader
    /// behind a reader shares its lane, anything else takes the next
    /// one (the head of an empty or retired queue, pred = nullptr, the
    /// first). Called after the tail exchange and right before the
    /// node is linked in, so the granter's read of it (ordered after
    /// the link) sees this store. The read of @p pred is unordered
    /// with pred's own store and may be stale; calling as late as
    /// possible narrows that window, and a stale read only picks
    /// another lane.
    static void take_lane(Node& node, const Node* pred)
    {
        std::uint32_t lane = next_queue_lane(kGroupLane);
        if (pred != nullptr) {
            const std::uint32_t p = pred->lane.load(std::memory_order_relaxed);
            lane = node.kind == Kind::kReader && pred->kind == Kind::kReader
                       ? p
                       : next_queue_lane(p);
        }
        node.lane.store(lane, std::memory_order_relaxed);
    }

    /// Stores the signal @p bit into @p n and wakes @p n's lane. The
    /// lane is read first: once the bit lands the owner may leave and
    /// reuse the node, so afterwards only site memory is touched.
    template <typename Site>
    static void signal(Node& n, std::uint32_t bit, Site& site)
    {
        if constexpr (Site::kParking) {
            const std::uint32_t lane = n.lane.load(std::memory_order_relaxed);
            n.state.fetch_or(bit, std::memory_order_release);
            site.wake(lane);
        } else {
            n.state.fetch_or(bit, std::memory_order_release);
        }
    }

    /// A reader with reader predecessor @p pred atomically registers as
    /// its reader successor, verifying in the same step that @p pred is
    /// still a plain waiting node. True = registered (or @p pred is
    /// invalidated): the caller must block — the grant will arrive from
    /// @p pred's propagation (or the invalidator's chain walk). False =
    /// @p pred is already active: the caller joins it immediately.
    static bool reader_must_block(Node& pred)
    {
        std::uint32_t expected = 0;
        if (pred.state.compare_exchange_strong(expected, kSuccReaderBit,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire))
            return true;
        return (expected & kInvalidBit) != 0;
    }

    /// Propagates this reader's grant to an immediately following
    /// reader (registered via kSuccReaderBit), so consecutive readers
    /// overlap.
    template <typename Site>
    void propagate_reader_grant(Node& node, Site& site)
    {
        if (node.state.load(std::memory_order_acquire) & kSuccReaderBit) {
            Node* succ;
            while ((succ = node.next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            reader_count_.fetch_add(1, std::memory_order_seq_cst);
            signal(*succ, kGoBit, site);
        }
    }

    /**
     * The empty-tail writer handshake: the queue is empty, but a
     * departing reader group may still be draining. Hand ourselves
     * over as the next writer and take the lock only if no reader is
     * left to do the handoff. The store/load and the reader side's
     * fetch_sub/exchange (end_read) are all seq_cst: a Dekker-style
     * store-then-load handshake, so either we observe the readers or
     * the last leaving reader observes our registration. True =
     * self-granted; false = registered, and the grant (or a
     * retraction, for tries) is the caller's problem.
     */
    bool dekker_claim_empty(Node& node)
    {
        next_writer_.store(&node, std::memory_order_seq_cst);
        if (reader_count_.load(std::memory_order_seq_cst) == 0 &&
            next_writer_.exchange(nullptr, std::memory_order_seq_cst) ==
                &node) {
            node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
            return true;
        }
        return false;
    }

    /**
     * Unwinds try_start_write's failed Dekker handshake: a drained
     * reader group is still inside, and a try must not wait out its
     * application-controlled critical section. Withdrawal from
     * next_writer_ must come first — once the last leaving reader has
     * exchanged our node out of it, the GO signal is in flight and
     * the node cannot be retired (a reuse of the node would race with
     * the stale signal), so that case commits: the lock is ours as
     * soon as the handoff lands. After a successful withdrawal the
     * tail CAS can fail only because a successor enqueued behind us;
     * a mid-queue node cannot leave an MCS-style queue, so that case
     * re-registers and takes the normal handoff — blocking, but only
     * when another thread has already blocked behind us anyway.
     */
    Outcome retract_or_commit_write(Node& node)
    {
        SpinSite site;
        AwaitResult wr;
        Node* expected = &node;
        if (!next_writer_.compare_exchange_strong(expected, nullptr,
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_seq_cst))
            return wait_for_signal(node, site, wr) ? Outcome::kAcquiredWaited
                                                   : Outcome::kInvalid;
        expected = &node;
        if (tail_.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed))
            return Outcome::kInvalid;  // fully retracted: clean failed try
        // Committed by a successor: redo the empty-tail handshake.
        if (dekker_claim_empty(node))
            return Outcome::kAcquiredWaited;
        return wait_for_signal(node, site, wr) ? Outcome::kAcquiredWaited
                                               : Outcome::kInvalid;
    }

    /// Waits on the node's own state word through @p site, on the
    /// node's lane; true = GO, false = INVALID. @p in_group: the node
    /// shares its lane with a reader group granted just before it.
    template <typename Site>
    bool wait_for_signal(Node& node, Site& site, AwaitResult& wr,
                         bool in_group = false)
    {
        std::uint32_t s = 0;
        bool linked = false;
        const std::uint32_t lane = node.lane.load(std::memory_order_relaxed);
        const auto signalled = [&] {
            prefetch_successor(node, linked);
            return ((s = node.state.load(std::memory_order_acquire)) &
                    (kGoBit | kInvalidBit)) != 0;
        };
        wr = in_group ? site.await_shared(lane, signalled)
                      : site.await(lane, signalled);
        return (s & kGoBit) != 0;
    }

    // Tail is the hot enqueue point; the reader-count and writer-handoff
    // words are written on different paths — keep each on its own line.
    alignas(kCacheLineSize) typename P::template Atomic<Node*> tail_{nullptr};
    alignas(kCacheLineSize)
        typename P::template Atomic<std::uint32_t> reader_count_{0};
    alignas(kCacheLineSize)
        typename P::template Atomic<Node*> next_writer_{nullptr};
};

}  // namespace reactive
