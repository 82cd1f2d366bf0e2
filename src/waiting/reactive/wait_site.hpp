/**
 * @file
 * WaitSite: the per-object (or per-socket) parking point that composes
 * the wait_select.hpp hint with waiting/wait.hpp's algorithms.
 *
 * A reactive primitive is parameterized on a *Waiting* tag:
 *
 *  - `SpinWaiting` (the default) instantiates the empty specialization:
 *    zero storage (`[[no_unique_address]]`), every method a no-op or a
 *    plain spin. Primitives run one wait loop for both tags, and on
 *    this site `await(pred, poll)` is `while (!pred()) poll();` — the
 *    hand-written spin loop — so the park-free bit-identity argument
 *    reduces to "the type is empty and its await is the spin loop".
 *  - `ParkWaiting` holds kWakeLanes of the platform's WaitQueue
 *    eventcounts (platform/parker.hpp futex / condvar, sim/machine.hpp
 *    SimWaitQueue), the holder-published hint word, and the wake
 *    timestamp used to measure the block-cost class.
 *
 * Wake lanes. A parking site is not one eventcount but kWakeLanes of
 * them. Lane 0 (kGroupLane) holds the *group* waiters — threads polling
 * a shared word (the TTS word, the simple rwlock word, a barrier sense)
 * whose release may satisfy any of them, so a release there broadcasts
 * the lane. Lanes 1..15 hold *queue* waiters: a queue grant satisfies
 * exactly one node (or one reader group), so the granter wakes only the
 * lane that node parks on. A waiter's lane comes from its queue
 * position — the predecessor's lane plus one, wrapping over 1..15,
 * while consecutive readers inherit their reader predecessor's lane —
 * never from a node address, so one seed always gives one schedule.
 * Lanes are an optimisation only: two waiters that land on one lane
 * (the wrap, or a stale position read) cost a spurious wakeup, never
 * correctness.
 *
 * Safety (the consensus-point argument, restated for parking):
 *
 *  - Sites are **object-level** (or per-socket inside CohortQueue) and
 *    strictly outlive every waiter's queue node, so a waker never
 *    touches releasable memory: it reads the node's lane, stores the
 *    grant into the node (exactly as before), then notifies the *site*.
 *    The lane is read before the grant store because the granted owner
 *    may leave and reuse its node the instant the store lands.
 *  - Every condition-changing store in a parking configuration is
 *    followed, in the same thread, by `wake(lane)` on the lane the
 *    satisfied waiter parks on. `notify_all` bumps the eventcount epoch
 *    with a seq_cst RMW before consulting the waiter count, and
 *    `prepare_wait` increments the waiter count with a seq_cst RMW
 *    before re-checking the predicate — the Dekker store/load pairing
 *    that makes a lost wakeup impossible (parker.hpp documents the
 *    futex and condvar variants, machine.cpp the simulated one).
 *  - Waiters woken by a lane notify re-check *their own* predicate and
 *    re-park if it still fails (wait_round's eventcount loop). A queue
 *    grant wakes one lane, so its cost is one reenable per waiter that
 *    lane holds — one for a writer, the whole group for readers, who
 *    share a lane so that a granted group wakes together instead of
 *    one reader per propagation hop (await_shared keeps a reader woken
 *    ahead of its own grant polling instead of re-parking). An empty
 *    notify is one epoch bump plus a waiter-count load — the syscall is
 *    skipped.
 *
 * Hint staleness is bounded in both directions. A waiter that parked
 * under a stale hint is still woken by the release that can satisfy it
 * (the next shared-word release on the group lane, its own grant on a
 * queue lane), re-checks, and — because `await` parks one round at a
 * time (wait_round) — re-reads the hint before re-parking. A waiter
 * *spinning* under a stale hint would never be told to park — no event
 * interrupts a spin loop — so `await` runs spin hints in bounded
 * slices and re-reads the hint between slices. Both directions matter
 * to mode *probing*: a trial park hint reaches spinning waiters within
 * a slice, and retracting it un-parks them within one wakeup. The
 * measured wake latency (release-timestamp -> running) is reported to
 * the caller, which feeds it to the WaitSelectPolicy only once it is
 * the holder — keeping the block-cost estimator single-writer.
 *
 * Deschedule evidence. Parking pays the block cost to free the
 * waiter's processor, which helps only if another thread wants it. A
 * spin slice times each poll: when the clock moved further between
 * two polls than the poll itself paused (a backoff poll returns the
 * delay it drew; a plain pause counts as zero), by more than the
 * platform's `deschedule_gap`, the waiter was descheduled mid-spin,
 * and `AwaitResult::descheduled` says so. Like the wake latency, the
 * flag reaches the wait policy only through the winner's consensus
 * step.
 */
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>

#include "platform/platform_concept.hpp"
#include "trace/trace.hpp"
#include "waiting/reactive/wait_select.hpp"
#include "waiting/wait.hpp"

namespace reactive {

/// Waiting tag: keep the pre-subsystem pure-spin slow paths (default).
struct SpinWaiting {};

/// Waiting tag: hint-dispatched spin / two-phase / park slow paths.
struct ParkWaiting {};

/// What one dispatched wait cost (returned by WaitSite::await).
struct AwaitResult {
    std::uint64_t wait_cycles = 0;   ///< wait start -> predicate true
    std::uint64_t wake_latency = 0;  ///< release stamp -> running (0 = n/a)
    bool blocked = false;            ///< the wait reached the parked phase
    /// A spin poll gap outlasted the poll's own pause by more than the
    /// platform's deschedule_gap: the waiter lost its processor to
    /// another thread while it spun.
    bool descheduled = false;
};

template <Platform P, typename Waiting = SpinWaiting>
class WaitSite;

/// Wake lanes per parking site: the group lane plus 15 queue lanes.
inline constexpr std::uint32_t kWakeLanes = 16;
/// The lane of waiters polling a shared word (TTS, simple rwlock,
/// barrier sense); every plain await() parks here.
inline constexpr std::uint32_t kGroupLane = 0;

/// The queue lane of the node behind one on lane @p pred_lane: the
/// next queue position, wrapping over lanes 1..kWakeLanes-1 (an empty
/// queue's head, pred_lane = kGroupLane, takes lane 1).
constexpr std::uint32_t next_queue_lane(std::uint32_t pred_lane)
{
    return pred_lane % (kWakeLanes - 1) + 1;
}

/**
 * Handoff prefetch, called by a queue waiter's predicate on every poll:
 * loads the waiter's own `next` link until it reads non-null. The
 * waiter's release then finds its successor in cache instead of paying
 * that miss between two holders (DESIGN.md, "Handoff"). Relaxed, value
 * discarded: the releases keep their acquire loads of the link.
 */
template <typename Node>
void prefetch_successor(const Node& node, bool& linked)
{
    if (!linked)
        linked = node.next.load(std::memory_order_relaxed) != nullptr;
}

/**
 * Empty spin site: no storage, no hint, a plain pause loop. Primitives
 * instantiated with SpinWaiting run their slow-path loops through it,
 * and the queue protocols' and CentralBarrier's plain overloads wait
 * through one of these: its await is the load-then-pause loop and its
 * wake a no-op.
 */
template <Platform P>
class WaitSite<P, SpinWaiting> {
  public:
    static constexpr bool kParking = false;

    template <typename Pred>
    AwaitResult await(Pred&& pred)
    {
        return await(static_cast<Pred&&>(pred), [] { P::pause(); });
    }

    template <typename Pred, typename Poll>
        requires std::invocable<Pred&>
    AwaitResult await(Pred&& pred, Poll&& poll)
    {
        while (!pred())
            poll();
        return {};
    }

    template <typename Pred>
    AwaitResult await(std::uint32_t /*lane*/, Pred&& pred)
    {
        return await(static_cast<Pred&&>(pred));
    }

    template <typename Pred>
    AwaitResult await_shared(std::uint32_t /*lane*/, Pred&& pred)
    {
        return await(static_cast<Pred&&>(pred));
    }

    void wake(std::uint32_t /*lane*/ = kGroupLane) {}
    void set_trace_identity(trace::ObjectClass, std::uint32_t) {}
    void set_hint(std::uint32_t) {}
    std::uint32_t hint() const { return 0; }
    std::uint32_t waiters() const { return 0; }
};

/**
 * Parking site: the platform eventcount plus the holder-published wait
 * hint. See file header for the safety argument.
 */
template <Platform P>
class WaitSite<P, ParkWaiting> {
  public:
    static constexpr bool kParking = true;

    /// Polls per spin slice before the hint is re-read. Large enough
    /// that the relaxed hint load is noise against the polls, small
    /// enough that a just-published park hint lands promptly.
    static constexpr std::uint32_t kSpinSlice = 64;

    /// Cycle bound on a spin slice. The poll count alone does not
    /// bound a slice in *time*: a pacing poll (the TTS path's
    /// exponential backoff) stretches a single poll up to the backoff
    /// cap, so 64 polls can outlast the entire wait and the hint would
    /// never be re-read — a waiter that entered under a stale spin
    /// hint would sit out a park hint published one release later.
    /// Half the default backoff cap: once backoff saturates the hint
    /// is re-read roughly every pause, and the extra relaxed load is
    /// noise against a multi-thousand-cycle delay.
    static constexpr std::uint64_t kSpinSliceCycles = 4096;

    /**
     * Waits on the group lane until @p pred() is true, using the
     * waiting algorithm the current hint names. The predicate may
     * acquire (TTS exchange, try_lock_read) and must be abortable via
     * captured flags — it is re-evaluated across spurious wakeups.
     * Standard eventcount contract: wakers make the condition true
     * *before* wake().
     *
     * @p poll paces the spin-mode polling loop. Callers whose
     * predicate touches a *contended* line (TTS exchange) must pass
     * their spin build's backoff here — spin mode is supposed to
     * reproduce the spin build, and polling a contended line at pause
     * cadence is an invalidation storm the spin build does not have.
     * Local-flag waits (queue nodes) use the plain-pause default.
     * A pacing poll returns the cycles it paused on purpose, so the
     * spin slices' deschedule test does not mistake a long backoff
     * for lost processor time.
     */
    template <typename Pred>
    AwaitResult await(Pred&& pred)
    {
        return await_on(kGroupLane, pred, [] { P::pause(); return 0u; }, false);
    }

    template <typename Pred, typename Poll>
        requires std::invocable<Pred&>
    AwaitResult await(Pred&& pred, Poll&& poll)
    {
        return await_on(kGroupLane, pred, poll, false);
    }

    /// Queue-node wait on @p lane (1..kWakeLanes-1, from the node's
    /// queue position): a local-flag predicate woken by the grant or
    /// invalidation of the node itself. A wake that leaves it false is
    /// a lane collision, and the waiter re-parks at once.
    template <typename Pred>
    AwaitResult await(std::uint32_t lane, Pred&& pred)
    {
        return await_on(lane, pred, [] { P::pause(); return 0u; }, false);
    }

    /// await(lane, pred) for a node sharing its lane with the nodes
    /// granted just before it — a reader queued behind a waiting
    /// reader. The group's wake reaches it before its own grant, which
    /// follows one propagation hop per reader ahead; re-parking would
    /// cost each reader another unload/reenable/reload round and turn
    /// the group wake back into a serial cascade, so after a wake that
    /// leaves the predicate false it polls for up to one spin slice
    /// before parking again.
    template <typename Pred>
    AwaitResult await_shared(std::uint32_t lane, Pred&& pred)
    {
        return await_on(lane, pred, [] { P::pause(); return 0u; }, true);
    }

    /// Stamps the wake timestamp and wakes every waiter parked on
    /// @p lane. Callers: any thread that just made the predicate of a
    /// waiter on that lane true — a shared-word release for the group
    /// lane, a grant or invalidation store for a queue node's lane.
    void wake(std::uint32_t lane = kGroupLane)
    {
        typename P::WaitQueue& q = lanes_[lane];
        if constexpr (trace::kCompiled) {
            if (trace::enabled() &&
                trace_cls_ != trace::ObjectClass::kNone) [[unlikely]] {
                const std::uint32_t w = q.waiters();
                if (w > 0)
                    trace::emit(trace::EventType::kWake, trace_cls_,
                                trace_object_, 0, 0, P::now(), w, lane);
            }
        }
        if (q.waiters() == 0) {
            // Nobody is advertised (the common spin-mode release).
            // The stamp is consumed only by woken waiters' latency
            // samples, so skip the shared-line write either way.
            //
            // In the simulator the count is an exact sequential read
            // that includes waiters still between prepare_wait and
            // commit_wait (machine.hpp), so skipping the notify —
            // epoch bump and all — cannot strand anyone: a later
            // prepare re-tests the predicate after our condition
            // store. This makes a spin-mode release charge exactly
            // what the SpinWaiting build charges; without it the
            // empty-notify wait_queue_op is a standing cost wedge
            // between the two builds.
            //
            // Natively the count is an advisory relaxed load that
            // cannot carry the Dekker pairing (a releaser's condition
            // store may still sit in the store buffer when it reads
            // the count, while a preparing waiter's predicate check
            // misses the store). Fall through: notify_all's internal
            // seq_cst epoch bump + waiter re-check is the lose-free
            // path, and it already elides the expensive wake.
            if constexpr (requires { requires P::deterministic_simulation; })
                return;
        } else {
            release_ts_.store(P::now(), std::memory_order_relaxed);
        }
        q.notify_all();
    }

    /// Names the owning object in the kWake events wake() emits
    /// (tracing builds; host memory only, so the schedule cannot
    /// move). A site never named emits none.
    void set_trace_identity(trace::ObjectClass cls, std::uint32_t object)
    {
        trace_cls_ = cls;
        trace_object_ = object;
    }

    /// Holder-only hint publication (relaxed: the hint is advisory).
    /// Publish-on-change: every spinning waiter holds the hint line
    /// shared, and an unconditional store would invalidate all of
    /// them on every release; the holder's re-read is a cache hit.
    void set_hint(std::uint32_t packed)
    {
        if (hint_.load(std::memory_order_relaxed) != packed)
            hint_.store(packed, std::memory_order_relaxed);
    }

    std::uint32_t hint() const
    {
        return hint_.load(std::memory_order_relaxed);
    }

    /// Advisory parked-waiter count over every lane — the queue-depth
    /// signal the holder reads for free at release (racy relaxed loads).
    std::uint32_t waiters() const
    {
        std::uint32_t n = 0;
        for (const auto& q : lanes_)
            n += q.waiters();
        return n;
    }

  private:
    /// The post-wake poll of await_shared: true once @p pred holds,
    /// false after one spin slice.
    template <typename Pred, typename Poll>
    static bool poll_after_wake(Pred& pred, Poll& poll)
    {
        const std::uint64_t end = P::now() + kSpinSliceCycles;
        while (P::now() < end) {
            if (pred())
                return true;
            poll();
        }
        return pred();
    }

    template <typename Pred, typename Poll>
    AwaitResult await_on(std::uint32_t lane, Pred& pred, Poll&& poll,
                         bool repoll)
    {
        typename P::WaitQueue& queue = lanes_[lane];
        AwaitResult r;
        const std::uint64_t t0 = P::now();
        for (;;) {
            const WaitHint h =
                unpack_wait_hint(hint_.load(std::memory_order_relaxed));
            const WaitingAlgorithm alg = to_algorithm(h);
            if (alg.kind == WaitKind::kAlwaysSpin) {
                // Spin in a bounded slice, then re-read the hint: a
                // park hint published mid-wait must reach waiters that
                // entered under the old spin hint (nothing else ever
                // interrupts a spin loop). The slice is bounded both
                // in polls and in cycles — see kSpinSliceCycles. The
                // same clock reads time each poll for the deschedule
                // test (file header).
                bool satisfied = false;
                std::uint64_t last = P::now();
                const std::uint64_t slice_end = last + kSpinSliceCycles;
                for (std::uint32_t i = 0; i < kSpinSlice; ++i) {
                    if (pred()) {
                        satisfied = true;
                        break;
                    }
                    const std::uint64_t paused = poll();
                    const std::uint64_t now = P::now();
                    if (now > last + paused + P::deschedule_gap)
                        r.descheduled = true;
                    last = now;
                    if (now >= slice_end)
                        break;
                }
                if (satisfied)
                    break;
                continue;
            }
            // Two-phase and park proceed one round (poll phase + one
            // park episode) at a time, re-reading the hint between
            // rounds: a retracted park hint must reach waiters that a
            // broadcast woke with their predicate still false, or a
            // transient park mode would strand them park-bound until
            // they won.
            const WaitRound round = wait_round<P>(queue, pred, alg);
            if (round.blocked)
                r.blocked = true;
            if (round.satisfied)
                break;
            if (round.blocked && repoll && poll_after_wake(pred, poll))
                break;
        }
        r.wait_cycles = P::now() - t0;
        if (r.blocked) {
            // Block-cost-class sample: the span from the waking
            // release's stamp to now. Meaningful only when this wake
            // chains directly off that release; a stale stamp (we woke
            // late, several releases ago) only inflates the sample
            // toward the real scheduling delay, which is the quantity
            // being estimated.
            const std::uint64_t ts =
                release_ts_.load(std::memory_order_relaxed);
            const std::uint64_t now = P::now();
            if (ts != 0 && now > ts)
                r.wake_latency = now - ts;
        }
        return r;
    }

    typename P::WaitQueue lanes_[kWakeLanes];
    typename P::template Atomic<std::uint32_t> hint_{0};
    typename P::template Atomic<std::uint64_t> release_ts_{0};
    trace::ObjectClass trace_cls_ = trace::ObjectClass::kNone;
    std::uint32_t trace_object_ = 0;
};

}  // namespace reactive

