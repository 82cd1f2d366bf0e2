/**
 * @file
 * Centralized sense-reversing barrier (the spin-only sibling of
 * waiting/sync/barrier.hpp, decomposed for the reactive dispatcher).
 *
 * Arrivals decrement one shared counter; the last arrival resets the
 * counter and flips a shared sense word that all waiters poll. The
 * protocol is optimal at low participant counts and at skewed arrivals:
 * an arrival is a single fetch&sub, and a straggler's critical path is
 * one RMW plus one store. Under bunched arrivals at high participant
 * counts both ends collapse — P decrements serialize at the counter's
 * home directory, and the release pays one sequential invalidation plus
 * one refill per waiter on the sense line — which is the regime the
 * combining-tree protocol (combining_tree_barrier.hpp) exists for.
 *
 * Reactive hooks: arrival is decomposed into arrive_only() /
 * wait_episode() / release_episode() (the uniform BarrierProtocolSlot
 * interface) so the reactive barrier can interpose its consensus step
 * between detecting the last arrival and releasing the episode. The
 * decomposition adds no shared-memory operation and reads no clock:
 * the completer's signal is its own identity (the last arrival), so
 * the reactive barrier parked here executes exactly the standalone
 * barrier's memory operations.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "barrier/barrier_concepts.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/**
 * Centralized sense-reversing spin barrier.
 *
 * @tparam P Platform model.
 */
template <Platform P>
class CentralBarrier {
  public:
    /// Per-participant state; reuse the same Node across episodes.
    struct Node {
        std::uint32_t sense = 1;
        /// Sense of the episode the node is currently arriving at
        /// (recorded by arrive_only for wait/release).
        std::uint32_t episode_sense = 0;
    };

    /// @param participants fixed episode size.
    explicit CentralBarrier(std::uint32_t participants)
        : participants_(participants)
    {
        count_.store(participants, std::memory_order_relaxed);
        sense_->store(0, std::memory_order_relaxed);
    }

    /// BarrierProtocolSlot construction (core/protocol_set.hpp).
    CentralBarrier(std::uint32_t participants, BarrierSlotOptions)
        : CentralBarrier(participants)
    {
    }

    // ---- plain blocking interface (Barrier concept) ------------------

    void arrive(Node& n)
    {
        if (arrive_only(n).last)
            release_episode(n);
        else
            wait_episode(n);
    }

    std::uint32_t participants() const { return participants_; }

    // ---- decomposed slot interface (reactive dispatcher) -------------

    /// Signals this participant's arrival (flips the node's sense).
    /// `last` in the result means the caller holds the episode
    /// consensus and must eventually call release_episode(); everyone
    /// else calls wait_episode().
    BarrierEpisode arrive_only(Node& n)
    {
        BarrierEpisode a;
        n.episode_sense = n.sense;
        n.sense ^= 1u;
        a.last = count_.fetch_sub(1, std::memory_order_acq_rel) == 1;
        return a;
    }

    /// Spins until the node's episode is released (the site wait below
    /// on an empty spin site: load, then pause).
    void wait_episode(Node& n)
    {
        WaitSite<P, SpinWaiting> site;
        AwaitResult wr;
        wait_episode(n, site, wr);
    }

    /// Site-dispatched twin of wait_episode (the reactive barrier's
    /// waiting axis): the wait runs through @p site's hint-dispatched
    /// await, so it may spin, spin-then-park, or park. The predicate is
    /// pure — the completer flips the shared sense in release_episode
    /// and the composing barrier broadcasts on the site afterwards.
    template <typename Site, typename Result>
    void wait_episode(Node& n, Site& site, Result& wr)
    {
        wr = site.await([&] {
            return sense_->load(std::memory_order_acquire) ==
                   n.episode_sense;
        });
    }

    /// Completes the episode: resets the counter for the next episode
    /// and flips the shared sense, releasing all waiters. Only the last
    /// arriver may call this, after any in-consensus work.
    void release_episode(Node& n)
    {
        count_.store(participants_, std::memory_order_relaxed);
        sense_->store(n.episode_sense, std::memory_order_release);
    }

  private:
    const std::uint32_t participants_;
    // The counter takes the arrivals; the sense word, which waiters
    // poll, lives on its own mostly-read line (Section 3.2.6).
    typename P::template Atomic<std::uint32_t> count_{0};
    CacheAligned<typename P::template Atomic<std::uint32_t>> sense_;
};

}  // namespace reactive
