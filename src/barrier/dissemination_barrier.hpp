/**
 * @file
 * Dissemination barrier with a designated-completer round — the third
 * member of the barrier ProtocolSet (after central_barrier.hpp and
 * combining_tree_barrier.hpp), and the first protocol folded into the
 * reactive framework that does *not* naturally elect a completer.
 *
 * Arrival (Hensgen/Finkel/Manber dissemination): ceil(log2 P) rounds of
 * pairwise flags. In round r, participant i signals participant
 * (i + 2^r) mod P and waits for the signal from (i - 2^r) mod P; after
 * the last round, information from every participant has reached every
 * other, so each participant locally knows the episode is complete.
 * Every flag line is written by exactly one fixed partner and read by
 * exactly one participant (two sharers), all rounds proceed in
 * parallel across participants, and the critical path is log2 P flag
 * hand-offs with **no contended RMW anywhere** — the regime where even
 * the combining tree's fan-in-k serialization is overhead.
 *
 * Flags are monotone per-round episode counters (the signal for
 * episode e is "counter reached e"), so neighbouring episodes can
 * overlap without sense bookkeeping and a signal can never be
 * consumed by the wrong episode.
 *
 * The designated-completer round: pure dissemination releases every
 * participant the instant its own rounds complete — there is no single
 * process that finishes "last", which is exactly what the reactive
 * framework's episode-consensus argument needs (reactive_barrier.hpp).
 * This implementation therefore *designates* participant 0 as the
 * completer and appends a release round: when participant 0 completes
 * its log2 P rounds it provably knows all P participants have arrived
 * (its final wait transitively depends on every participant's round-0
 * signal), so it is a valid consensus process; every other participant,
 * after finishing its own rounds, waits for a per-participant release
 * flag that the completer propagates through a fan-out-k forwarding
 * tree over participant ids (each release line again has exactly two
 * sharers, and the wave is O(log P) deep). Between the completer's
 * rounds completing and its release wave, every other participant
 * either is still inside its arrival rounds or is parked at its release
 * flag — in both cases it cannot start the next episode, which restores
 * the quiescence window the consensus step runs in. The release round
 * costs one extra O(log P) wave per episode: that is the price of
 * giving the protocol a consensus point, and it is charged to the
 * static protocol as well (this class *is* the slot the reactive
 * barrier runs), so the reactive crossover tables compare like with
 * like.
 *
 * Reactive signal hook: the completer, and only the completer, times
 * its own rounds with two local clock reads. Its rounds wait out every
 * participant it depends on, so a long rounds latency means a
 * straggler dominated the episode (the designated completer's skew
 * signal, reactive_barrier.hpp); its identity is fixed and says
 * nothing, which `fixed_completer` in the result declares.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "barrier/barrier_concepts.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"

namespace reactive {

/**
 * Dissemination barrier (designated-completer variant).
 *
 * @tparam P Platform model.
 */
template <Platform P>
class DisseminationBarrier {
    struct alignas(kCacheLineSize) Line {
        typename P::template Atomic<std::uint64_t> v{0};
    };

  public:
    /// Fan-out of the completer's release-forwarding tree.
    static constexpr std::uint32_t kReleaseFanOut = 4;

    /**
     * Per-participant state; reuse the same Node across episodes. The
     * participant identity is auto-assigned on first arrival (as in the
     * combining tree); the node carries the participant's episode
     * count, which all flags are matched against.
     *
     * A barrier instance supports at most `participants()` distinct
     * Nodes over its lifetime: handing a retired participant's slot to
     * a fresh Node (thread churn, successive thread teams) is not
     * supported — a reassigned id would inherit the retiree's episode
     * position mid-stream — and arrive_only aborts rather than wrap
     * into a duplicate id.
     */
    struct Node {
        std::uint32_t id = 0;
        bool assigned = false;
        std::uint64_t episode = 0;  ///< completed-arrival count
    };

    explicit DisseminationBarrier(std::uint32_t participants)
        : participants_(participants),
          rounds_(rounds_for(participants)),
          flags_(static_cast<std::size_t>(participants) * rounds_),
          release_(participants)
    {
    }

    /// BarrierProtocolSlot construction (core/protocol_set.hpp).
    DisseminationBarrier(std::uint32_t participants, BarrierSlotOptions)
        : DisseminationBarrier(participants)
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

    std::uint32_t rounds() const { return rounds_; }

    // ---- decomposed slot interface (reactive dispatcher) -------------

    /**
     * Runs the log2 P signalling rounds. `last` is true for the
     * designated completer (participant 0), which then holds the
     * episode consensus — all other participants are inside their
     * rounds or parked at their release flag — and must eventually
     * call release_episode(); everyone else calls wait_episode().
     */
    BarrierEpisode arrive_only(Node& n)
    {
        if (!n.assigned) {
            n.id = next_id_.fetch_add(1, std::memory_order_relaxed);
            // Oversubscription (more distinct Nodes than participants,
            // e.g. thread churn) would wrap into a duplicate id — two
            // designated completers among them — and silently corrupt
            // the flag counters. Fail fast instead.
            if (n.id >= participants_)
                std::abort();
            n.assigned = true;
        }
        const std::uint64_t e = ++n.episode;
        const bool completer = n.id == 0;
        const std::uint64_t t0 = completer ? P::now() : 0;
        for (std::uint32_t r = 0; r < rounds_; ++r) {
            const std::uint32_t partner =
                (n.id + (1u << r)) % participants_;
            flags_[flag_index(partner, r)].v.fetch_add(
                1, std::memory_order_acq_rel);
            auto& mine = flags_[flag_index(n.id, r)].v;
            while (mine.load(std::memory_order_acquire) < e)
                P::pause();
        }
        BarrierEpisode ep;
        ep.last = completer;
        ep.fixed_completer = true;
        if (ep.last)
            ep.arrive_cycles = P::now() - t0;
        return ep;
    }

    /// Waits for the completer's release wave, then forwards it to this
    /// participant's children in the release tree.
    void wait_episode(Node& n)
    {
        auto& mine = release_[n.id].v;
        while (mine.load(std::memory_order_acquire) < n.episode)
            P::pause();
        forward_release(n.id, n.episode);
    }

    /// Completes the episode: starts the release wave. Only the
    /// designated completer may call this, after any in-consensus work.
    void release_episode(Node& n) { forward_release(n.id, n.episode); }

  private:
    static std::uint32_t rounds_for(std::uint32_t participants)
    {
        std::uint32_t r = 0;
        while ((std::uint64_t{1} << r) < participants)
            ++r;
        return r;
    }

    std::size_t flag_index(std::uint32_t id, std::uint32_t r) const
    {
        return static_cast<std::size_t>(id) * rounds_ + r;
    }

    /// Release stores carry release order so the chain from the
    /// completer's consensus work (the mode store) reaches every
    /// participant before its next arrival.
    void forward_release(std::uint32_t id, std::uint64_t episode)
    {
        for (std::uint32_t c = kReleaseFanOut * id + 1;
             c <= kReleaseFanOut * id + kReleaseFanOut; ++c) {
            if (c >= participants_)
                break;
            release_[c].v.store(episode, std::memory_order_release);
        }
    }

    const std::uint32_t participants_;
    const std::uint32_t rounds_;
    /// flags_[i * rounds + r]: episode count of round-r signals to
    /// participant i; written only by i's fixed round-r partner.
    std::vector<Line> flags_;
    /// release_[i]: episodes released to participant i; written only by
    /// i's parent in the fan-out tree.
    std::vector<Line> release_;
    typename P::template Atomic<std::uint32_t> next_id_{0};
};

}  // namespace reactive
