/**
 * @file
 * Combining-tree barrier: fan-in-k arrival tree with sense-reversing
 * wakeup propagated down the arrival paths (the scalable half of the
 * reactive barrier, in the lineage of Mellor-Crummey & Scott's tree
 * barrier and the thesis' combining tree, Section 3.1.2).
 *
 * Arrival: participants are assigned to leaves k at a time; each node
 * counts its arrivals down, and the last arrival at a node proceeds to
 * the parent, so exactly one process reaches the root with the episode
 * complete. Every contended line is shared by at most k processes, so
 * arrivals that would serialize at a central counter proceed in
 * parallel across subtrees.
 *
 * Wakeup: each non-last arrival waits on the sense word of the node
 * where it stopped. The process that climbed past a node is the unique
 * process responsible for flipping that node's sense; on release it
 * flips the nodes of its own climb path (highest first) and every woken
 * waiter does the same for its path, so the wakeup fans out in
 * O(log_k P) steps instead of one O(P) invalidation + refill storm on a
 * central sense line.
 *
 * Episode recycling: the last arrival at a node resets the node's
 * counter *before* climbing. This is safe because none of the node's
 * other arrivals can start the next episode until the current one is
 * released, which happens strictly after the climb; the
 * release/acquire cascade of sense flips then publishes the resets to
 * every participant before its next arrival.
 *
 * Reactive hooks: the root completer is the barrier's natural consensus
 * point. Its signal is its own identity (under a straggler, the
 * straggler climbs to the root every episode), so the climb performs
 * the same memory operations, and reads no clock, whether or not a
 * reactive barrier is listening.
 *
 * Topology-aware placement (`BarrierSlotOptions::sockets >= 2`):
 * participants are assigned leaf ids from their own socket's contiguous
 * range (the platform names the socket, TopologyAwarePlatform), fan-in
 * groups are carved from each socket's population so no group ever
 * straddles a socket boundary, and per-socket subtrees combine only in
 * the top levels of the tree. Every contended line below the socket
 * roots is then shared exclusively within one socket — the climb's
 * remote misses are all intra-socket transfers — and only the O(log
 * sockets) top levels pay cross-socket traffic, instead of every level
 * of a blind round-robin layout. The default (one socket) reproduces
 * the historical topology-blind tree bit-for-bit.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "barrier/barrier_concepts.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"

namespace reactive {

/**
 * Fan-in-k combining-tree barrier.
 *
 * @tparam P Platform model.
 */
template <Platform P>
class CombiningTreeBarrier {
    struct alignas(kCacheLineSize) TreeNode {
        // Arrival state: touched by at most fan_in arrivals per episode.
        typename P::template Atomic<std::uint32_t> count{0};
        std::uint32_t init_count = 0;
        TreeNode* parent = nullptr;
        // Wakeup state on its own line: waiters poll it while the next
        // episode's arrivals already hammer the count word.
        CacheAligned<typename P::template Atomic<std::uint32_t>> sense;
    };

  public:
    /// Deepest possible tree (fan-in >= 2, 2^32 participants).
    static constexpr std::uint32_t kMaxDepth = 32;

    /**
     * Per-participant state; reuse the same Node across episodes. The
     * leaf identity is auto-assigned on first arrival, so a fixed set
     * of `participants()` Nodes (one per participant, each arriving
     * every episode) needs no manual numbering. At most
     * `participants()` distinct Nodes are supported over the barrier's
     * lifetime: replacing a retired participant's Node (thread churn,
     * successive thread teams) aborts rather than wrap into a
     * duplicate id (see the dissemination barrier's Node for why).
     */
    struct Node {
        std::uint32_t id = 0;
        bool assigned = false;
        std::uint32_t sense = 1;
        // Episode-local climb record (rebuilt by every arrival).
        std::uint32_t depth = 0;
        TreeNode* path[kMaxDepth] = {};
        TreeNode* stop = nullptr;
    };

    /// BarrierProtocolSlot construction (core/protocol_set.hpp).
    CombiningTreeBarrier(std::uint32_t participants, BarrierSlotOptions opts)
        : CombiningTreeBarrier(participants, opts.fan_in, opts.sockets,
                               opts.cores_per_socket)
    {
    }

    /**
     * @param participants     fixed episode size.
     * @param fan_in           arrivals combined per tree node (>= 2).
     * @param sockets          topology-aware placement when >= 2 (see
     *                         BarrierSlotOptions).
     * @param cores_per_socket participants per socket (0 = balanced).
     */
    explicit CombiningTreeBarrier(std::uint32_t participants,
                                  std::uint32_t fan_in = 4,
                                  std::uint32_t sockets = 1,
                                  std::uint32_t cores_per_socket = 0)
        : participants_(participants),
          fan_in_(fan_in < 2 ? 2 : fan_in),
          sockets_(sockets < 1 ? 1
                               : (sockets > participants && participants > 0
                                      ? participants
                                      : sockets)),
          leaf_of_(participants)
    {
        build_segments(cores_per_socket);
        build_tree();
        if (sockets_ > 1) {
            socket_next_ = std::make_unique<
                CacheAligned<typename P::template Atomic<std::uint32_t>>[]>(
                sockets_);
            for (std::uint32_t s = 0; s < sockets_; ++s)
                socket_next_[s]->store(0, std::memory_order_relaxed);
        }
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

    std::uint32_t fan_in() const { return fan_in_; }

    // ---- decomposed slot interface (reactive dispatcher) -------------

    /**
     * Climbs the arrival tree, recycling each fully-arrived node for
     * the next episode on the way. `last` in the result means this
     * process completed the episode at the root (it then holds the
     * episode consensus and must eventually call release_episode());
     * otherwise the caller waits via wait_episode().
     */
    BarrierEpisode arrive_only(Node& n)
    {
        if (!n.assigned) {
            // Oversubscription would wrap into a duplicate id and
            // silently corrupt the per-leaf arrival counts; assign_id
            // fails fast (same discipline as the dissemination
            // barrier).
            n.id = assign_id();
            n.assigned = true;
        }
        n.sense ^= 1u;
        n.depth = 0;
        TreeNode* t = &nodes_[leaf_of_[n.id]];
        for (;;) {
            const std::uint32_t prev =
                t->count.fetch_sub(1, std::memory_order_acq_rel);
            if (prev != 1) {
                n.stop = t;
                return BarrierEpisode{};
            }
            // Last arrival at this node: recycle it before climbing
            // (see file comment).
            t->count.store(t->init_count, std::memory_order_relaxed);
            assert(n.depth < kMaxDepth);
            n.path[n.depth++] = t;
            if (t->parent == nullptr) {
                BarrierEpisode ep;
                ep.last = true;
                return ep;
            }
            t = t->parent;
        }
    }

    /// Spins at the stop node, then propagates the wakeup down this
    /// process' own climb path.
    void wait_episode(Node& n)
    {
        const std::uint32_t my_sense = n.sense ^ 1u;
        while (n.stop->sense->load(std::memory_order_acquire) != my_sense)
            P::pause();
        wake_path(n, my_sense);
    }

    /// Completes the episode: flips the senses along the completer's
    /// climb path (root first), cascading the wakeup down the tree.
    /// Only the root completer may call this, after any in-consensus
    /// work.
    void release_episode(Node& n) { wake_path(n, n.sense ^ 1u); }

  private:
    /**
     * Distributes the participant ids over the sockets: contiguous
     * ranges of cores_per_socket ids per socket (balanced when 0),
     * any remainder absorbed by the last socket so every id has a
     * home. With one socket the single segment covers everything and
     * the construction below reproduces the historical flat tree
     * bit-for-bit.
     */
    void build_segments(std::uint32_t cores_per_socket)
    {
        const std::uint32_t cps =
            cores_per_socket != 0
                ? cores_per_socket
                : (participants_ + sockets_ - 1) / sockets_;
        socket_caps_.assign(sockets_, 0);
        socket_base_.assign(sockets_, 0);
        std::uint32_t assigned = 0;
        for (std::uint32_t s = 0; s < sockets_; ++s) {
            socket_base_[s] = assigned;
            socket_caps_[s] = std::min(cps, participants_ - assigned);
            assigned += socket_caps_[s];
        }
        socket_caps_[sockets_ - 1] += participants_ - assigned;
    }

    /**
     * Splits @p n children into ceil(n/k) fan-in groups. The flat path
     * uses the historical ragged split (full groups, then the
     * remainder) — bit-identical to the pre-topology construction —
     * while the socketed path uses near-equal groups: the tallest
     * group bounds a level's serialization, so a 6-core socket at
     * fan-in 4 fans in 3+3, not 4+2. This is the "per-level fan-in
     * chosen from socket geometry": group sizes are carved from each
     * socket's population, never across one.
     */
    static void split_groups(std::uint32_t n, std::uint32_t k, bool balanced,
                             std::vector<std::uint32_t>& sizes)
    {
        const std::uint32_t groups = (n + k - 1) / k;
        if (!balanced) {
            for (std::uint32_t g = 0; g < groups; ++g)
                sizes.push_back(std::min(k, n - g * k));
            return;
        }
        const std::uint32_t base = n / groups;
        const std::uint32_t rem = n % groups;
        for (std::uint32_t g = 0; g < groups; ++g)
            sizes.push_back(base + (g < rem ? 1 : 0));
    }

    /**
     * Builds the arrival tree over the socket segments: fan-in groups
     * are formed strictly within a segment until each segment has
     * combined to a single node (a segment already down to one node
     * passes through with no intermediate — its arrivals must not pay
     * levels other sockets still need), then the per-socket roots
     * combine in the unique cross-socket levels at the top. With one
     * segment this is exactly the historical level-by-level ragged
     * construction.
     */
    void build_tree()
    {
        const bool topo = sockets_ > 1;
        struct CurNode {
            std::uint32_t phys;  ///< physical node id (creation order)
            std::uint32_t seg;   ///< socket segment it still belongs to
        };
        std::vector<std::uint32_t> counts;      // per-physical init_count
        std::vector<std::int32_t> parent_idx;   // per-physical parent (-1 root)

        // Leaves: group each segment's participants.
        std::vector<CurNode> cur;
        std::vector<std::uint32_t> sizes;
        for (std::uint32_t s = 0; s < (topo ? sockets_ : 1u); ++s) {
            const std::uint32_t cap = topo ? socket_caps_[s] : participants_;
            if (cap == 0)
                continue;
            std::uint32_t id = topo ? socket_base_[s] : 0;
            sizes.clear();
            split_groups(cap, fan_in_, topo, sizes);
            for (std::uint32_t sz : sizes) {
                const auto phys = static_cast<std::uint32_t>(counts.size());
                for (std::uint32_t j = 0; j < sz; ++j)
                    leaf_of_[id++] = phys;
                counts.push_back(sz);
                parent_idx.push_back(-1);
                cur.push_back({phys, s});
            }
        }

        bool merged = !topo;
        while (cur.size() > 1) {
            if (!merged) {
                bool all_single = true;
                for (std::size_t i = 1; i < cur.size(); ++i) {
                    if (cur[i].seg == cur[i - 1].seg) {
                        all_single = false;
                        break;
                    }
                }
                if (all_single) {
                    merged = true;  // per-socket roots: combine across
                    for (CurNode& n : cur)
                        n.seg = 0;
                }
            }
            std::vector<CurNode> next;
            std::size_t i = 0;
            while (i < cur.size()) {
                std::size_t j = i;
                while (j < cur.size() && cur[j].seg == cur[i].seg)
                    ++j;
                if (j - i == 1 && !merged) {
                    next.push_back(cur[i]);  // pass-through segment root
                    i = j;
                    continue;
                }
                sizes.clear();
                split_groups(static_cast<std::uint32_t>(j - i), fan_in_,
                             topo, sizes);
                std::size_t child = i;
                for (std::uint32_t sz : sizes) {
                    const auto phys =
                        static_cast<std::uint32_t>(counts.size());
                    counts.push_back(sz);
                    parent_idx.push_back(-1);
                    for (std::uint32_t c = 0; c < sz; ++c)
                        parent_idx[cur[child++].phys] =
                            static_cast<std::int32_t>(phys);
                    next.push_back({phys, cur[i].seg});
                }
                i = j;
            }
            cur = std::move(next);
        }

        total_nodes_ = static_cast<std::uint32_t>(counts.size());
        nodes_ = std::make_unique<TreeNode[]>(total_nodes_);
        for (std::uint32_t n = 0; n < total_nodes_; ++n) {
            TreeNode& t = nodes_[n];
            t.init_count = counts[n];
            t.count.store(t.init_count, std::memory_order_relaxed);
            t.sense->store(0, std::memory_order_relaxed);
            t.parent =
                parent_idx[n] >= 0 ? &nodes_[parent_idx[n]] : nullptr;
        }
    }

    /**
     * First-arrival id assignment. Flat: the historical global counter.
     * Socketed: the next id in the arriver's own socket's range, so its
     * whole climb to the socket root stays on lines shared only within
     * that socket; a socket whose range is exhausted (placement did not
     * match the declared geometry) spills deterministically to the next
     * socket with space — mis-placed, but never corrupt. Ids never
     * exceed the participant count: oversubscription aborts either way.
     */
    std::uint32_t assign_id()
    {
        if (sockets_ <= 1) {
            const std::uint32_t id =
                next_id_.fetch_add(1, std::memory_order_relaxed);
            if (id >= participants_)
                std::abort();
            return id;
        }
        std::uint32_t s = platform_socket<P>();
        if (s >= sockets_)
            s = sockets_ - 1;
        for (std::uint32_t tries = 0; tries < sockets_; ++tries) {
            const std::uint32_t t = (s + tries) % sockets_;
            if (socket_caps_[t] == 0)
                continue;
            const std::uint32_t local =
                socket_next_[t]->fetch_add(1, std::memory_order_relaxed);
            if (local < socket_caps_[t])
                return socket_base_[t] + local;
        }
        std::abort();  // oversubscribed: every socket range exhausted
    }

    /// Flips the senses of the nodes this process climbed past, highest
    /// first so the largest waiting subtrees wake earliest.
    void wake_path(Node& n, std::uint32_t my_sense)
    {
        for (std::uint32_t i = n.depth; i-- > 0;)
            n.path[i]->sense->store(my_sense, std::memory_order_release);
    }

    const std::uint32_t participants_;
    const std::uint32_t fan_in_;
    const std::uint32_t sockets_;
    std::vector<std::uint32_t> socket_caps_;  ///< participants per socket
    std::vector<std::uint32_t> socket_base_;  ///< first id of each socket
    std::vector<std::uint32_t> leaf_of_;      ///< participant id -> leaf node
    std::uint32_t total_nodes_ = 0;
    /// Creation order [leaves | combining levels | root]; per-socket
    /// subtrees are contiguous under topology-aware placement.
    std::unique_ptr<TreeNode[]> nodes_;
    typename P::template Atomic<std::uint32_t> next_id_{0};
    /// Per-socket id counters (socketed placement only), each on its
    /// own line: the assignment RMW stays socket-local.
    std::unique_ptr<CacheAligned<typename P::template Atomic<std::uint32_t>>[]>
        socket_next_;
};

}  // namespace reactive
