/**
 * @file
 * Concepts shared by all barrier protocols.
 *
 * Mirrors rw/rw_concepts.hpp: every barrier uses the node-passing
 * interface so tree-based protocols (which need per-participant state
 * and a climb path) and centralized protocols (which need only a local
 * sense) are interchangeable in tests, benchmarks, and the reactive
 * dispatcher.
 *
 * Unlike a lock node, a barrier Node is *persistent*: it carries the
 * participant's sense (and, for tree protocols, its leaf identity)
 * across episodes, so each participant allocates one Node for the
 * lifetime of the barrier and passes the same Node to every arrive().
 * The participant set is fixed at construction; every participant must
 * arrive in every episode.
 */
#pragma once

#include <concepts>
#include <cstdint>

namespace reactive {

// clang-format off
/// A rendezvous barrier for a fixed participant count. arrive() returns
/// once all participants of the current episode have arrived; Nodes are
/// reused across episodes (they hold the participant's reversing sense).
template <typename B>
concept Barrier = requires(B b, typename B::Node n) {
    typename B::Node;
    { b.arrive(n) } -> std::same_as<void>;
    { b.participants() } -> std::same_as<std::uint32_t>;
};
// clang-format on

/**
 * Uniform construction options for barrier protocol-set members
 * (core/protocol_set.hpp): every slot of a barrier ProtocolSet is
 * constructed as `Slot(participants, BarrierSlotOptions)`. Protocols
 * ignore the fields that do not concern them.
 */
struct BarrierSlotOptions {
    /// Arrival fan-in of tree-shaped protocols.
    std::uint32_t fan_in = 4;
    /// Topology-aware placement (tree-shaped protocols): with
    /// sockets >= 2, participants are assigned to leaves by the socket
    /// their platform reports (TopologyAwarePlatform), per-level
    /// fan-in groups are carved from the socket geometry so no fan-in
    /// group ever straddles a socket, and sockets combine only at the
    /// top of the tree. The default keeps the historical
    /// topology-blind layout bit-for-bit.
    std::uint32_t sockets = 1;
    /// Participants per socket (0 = balanced, ceil(P / sockets)).
    std::uint32_t cores_per_socket = 0;
};

/**
 * Outcome of one decomposed arrival — the barrier family's
 * per-acquisition signal (the `ProtocolSlot` signal requirement,
 * core/protocol_set.hpp). `last` elects the episode's consensus
 * process; `arrive_cycles` is set only by a protocol with a fixed
 * completer, and only on that completer.
 */
struct BarrierEpisode {
    bool last = false;  ///< this arrival completed the episode
    /// The protocol designates a fixed completer (dissemination) rather
    /// than electing whichever participant finishes last — completer
    /// identity then carries no arrival-order information, and skew
    /// detection falls back to the completer's own arrival latency.
    bool fixed_completer = false;
    /// The fixed completer's own arrival latency (0 elsewhere).
    std::uint64_t arrive_cycles = 0;
};

// clang-format off
/**
 * The barrier family's refinement of the core `ProtocolSlot` concept:
 * a barrier whose arrival is decomposed so a reactive dispatcher can
 * interpose the episode-consensus step between the election of the
 * completer and the release it performs. The slot's consensus object
 * is the completer election itself (counter reaching zero, root
 * completed, designated-completer round); "invalidate/revalidate" is
 * the episode hand-off — a slot is live only for episodes the mode
 * index routes to it, and the completer's release publishes any mode
 * change before the next episode can start, so an idle slot is never
 * entered and needs no INVALID sentinels.
 */
template <typename B>
concept BarrierProtocolSlot =
    Barrier<B> &&
    std::constructible_from<B, std::uint32_t, BarrierSlotOptions> &&
    requires(B b, typename B::Node n) {
        { b.arrive_only(n) } -> std::same_as<BarrierEpisode>;
        { b.wait_episode(n) } -> std::same_as<void>;
        { b.release_episode(n) } -> std::same_as<void>;
    };
// clang-format on

}  // namespace reactive
