/**
 * @file
 * SimPlatform: the Platform model backed by the simulated multiprocessor.
 *
 * Instantiating a protocol template with SimPlatform and running it on a
 * `sim::Machine` reproduces the thesis' experimental environment: every
 * shared access is charged through the coherence cost model and the
 * interleaving is the machine's deterministic discrete-event schedule.
 */
#pragma once

#include <cstdint>

#include "platform/platform_concept.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace reactive::sim {

/// Platform model for code running on a sim::Machine.
struct SimPlatform {
    /// Discrete-event execution on one host thread: plain reads of
    /// holder-only protocol bookkeeping are exact here, and some
    /// protocols record extra (free) diagnostics under this flag that
    /// would be data races on a native platform.
    static constexpr bool deterministic_simulation = true;

    template <typename T>
    using Atomic = sim::Atomic<T>;

    using WaitQueue = sim::SimWaitQueue;

    static void pause() { sim::pause(); }

    static void delay(std::uint64_t cycles) { sim::delay(cycles); }

    static std::uint64_t now() { return sim::now(); }

    /// Poll gap, beyond the poll's own pause, that means a spinning
    /// waiter lost its processor (WaitSite's deschedule test): above
    /// the jitter of a contended poll, below a preemption, which costs
    /// thread_unload + thread_reload plus another thread's run.
    static constexpr std::uint64_t deschedule_gap = 2048;

    static std::uint32_t random_below(std::uint32_t bound)
    {
        return sim::random_below(bound);
    }

    /// Socket of the executing simulated processor (TopologyAware
    /// extension): free for the caller — reads only host-side machine
    /// state, no simulated memory op, no cycle charge. Outside a
    /// simulation both degenerate to the flat answers.
    static std::uint32_t current_socket()
    {
        Machine* m = current_machine();
        return m != nullptr ? m->socket_of(current_cpu()) : 0;
    }

    static std::uint32_t socket_count()
    {
        Machine* m = current_machine();
        return m != nullptr ? m->sockets() : 1;
    }

    /// Switch-spinning poll step (Section 4.1): rotate to the next
    /// resident hardware context (cost C = 14 cycles) or degrade to a
    /// pause when the processor has a single context.
    static void context_switch_poll()
    {
        current_machine()->context_switch();
    }
};

static_assert(reactive::Platform<SimPlatform>);

}  // namespace reactive::sim
