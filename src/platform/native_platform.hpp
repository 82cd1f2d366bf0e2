/**
 * @file
 * NativePlatform: the Platform model for real hardware.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "platform/cpu.hpp"
#include "platform/parker.hpp"
#include "platform/platform_concept.hpp"
#include "platform/prng.hpp"

namespace reactive {

/**
 * Platform model backed by std::atomic, TSC delays, and futex parking.
 *
 * `random_below` uses a thread-local xorshift generator seeded from the
 * generator's address and the TSC, so threads never share PRNG state
 * (sharing would serialize the very backoff paths that exist to
 * de-serialize contenders).
 */
struct NativePlatform {
    template <typename T>
    using Atomic = std::atomic<T>;

    using WaitQueue = NativeWaitQueue;

    static void pause() noexcept { cpu_relax(); }

    static void delay(std::uint64_t cycles) noexcept { spin_for_cycles(cycles); }

    static std::uint64_t now() noexcept { return tsc_now(); }

    /// Poll gap, beyond the poll's own pause, that means a spinning
    /// waiter lost its core to another thread (WaitSite's deschedule
    /// test): 2^16 TSC ticks, ~20-30 us — above interrupt and steal
    /// jitter, below a scheduler time slice.
    static constexpr std::uint64_t deschedule_gap = std::uint64_t{1} << 16;

    static std::uint32_t random_below(std::uint32_t bound) noexcept
    {
        thread_local XorShift64Star rng{
            static_cast<std::uint64_t>(
                reinterpret_cast<std::uintptr_t>(&rng)) ^
            tsc_now()};
        return rng.below(bound);
    }

    /// Switch-spinning analogue on a conventional OS: yield the core to
    /// another runnable thread between polls.
    static void context_switch_poll() noexcept
    {
        std::this_thread::yield();
    }

    // ---- TopologyAware extension ------------------------------------
    // The socket id is declared, not discovered: a deployment that pins
    // its threads (the only configuration where NUMA-aware handoff is
    // meaningful) knows each thread's socket at pin time and declares
    // it once; everyone else keeps the flat default 0 and the
    // topology-aware protocols degenerate to their blind variants.
    // (sched_getcpu-style discovery would hand back a socket that can
    // change between the query and the use — a stale-but-consistent
    // declaration is what the cohort protocols actually need.)

    static std::uint32_t current_socket() noexcept { return socket_slot(); }

    static void set_current_socket(std::uint32_t s) noexcept
    {
        socket_slot() = s;
    }

  private:
    static std::uint32_t& socket_slot() noexcept
    {
        thread_local std::uint32_t socket = 0;
        return socket;
    }
};

static_assert(Platform<NativePlatform>);

}  // namespace reactive
