/**
 * @file
 * Host services of the end-to-end benchmark: the tick clock and its
 * calibration, CPU pinning, per-thread resource counters and the
 * description of the machine a run was made on.
 *
 * The benchmark carries these itself instead of borrowing them from
 * src/platform or bench/bench_common.hpp, so that an edit to the library
 * or to another harness cannot silently change what bench_e2e measures.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <x86intrin.h>
#endif
#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#endif

namespace e2e {

/// Raw tick counter: the TSC on x86, steady_clock nanoseconds elsewhere.
inline std::uint64_t ticks() noexcept
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/// Busy-waits @p n ticks. No pause instruction in the loop: on recent
/// x86 one pause is ~40 ns, coarser than the 0-200 ns think times.
inline void spin_ticks(std::uint64_t n) noexcept
{
    if (n == 0)
        return;
    const std::uint64_t start = ticks();
    while (ticks() - start < n) {
    }
}

inline double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/// Tick-to-nanosecond conversion, calibrated against steady_clock.
struct TickClock {
    double ns_per_tick = 1.0;

    /// Median of three 20 ms windows.
    static TickClock calibrate()
    {
        double rates[3];
        for (double& r : rates) {
            const auto w0 = std::chrono::steady_clock::now();
            const std::uint64_t t0 = ticks();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            const std::uint64_t t1 = ticks();
            const double ns = std::chrono::duration<double, std::nano>(
                                  std::chrono::steady_clock::now() - w0)
                                  .count();
            r = ns / static_cast<double>(t1 - t0);
        }
        std::sort(rates, rates + 3);
        return TickClock{rates[1]};
    }

    double to_ns(double t) const { return t * ns_per_tick; }
    std::uint64_t from_ns(double ns) const
    {
        return static_cast<std::uint64_t>(std::llround(ns / ns_per_tick));
    }
};

/// CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus()
{
    std::vector<int> cpus;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    }
#endif
    if (cpus.empty()) {
        const unsigned hw = std::thread::hardware_concurrency();
        for (unsigned c = 0; c < (hw != 0 ? hw : 1); ++c)
            cpus.push_back(static_cast<int>(c));
    }
    return cpus;
}

/// Pins the calling thread to @p cpu; false when the host refuses.
inline bool pin_current_thread(int cpu)
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
    (void)cpu;
    return false;
#endif
}

/// Per-thread resource counters: context switches and CPU time.
struct ThreadUsage {
    std::uint64_t vcsw = 0;    ///< voluntary switches (blocking, parking)
    std::uint64_t ivcsw = 0;   ///< involuntary switches (preemption)
    std::uint64_t cpu_ns = 0;  ///< user + system CPU time

    static ThreadUsage now()
    {
        ThreadUsage u;
#if defined(__linux__)
        rusage ru{};
        if (getrusage(RUSAGE_THREAD, &ru) == 0) {
            u.vcsw = static_cast<std::uint64_t>(ru.ru_nvcsw);
            u.ivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
        }
        timespec ts{};
        if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
            u.cpu_ns = static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
                       static_cast<std::uint64_t>(ts.tv_nsec);
#endif
        return u;
    }

    ThreadUsage operator-(const ThreadUsage& o) const
    {
        return {vcsw - o.vcsw, ivcsw - o.ivcsw, cpu_ns - o.cpu_ns};
    }
    ThreadUsage& operator+=(const ThreadUsage& o)
    {
        vcsw += o.vcsw;
        ivcsw += o.ivcsw;
        cpu_ns += o.cpu_ns;
        return *this;
    }
};

/// Peak resident set of the process, in MB.
///
/// Read from the kernel's own accounting of this process: getrusage's
/// ru_maxrss survives exec, so under a launcher that forked it reports
/// the launcher's peak whenever that is larger than the benchmark's.
inline double max_rss_mb()
{
#if defined(__linux__)
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        double kib = -1;
        while (std::fgets(line, sizeof line, f) != nullptr)
            if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
                break;
        std::fclose(f);
        if (kib >= 0)
            return kib / 1024.0;
    }
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
#endif
    return 0.0;
}

/// CPU brand string from CPUID (no file reads), or "unknown".
inline std::string cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]) == 0)
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
#else
    return "unknown";
#endif
}

}  // namespace e2e
