/**
 * @file
 * Domain example: a phased computation (the bulk-synchronous pattern —
 * compute, barrier, repeat) whose load profile changes at run time,
 * synchronized by one reactive barrier.
 *
 * Even-numbered phases are balanced: every worker does the same small
 * amount of work, arrivals bunch up, and the arrival counter becomes
 * the hotspot — the combining tree's regime. Odd-numbered phases are
 * imbalanced: worker 0 carries a much larger partition and every
 * episode waits on it, so the cheapest barrier is the one that adds the
 * least latency to the straggler's solo pass — the centralized
 * counter's regime. The reactive barrier watches who completes each
 * episode — a rotating last arrival in balanced phases, worker 0 every
 * time in imbalanced ones — times each episode's period, and reshapes
 * itself across the phase boundary. Same code, no tuning: "the
 * interface to the application program remains constant" (thesis
 * Section 1.1).
 */
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "barrier/dissemination_barrier.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/protocol_set.hpp"
#include "platform/native_platform.hpp"

using reactive::NativePlatform;

namespace {

// The full three-protocol set (ProtocolSet API): central counter,
// fan-in-4 combining tree, dissemination — selected at run time by the
// measured ladder policy.
using PhaseBarrier = reactive::ReactiveBarrier<
    NativePlatform, reactive::CalibratedLadderPolicy,
    reactive::ProtocolSet<reactive::CentralBarrier<NativePlatform>,
                          reactive::CombiningTreeBarrier<NativePlatform>,
                          reactive::DisseminationBarrier<NativePlatform>>>;

const char* mode_name(PhaseBarrier::Mode m)
{
    switch (m) {
    case PhaseBarrier::Mode::kCentral:
        return "central";
    case PhaseBarrier::Mode::kTree:
        return "tree";
    case PhaseBarrier::Mode::kDissemination:
        return "dissem";
    }
    return "?";
}

}  // namespace

int main()
{
    const unsigned workers =
        std::max(4u, std::min(8u, std::thread::hardware_concurrency()));
    constexpr int kPhases = 6;
    constexpr int kEpisodesPerPhase = 400;
    constexpr std::uint64_t kBalancedWork = 2000;     // TSC cycles
    constexpr std::uint64_t kImbalancedWork = 400000; // worker 0, odd phases

    // Traffic-free monitoring: a rotating completer moves the barrier
    // up, completer-identity streaks (on the dissemination rung, the
    // designated completer's own rounds) detect the imbalanced phases,
    // and episode periods rank the three rungs. No setting is needed.
    reactive::CalibratedLadderPolicy::Params policy_params;
    policy_params.protocols = 3;
    policy_params.probe_period = 8;
    policy_params.probe_backoff_cap = 7;
    PhaseBarrier barrier(workers, reactive::ReactiveBarrierParams{},
                         reactive::CalibratedLadderPolicy(policy_params));

    std::printf("barrier_phases: %u workers, %d phases of %d episodes "
                "(balanced <-> one imbalanced partition)\n",
                workers, kPhases, kEpisodesPerPhase);
    std::printf("initial protocol: %s\n", mode_name(barrier.mode()));

    std::vector<std::atomic<std::uint64_t>> work_done(workers);
    for (auto& w : work_done)
        w.store(0);
    std::atomic<int> ordering_violations{0};
    std::vector<std::atomic<std::uint32_t>> progress(workers);
    for (auto& p : progress)
        p.store(0);

    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            PhaseBarrier::Node node;
            std::uint32_t episode = 0;
            for (int phase = 0; phase < kPhases; ++phase) {
                const bool imbalanced = phase % 2 == 1;
                for (int e = 0; e < kEpisodesPerPhase; ++e, ++episode) {
                    const std::uint64_t grain =
                        (imbalanced && w == 0) ? kImbalancedWork
                                               : kBalancedWork;
                    NativePlatform::delay(grain);  // this partition's work
                    work_done[w].fetch_add(grain,
                                           std::memory_order_relaxed);
                    progress[w].store(episode + 1,
                                      std::memory_order_relaxed);
                    barrier.arrive(node);
                    // Bulk-synchronous invariant: after the barrier,
                    // every partition has finished this episode.
                    for (unsigned j = 0; j < workers; ++j)
                        if (progress[j].load(std::memory_order_relaxed) <
                            episode + 1)
                            ordering_violations.fetch_add(1);
                }
                // Reading barrier state here is race-free even though
                // other workers already run the next phase: no episode
                // can complete — and no completer can touch the
                // counters — until worker 0 arrives again.
                if (w == 0) {
                    std::printf(
                        "phase %d (%s): protocol now %-7s after %llu "
                        "protocol changes\n",
                        phase, imbalanced ? "imbalanced" : "balanced  ",
                        mode_name(barrier.mode()),
                        static_cast<unsigned long long>(
                            barrier.protocol_changes()));
                }
            }
        });
    }
    for (auto& t : pool)
        t.join();

    std::uint64_t total = 0;
    for (auto& w : work_done)
        total += w.load();
    std::printf("total work: %llu cycles across %u partitions, ordering %s\n",
                static_cast<unsigned long long>(total), workers,
                ordering_violations.load() == 0 ? "ok" : "VIOLATED");
    std::printf("final protocol: %s after %llu protocol changes\n",
                mode_name(barrier.mode()),
                static_cast<unsigned long long>(barrier.protocol_changes()));
    return ordering_violations.load() == 0 ? 0 : 1;
}
