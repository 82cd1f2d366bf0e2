/**
 * @file
 * Barrier figure (new in this reproduction; the barrier analogue of
 * Figure 1.1): cycles per episode for the centralized sense-reversing
 * barrier, the fan-in-4 combining-tree barrier, and the reactive
 * barrier, swept over participant counts under two arrival regimes,
 * plus the per-column best static choice ("ideal").
 *
 * Expected shape: under bunched arrivals the central counter serializes
 * P decrements at its home directory and the release pays an O(P)
 * invalidation + refill storm on the sense line, so the tree wins
 * decisively from P~8 up while the central barrier's lower constant
 * wins at low P (below the fan-in the tree *is* a central barrier plus
 * bookkeeping). Under straggler-dominated arrivals everyone else's
 * arrival cost is absorbed into the straggle window and the episode's
 * critical path is the straggler's solo pass — one RMW + one flip for
 * the central barrier vs. a full climb — so the central barrier wins
 * at small and mid P and the regime gap nearly closes; only the O(P)
 * sequential invalidations its release charges the straggler keep the
 * tree marginally ahead at the largest P. The reactive barrier should
 * track the lower envelope on both sides of the crossover, as the
 * reactive spin lock does for mutexes.
 *
 * The **three-protocol section** is the stress test of the ProtocolSet
 * generalization (core/protocol_set.hpp): central vs. combining tree
 * vs. dissemination (designated-completer variant,
 * dissemination_barrier.hpp) as statics, against a reactive barrier
 * over ProtocolSet<central, tree, dissemination> driven by the
 * measured CalibratedLadderPolicy. Two of the three rungs (tree and
 * dissemination) cannot be ranked by the drift signal alone — which
 * one wins bunched arrivals depends on P — so this table only comes
 * out right if the per-protocol-index measurement and bounded probing
 * actually work. The binary asserts the reactive row stays within 10%
 * of the per-column best static protocol in every (P, regime) cell and
 * exits nonzero otherwise; all cells land in BENCH_barrier.json for
 * the CI-side run-over-run tolerance diff.
 *
 * A phase-shifting table (bunched and straggler regimes alternating)
 * shows re-convergence, and a final section repeats the two-regime
 * comparison with real threads on the native platform. `--smoke` runs
 * a tiny sim subset for CI (below the policies' convergence horizon,
 * so the envelope checks are disabled, as in fig_calibration).
 */
#include <chrono>
#include <iostream>
#include <thread>

#include "apps/workloads.hpp"
#include "barrier/central_barrier.hpp"
#include "barrier/combining_tree_barrier.hpp"
#include "barrier/dissemination_barrier.hpp"
#include "barrier/reactive_barrier.hpp"
#include "bench_common.hpp"
#include "core/protocol_set.hpp"
#include "platform/native_platform.hpp"

using namespace reactive;
using namespace reactive::bench;

namespace {

JsonRecords g_records;
int g_failures = 0;

using CentralSim = CentralBarrier<SimPlatform>;
using TreeSim = CombiningTreeBarrier<SimPlatform>;
using DissemSim = DisseminationBarrier<SimPlatform>;
using ReactiveBarrierSim = ReactiveBarrier<SimPlatform, AlwaysSwitchPolicy>;
using Barrier3SetSim = ProtocolSet<CentralSim, TreeSim, DissemSim>;
using Reactive3Sim =
    ReactiveBarrier<SimPlatform, CalibratedLadderPolicy, Barrier3SetSim>;

std::vector<std::uint32_t> barrier_procs(bool full)
{
    if (full)
        return {2, 4, 8, 16, 32, 64, 128};
    return {2, 4, 8, 16, 32, 64};
}

std::uint32_t barrier_episodes(std::uint32_t procs, bool full)
{
    const std::uint32_t scale = full ? 4 : 1;
    if (procs <= 8)
        return 120 * scale;
    if (procs <= 32)
        return 60 * scale;
    return 30 * scale;
}

/// Simulated cycles per episode for one pre-built barrier at one
/// (regime, procs) point.
template <typename B>
double sim_cycles_per_episode(std::shared_ptr<B> bar, std::uint32_t procs,
                              std::uint32_t episodes, bool skewed,
                              std::uint64_t seed)
{
    const std::uint64_t elapsed =
        skewed ? apps::run_barrier_straggler<B>(procs, episodes,
                                                /*straggle=*/30000,
                                                /*compute=*/200, seed, bar)
               : apps::run_barrier_uniform<B>(procs, episodes,
                                              /*compute=*/200, seed, bar);
    return static_cast<double>(elapsed) / episodes;
}

template <typename B>
double sim_cycles_fresh(std::uint32_t procs, bool skewed, bool full,
                        std::uint64_t seed)
{
    return sim_cycles_per_episode(std::make_shared<B>(procs), procs,
                                  barrier_episodes(procs, full), skewed,
                                  seed);
}

void sim_regime_table(const char* title, const char* regime, bool skewed,
                      const BenchArgs& args)
{
    const auto procs = barrier_procs(args.full);
    CrossoverTable table(title, "barrier_sweep", regime, procs, "P=",
                         "algorithm");
    std::vector<std::vector<double>> rows(3);
    for (std::uint32_t p : procs) {
        rows[0].push_back(
            sim_cycles_fresh<CentralSim>(p, skewed, args.full, args.seed));
        rows[1].push_back(
            sim_cycles_fresh<TreeSim>(p, skewed, args.full, args.seed));
        rows[2].push_back(sim_cycles_fresh<ReactiveBarrierSim>(
            p, skewed, args.full, args.seed));
        std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    table.row("central (counter)", std::move(rows[0]), /*is_static=*/true);
    table.row("tree (fan-in 4)", std::move(rows[1]), /*is_static=*/true);
    table.row("reactive", std::move(rows[2]));

    std::vector<std::string> notes;
    if (skewed) {
        notes = {"a straggler dominates each episode: the tree's climb is",
                 "pure overhead and central wins until its release's O(P)",
                 "sequential invalidations outgrow the climb (largest P)"};
    } else {
        notes = {"bunched arrivals serialize at the central counter: the tree",
                 "should win at high P, the central constant at low P"};
    }
    notes.push_back("reactive should track the better protocol on both "
                    "sides; its");
    notes.push_back("gap to ideal is the switch transient (the episodes "
                    "run in the");
    notes.push_back("losing protocol before a change): monitoring itself "
                    "is free");
    table.emit(&g_records, notes);
}

// ---- three-protocol section -------------------------------------------

CalibratedLadderPolicy::Params ladder3_params()
{
    CalibratedLadderPolicy::Params p;
    p.protocols = 3;
    // Fast early exploration (the rung map is built within ~20
    // episodes), long steady-state cadence (8 << 7 = 1024 episodes
    // between confirming probes).
    p.probe_period = 8;
    p.probe_backoff_cap = 7;
    p.probe_len = 2;
    return p;
}

std::vector<std::uint32_t> barrier3_procs(const BenchArgs& args)
{
    if (args.smoke)
        return {4, 8};
    if (args.full)
        return {2, 4, 8, 16, 32, 64};
    return {2, 4, 8, 16, 32};
}

std::uint32_t barrier3_episodes(const BenchArgs& args, bool skewed)
{
    // Long enough that the measured policy's exploration transient
    // (~20 episodes of rung mapping plus a handful of probe cycles)
    // amortizes. Bunched episodes are ~1k cycles, so the bunched
    // tables run long; straggler episodes cost a full 30k-cycle
    // straggle window each, and the regime's cells tie to within a
    // percent anyway.
    if (args.smoke)
        return 40;
    if (skewed)
        return args.full ? 960 : 480;
    return args.full ? 4800 : 2400;
}

void barrier3_table(const char* title, const char* regime, bool skewed,
                    const BenchArgs& args)
{
    const auto procs = barrier3_procs(args);
    const std::uint32_t episodes = barrier3_episodes(args, skewed);
    CrossoverTable table(title, "barrier3", regime, procs, "P=",
                         "algorithm");
    std::vector<std::vector<double>> rows(4);
    for (std::uint32_t p : procs) {
        rows[0].push_back(sim_cycles_per_episode(
            std::make_shared<CentralSim>(p), p, episodes, skewed,
            args.seed));
        rows[1].push_back(sim_cycles_per_episode(
            std::make_shared<TreeSim>(p, 4), p, episodes, skewed,
            args.seed));
        rows[2].push_back(sim_cycles_per_episode(
            std::make_shared<DissemSim>(p), p, episodes, skewed,
            args.seed));
        rows[3].push_back(sim_cycles_per_episode(
            std::make_shared<Reactive3Sim>(p, ReactiveBarrierParams{},
                                           CalibratedLadderPolicy(
                                               ladder3_params())),
            p, episodes, skewed, args.seed));
        std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    table.row("central (counter)", std::move(rows[0]), /*is_static=*/true);
    table.row("tree (fan-in 4)", std::move(rows[1]), /*is_static=*/true);
    table.row("dissemination", std::move(rows[2]), /*is_static=*/true);
    table.row("reactive 3-protocol", std::move(rows[3]));
    table.emit(&g_records,
               {"ProtocolSet<central, tree, dissemination> driven by the",
                "measured ladder policy; tree vs dissemination is ranked",
                "by per-rung episode-period measurement, not drift signals",
                "(drift alone cannot order the two scalable rungs), and",
                "monitoring is traffic-free (periods + completer streaks),",
                "so the parked barrier runs the static protocol's exact",
                "memory operations"});
    if (!args.smoke) {
        // The acceptance envelope: the reactive barrier must track the
        // best of its three slot protocols within 10% at every cell.
        g_failures += table.check_tracks(3, table.ideal(), 1.10, "ideal");
    }
}

// ---- native-thread section --------------------------------------------

/// Wall-clock nanoseconds per episode with real threads. The straggler
/// regime burns `straggle_cycles` on thread 0 every episode — the same
/// fixed-imbalance schedule as the sim tables (a rotating straggler is
/// a different regime; see run_barrier_straggler's comment).
template <typename B>
double native_ns_per_episode(std::uint32_t threads, std::uint32_t episodes,
                             std::uint64_t straggle_cycles)
{
    B bar(threads);
    std::vector<std::thread> pool;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            typename B::Node n;
            for (std::uint32_t e = 0; e < episodes; ++e) {
                if (straggle_cycles > 0 && t == 0)
                    NativePlatform::delay(straggle_cycles);
                bar.arrive(n);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    const auto dt = std::chrono::steady_clock::now() - t0;
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                   .count()) /
           episodes;
}

void native_table(bool full)
{
    const std::uint32_t hw = std::thread::hardware_concurrency();
    if (hw < 2) {
        std::cout << "(native section skipped: single-core host)\n";
        return;
    }
    std::vector<std::uint32_t> counts;
    for (std::uint32_t c : {2u, 4u, 8u, hw}) {
        if (c <= hw && (counts.empty() || counts.back() != c))
            counts.push_back(c);
    }
    const std::uint32_t episodes = full ? 20000 : 5000;
    const std::uint32_t straggler_episodes = full ? 2000 : 500;

    for (const bool skewed : {false, true}) {
        stats::Table t(skewed
                           ? std::string("barrier (native threads): ns per "
                                         "episode, straggler arrivals")
                           : std::string("barrier (native threads): ns per "
                                         "episode, bunched arrivals"));
        std::vector<std::string> header{"algorithm"};
        for (std::uint32_t c : counts)
            header.push_back("T=" + std::to_string(c));
        t.header(header);
        const std::uint64_t straggle = skewed ? 200000 : 0;
        const std::uint32_t eps = skewed ? straggler_episodes : episodes;
        std::vector<std::string> central{"central (counter)"};
        std::vector<std::string> tree{"tree (fan-in 4)"};
        std::vector<std::string> dissem{"dissemination"};
        std::vector<std::string> reactive{"reactive"};
        for (std::uint32_t c : counts) {
            central.push_back(stats::fmt(
                native_ns_per_episode<CentralBarrier<NativePlatform>>(
                    c, eps, straggle),
                0));
            tree.push_back(stats::fmt(
                native_ns_per_episode<CombiningTreeBarrier<NativePlatform>>(
                    c, eps, straggle),
                0));
            dissem.push_back(stats::fmt(
                native_ns_per_episode<DisseminationBarrier<NativePlatform>>(
                    c, eps, straggle),
                0));
            reactive.push_back(stats::fmt(
                native_ns_per_episode<ReactiveBarrier<NativePlatform>>(
                    c, eps, straggle),
                0));
            std::cerr << "." << std::flush;
        }
        std::cerr << "\n";
        t.row(central);
        t.row(tree);
        t.row(dissem);
        t.row(reactive);
        t.note("wall-clock; absolute numbers depend on the host, the");
        t.note("ordering between protocols is the reproduction target");
        t.print();
    }
}

}  // namespace

int main(int argc, char** argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    start_trace(args);

    if (!args.smoke) {
        sim_regime_table(
            "barrier: cycles per episode, bunched arrivals (compute ~200)",
            "bunched", /*skewed=*/false, args);
        sim_regime_table(
            "barrier: cycles per episode, straggler arrivals (straggle 30k)",
            "straggler", /*skewed=*/true, args);
    }

    barrier3_table("barrier 3-protocol: cycles per episode, bunched "
                   "arrivals (compute ~200)",
                   "bunched", /*skewed=*/false, args);
    barrier3_table("barrier 3-protocol: cycles per episode, straggler "
                   "arrivals (straggle 30k)",
                   "straggler", /*skewed=*/true, args);

    if (!args.smoke) {
        stats::Table t("barrier: phase-shifting workload (bunched <-> "
                       "straggler), elapsed kcycles at P=32");
        t.header({"algorithm", "elapsed", "switches"});
        const std::uint32_t phases = args.full ? 8 : 4;
        const std::uint32_t eps = args.full ? 60 : 30;
        t.row({"central (counter)",
               stats::fmt(apps::run_barrier_phases<CentralSim>(
                              32, phases, eps, 30000, 200, args.seed) /
                              1000.0,
                          0),
               "-"});
        t.row({"tree (fan-in 4)",
               stats::fmt(apps::run_barrier_phases<TreeSim>(
                              32, phases, eps, 30000, 200, args.seed) /
                              1000.0,
                          0),
               "-"});
        auto reactive = std::make_shared<ReactiveBarrierSim>(32);
        t.row({"reactive",
               stats::fmt(apps::run_barrier_phases<ReactiveBarrierSim>(
                              32, phases, eps, 30000, 200, args.seed,
                              reactive) /
                              1000.0,
                          0),
               std::to_string(reactive->protocol_changes())});
        auto reactive3 = std::make_shared<Reactive3Sim>(
            32, ReactiveBarrierParams{},
            CalibratedLadderPolicy(ladder3_params()));
        t.row({"reactive 3-protocol",
               stats::fmt(apps::run_barrier_phases<Reactive3Sim>(
                              32, phases, eps, 30000, 200, args.seed,
                              reactive3) /
                              1000.0,
                          0),
               std::to_string(reactive3->protocol_changes())});
        t.note("the reactive barriers re-converge each phase; neither");
        t.note("static protocol is right for both regimes");
        t.print();

        native_table(args.full);
    }

    if (!g_records.write("BENCH_barrier.json")) {
        std::cerr << "failed to write BENCH_barrier.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_barrier.json (" << g_records.size()
              << " records)\n";
    g_failures += finish_trace(args);
    if (g_failures > 0) {
        std::cout << g_failures
                  << " barrier 3-protocol envelope check(s) FAILED\n";
        return 1;
    }
    if (!args.smoke)
        std::cout << "barrier 3-protocol envelope passed (reactive within "
                     "10% of best static at every cell)\n";
    return 0;
}
