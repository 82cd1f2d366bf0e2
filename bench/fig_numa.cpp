/**
 * @file
 * NUMA crossover tables (new in this reproduction): the evaluation the
 * two-level simulator cost model exists for. Every cell runs on a
 * socketed `sim::Machine` (`sim::Topology`), where a remote miss whose
 * source copy lives on another socket pays `cross_socket_extra` and
 * cross-socket invalidations pay per-sharer extras — the intra- vs
 * cross-domain distinction RMR-style analyses draw, which a flat cost
 * model cannot express.
 *
 * Two table families, swept over sockets x P:
 *
 *  - **Barrier** (bunched arrivals): centralized counter, topology-
 *    blind fan-in-4 combining tree, topology-aware tree (leaves
 *    assigned by socket, fan-in groups never straddle a socket;
 *    combining_tree_barrier.hpp), dissemination, and the reactive
 *    3-protocol barrier whose tree slot is topology-aware.
 *  - **Lock** (hot handoff regime, plus a light-contention regime for
 *    the reactive row's other side): TTS, topology-blind MCS, the
 *    cohort queue (core/cohort_queue.hpp, default B=4), and the
 *    reactive lock running TTS vs the cohort queue under the
 *    calibrated competitive policy.
 *
 * In-binary acceptance checks (exit nonzero on failure; disabled under
 * --smoke, whose runs sit below the policies' convergence horizon):
 *
 *  - flat (sockets=1) cells: the topology-aware tree is *identical* to
 *    the blind tree (same construction, deterministic sim), and the
 *    cohort queue ties MCS within 2% (its flat degeneration does MCS's
 *    per-grant work plus one predicate);
 *  - cross-socket (sockets>=2) cells: the topology-aware variants never
 *    lose more than 2% anywhere and win by >=3% in at least two thirds
 *    of the cells. The known near-tie this tolerance exists for is the
 *    cohort queue at 16+ waiters per socket (S=2, P=32): the per-batch
 *    global-handoff chain (~3 sequential cross transfers per B+1
 *    grants) costs about what blind MCS's falling per-grant cross rate
 *    still pays — see DESIGN.md;
 *  - the reactive rows track the per-column best static within 10%
 *    everywhere, as in fig_barrier/fig_calibration.
 *
 * All cells land in BENCH_numa.json for the CI tolerance diff
 * (blocking, like the calibration and barrier tables), annotated with
 * the simulator's cross-socket traffic counters per cell.
 */
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "barrier/central_barrier.hpp"
#include "barrier/combining_tree_barrier.hpp"
#include "barrier/dissemination_barrier.hpp"
#include "barrier/reactive_barrier.hpp"
#include "bench_common.hpp"
#include "core/cohort_queue.hpp"
#include "core/protocol_set.hpp"

using namespace reactive;
using namespace reactive::bench;

namespace {

JsonRecords g_records;
int g_failures = 0;

using CentralSim = CentralBarrier<SimPlatform>;
using TreeSim = CombiningTreeBarrier<SimPlatform>;
using DissemSim = DisseminationBarrier<SimPlatform>;
using Barrier3SetSim = ProtocolSet<CentralSim, TreeSim, DissemSim>;
using Reactive3Sim =
    ReactiveBarrier<SimPlatform, CalibratedLadderPolicy, Barrier3SetSim>;

using CohortSim = CohortQueue<SimPlatform>;
using TtsNodeSim = TtsLock<SimPlatform>;
using McsNodeSim = McsLock<SimPlatform, McsVariant::kFetchStore>;
using ReactiveCohortSim = ReactiveNodeLock<SimPlatform,
                                           CalibratedCompetitive3Policy,
                                           CohortSim>;

/// NodeLock facade over the standalone (valid) cohort queue, for the
/// shared lock kernel.
class CohortNodeLock {
  public:
    using Node = CohortSim::Node;
    explicit CohortNodeLock(CohortSim::Params p)
        : q_(/*initially_valid=*/true, p)
    {
    }
    void lock(Node& n) { (void)q_.acquire(n); }
    void unlock(Node& n) { q_.release(n); }

  private:
    CohortSim q_;
};

std::vector<std::uint32_t> numa_procs(const BenchArgs& args)
{
    if (args.smoke)
        return {8};
    return {8, 16, 32};
}

std::vector<std::uint32_t> numa_sockets(const BenchArgs& args)
{
    if (args.smoke)
        return {1, 2};
    return {1, 2, 4};
}

/// The "beat the blind variant" acceptance: on cross-socket machines
/// the topology-aware row must never lose more than 2% in any cell
/// and must win by at least 3% in two thirds of them; on the flat
/// machine the two must tie within @p flat_tol (0 = exactly equal).
void check_topo_vs_blind(const char* what, std::uint32_t sockets,
                         const std::vector<std::uint32_t>& procs,
                         const std::vector<double>& blind,
                         const std::vector<double>& topo, double flat_tol)
{
    if (sockets == 1) {
        for (std::size_t c = 0; c < procs.size(); ++c) {
            const double rel = blind[c] != 0.0
                                   ? std::abs(topo[c] - blind[c]) / blind[c]
                                   : 0.0;
            if (rel > flat_tol) {
                ++g_failures;
                std::cout << "  CHECK FAIL [" << what << " S=1 P="
                          << procs[c] << "]: flat topo-aware "
                          << stats::fmt(topo[c], 1) << " vs blind "
                          << stats::fmt(blind[c], 1)
                          << " (must tie within "
                          << stats::fmt(flat_tol * 100, 1) << "%)\n";
            }
        }
        return;
    }
    std::size_t wins = 0;
    for (std::size_t c = 0; c < procs.size(); ++c) {
        if (topo[c] <= blind[c] * 0.97)
            ++wins;
        if (topo[c] > blind[c] * 1.02) {
            ++g_failures;
            std::cout << "  CHECK FAIL [" << what << " S=" << sockets
                      << " P=" << procs[c] << "]: topo-aware "
                      << stats::fmt(topo[c], 1) << " > 1.02 * blind "
                      << stats::fmt(blind[c], 1) << "\n";
        }
    }
    if (3 * wins < 2 * procs.size()) {
        ++g_failures;
        std::cout << "  CHECK FAIL [" << what << " S=" << sockets
                  << "]: topology-aware wins >=3% in only " << wins << "/"
                  << procs.size() << " cells (need two thirds)\n";
    }
}

// ---- barrier tables ----------------------------------------------------

CalibratedLadderPolicy::Params ladder3_params()
{
    CalibratedLadderPolicy::Params p;
    p.protocols = 3;
    p.probe_period = 8;
    p.probe_backoff_cap = 7;
    p.probe_len = 2;
    return p;
}

ReactiveBarrierParams reactive_topo_params(std::uint32_t sockets)
{
    ReactiveBarrierParams p;
    p.sockets = sockets;
    return p;
}

template <typename B>
double barrier_cell(std::shared_ptr<B> bar, std::uint32_t procs,
                    std::uint32_t sockets, std::uint32_t episodes,
                    std::uint64_t seed, sim::MachineStats* stats_out)
{
    const std::uint64_t elapsed = apps::run_barrier_uniform<B>(
        procs, episodes, /*compute=*/200, seed, std::move(bar),
        sim::Topology{sockets, 0}, stats_out);
    return static_cast<double>(elapsed) / episodes;
}

void barrier_table(std::uint32_t sockets, const BenchArgs& args)
{
    const auto procs = numa_procs(args);
    const std::uint32_t episodes = args.smoke ? 40 : 900;
    const std::string bench = "numa_barrier_s" + std::to_string(sockets);
    CrossoverTable table("barrier (NUMA sim, " + std::to_string(sockets) +
                             " socket(s)): cycles per episode, bunched "
                             "arrivals",
                         bench, "bunched", procs, "P=", "algorithm");
    std::vector<std::vector<double>> rows(5);
    std::vector<std::vector<sim::MachineStats>> traffic(5);
    const auto cell_stats = [&](std::size_t r) {
        traffic[r].emplace_back();
        return &traffic[r].back();
    };
    for (std::uint32_t p : procs) {
        rows[0].push_back(barrier_cell(std::make_shared<CentralSim>(p), p,
                                       sockets, episodes, args.seed,
                                       cell_stats(0)));
        rows[1].push_back(barrier_cell(std::make_shared<TreeSim>(p, 4u), p,
                                       sockets, episodes, args.seed,
                                       cell_stats(1)));
        rows[2].push_back(barrier_cell(
            std::make_shared<TreeSim>(p, 4u, sockets, 0u), p,
            sockets, episodes, args.seed, cell_stats(2)));
        rows[3].push_back(barrier_cell(std::make_shared<DissemSim>(p), p,
                                       sockets, episodes, args.seed,
                                       cell_stats(3)));
        rows[4].push_back(barrier_cell(
            std::make_shared<Reactive3Sim>(
                p, reactive_topo_params(sockets),
                CalibratedLadderPolicy(ladder3_params())),
            p, sockets, episodes, args.seed, cell_stats(4)));
        std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    table.row("central (counter)", rows[0], /*is_static=*/true, traffic[0]);
    table.row("tree blind (fan-in 4)", rows[1], /*is_static=*/true,
              traffic[1]);
    table.row("tree topology-aware", rows[2], /*is_static=*/true,
              traffic[2]);
    table.row("dissemination", rows[3], /*is_static=*/true, traffic[3]);
    table.row("reactive 3-protocol (topo tree)", rows[4], false, traffic[4]);
    table.emit(&g_records,
               {"two-level cost model: cross-socket fetches pay "
                "cross_socket_extra;",
                "the topology-aware tree keeps every fan-in group inside "
                "one socket,",
                "so only its top levels cross — at sockets=1 the two "
                "trees are the",
                "same object and their cells must be identical"});
    if (!args.smoke) {
        check_topo_vs_blind("numa_barrier/tree", sockets, procs, rows[1],
                            rows[2], /*flat_tol=*/0.0);
        g_failures += table.check_tracks(4, table.ideal(), 1.10, "ideal");
    }
}

// ---- lock tables -------------------------------------------------------

CohortSim::Params cohort_params(std::uint32_t sockets)
{
    CohortSim::Params p;
    p.sockets = sockets;  // cohort_limit stays the default B=4
    return p;
}

template <typename L>
double lock_cell(std::shared_ptr<L> lock, std::uint32_t procs,
                 std::uint32_t sockets, std::uint32_t iters,
                 std::uint32_t think, std::uint64_t seed,
                 sim::MachineStats* stats_out)
{
    const std::uint64_t elapsed = apps::run_lock_cycle<L>(
        procs, iters, /*cs=*/100, think, seed, std::move(lock),
        sim::Topology{sockets, 0}, stats_out);
    return static_cast<double>(elapsed) /
           (static_cast<double>(procs) * iters);
}

void lock_table(std::uint32_t sockets, bool hot, const BenchArgs& args)
{
    const auto procs = numa_procs(args);
    const std::uint32_t iters = args.smoke ? 60 : 400;
    const char* regime = hot ? "hot" : "light";
    const std::string bench = "numa_lock_s" + std::to_string(sockets);
    CrossoverTable table("lock (NUMA sim, " + std::to_string(sockets) +
                             " socket(s)): cycles per acquisition, " +
                             regime + " regime",
                         bench, regime, procs, "P=", "algorithm");
    std::vector<std::vector<double>> rows(4);
    std::vector<std::vector<sim::MachineStats>> traffic(4);
    const auto cell_stats = [&](std::size_t r) {
        traffic[r].emplace_back();
        return &traffic[r].back();
    };
    for (std::uint32_t p : procs) {
        // Hot: every release finds waiters — the handoff-locality
        // regime the cohort protocol targets. Light: think time scales
        // with P so the lock stays mostly free at every column — TTS
        // territory, exercised so the reactive row is checked on both
        // sides of the crossover.
        const std::uint32_t think = hot ? 200 : 2000 * p;
        rows[0].push_back(lock_cell(std::make_shared<TtsNodeSim>(), p,
                                    sockets, iters, think, args.seed,
                                    cell_stats(0)));
        rows[1].push_back(lock_cell(std::make_shared<McsNodeSim>(), p,
                                    sockets, iters, think, args.seed,
                                    cell_stats(1)));
        rows[2].push_back(
            lock_cell(std::make_shared<CohortNodeLock>(cohort_params(sockets)),
                      p, sockets, iters, think, args.seed, cell_stats(2)));
        rows[3].push_back(lock_cell(
            std::make_shared<ReactiveCohortSim>(
                ReactiveLockParams{}, CalibratedCompetitive3Policy{},
                cohort_params(sockets)),
            p, sockets, iters, think, args.seed, cell_stats(3)));
        std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    table.row("tts", rows[0], /*is_static=*/true, traffic[0]);
    table.row("mcs blind", rows[1], /*is_static=*/true, traffic[1]);
    table.row("cohort queue (B=4)", rows[2], /*is_static=*/true, traffic[2]);
    table.row("reactive (tts <-> cohort)", rows[3], false, traffic[3]);
    table.emit(&g_records,
               {"cohort handoff grants within the holder's socket for at "
                "most B=4",
                "consecutive grants, then releases the global queue "
                "(remote waiters",
                "acquire within B+1 grants of their global enqueue — "
                "property-tested)"});
    if (!args.smoke) {
        if (hot)
            check_topo_vs_blind("numa_lock/cohort", sockets, procs,
                                rows[1], rows[2], /*flat_tol=*/0.02);
        g_failures += table.check_tracks(3, table.ideal(), 1.10, "ideal");
    }
}

}  // namespace

int main(int argc, char** argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    start_trace(args);

    for (std::uint32_t s : numa_sockets(args))
        barrier_table(s, args);
    for (std::uint32_t s : numa_sockets(args)) {
        lock_table(s, /*hot=*/true, args);
        lock_table(s, /*hot=*/false, args);
    }

    if (!g_records.write("BENCH_numa.json")) {
        std::cerr << "failed to write BENCH_numa.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_numa.json (" << g_records.size()
              << " records)\n";
    g_failures += finish_trace(args);
    if (g_failures > 0) {
        std::cout << g_failures << " NUMA crossover check(s) FAILED\n";
        return 1;
    }
    if (!args.smoke)
        std::cout << "NUMA crossover checks passed (topology-aware beats "
                     "blind cross-socket, ties flat; reactive within 10% "
                     "of best static)\n";
    return 0;
}
