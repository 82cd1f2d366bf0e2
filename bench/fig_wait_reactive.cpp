/**
 * @file
 * Reactive-waiting figure (Chapter 4 x the selection layer): crossover
 * tables for static waiting modes vs. the calibrated waiting-mode
 * policy, swept over *oversubscription* instead of processor count.
 *
 * The question under test: waiting mode is the second per-object
 * selection axis — always-spin wins when waits are short and every
 * waiter owns a processor, immediate-park wins when spinning steals
 * cycles the holder needs (multiprogramming), and two-phase waiting
 * with the calibrated Lpoll = alpha x B is the competitive fallback in
 * between. Each table fixes a contention regime (critical-section and
 * think-time mix) and sweeps the oversubscription factor: `factor`
 * threads per simulated processor, single hardware context, preemptive
 * quantum (sim/machine.hpp) so always-spin *can* run — slowly — instead
 * of livelocking when a spinner holds the only context.
 *
 * Rows:
 *   - **always-spin (static)**: the pre-subsystem spin-only
 *     instantiation (SpinWaiting — no parking machinery compiled in);
 *   - **two-phase (static)**: ParkWaiting pinned to the fixed
 *     spin-then-park algorithm, Lpoll = alpha x B from the cost model;
 *   - **always-park (static)**: ParkWaiting pinned to immediate block;
 *   - **reactive**: ParkWaiting driven by CalibratedWaitPolicy — the
 *     holder's estimator lanes pick the mode per release.
 *
 * Expected shape: spin wins the 1x column, park wins the deep columns,
 * and the reactive row tracks the per-column best within the usual 10%
 * envelope while *strictly* beating always-spin once oversubscription
 * reaches 2x (the in-binary checks; smoke runs are sized for CI and
 * skip them). All cells land in BENCH_wait.json for the mechanical
 * tolerance diff; `--native` adds an advisory oversubscribed
 * fixed-pool table on real hardware (ContendedOptions::oversubscribed).
 */
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "bench_common.hpp"
#include "contended_harness.hpp"
#include "core/reactive_mutex.hpp"
#include "platform/native_platform.hpp"
#include "waiting/reactive/wait_select.hpp"
#include "waiting/reactive/wait_site.hpp"

using namespace reactive;
using namespace reactive::bench;

namespace {

JsonRecords g_records;
int g_failures = 0;
bool g_check_enabled = true;
/// Cells where the beats-always-spin assertion was actually exercised
/// (factor >= 2 *and* the static rows show spin losing). The run fails
/// if no regime produced such a cell — the claim must be tested, not
/// vacuously skipped.
int g_spin_crossover_cells = 0;

/// Absolute allowance on the tracking envelope, cycles. The parking
/// machinery a ParkWaiting lock carries even in spin mode — the
/// eventcount epoch bump per release, the hint maintenance, the
/// estimator stamps — is a constant ~2 cache-op-scale cost per
/// operation, which at sim magnitudes (a 122-cycle hot handoff) is
/// far above 10% relative. The envelope is therefore
/// 1.10 x ideal + kMachinerySlack: relative in the regimes the claim
/// is about, additive only at scales where "10%" is 12 cycles.
constexpr double kMachinerySlack = 64.0;

// ---- instantiations under test ----------------------------------------

// The spin row is the genuine pre-subsystem lock: SpinWaiting, zero
// parking machinery (the byte-identity configuration). ReactiveSim is
// the bench_common alias for exactly that.
using SpinRow = ReactiveSim;

using ParkQueue = ReactiveQueue<sim::SimPlatform>;
using FixedRow = ReactiveNodeLock<sim::SimPlatform, AlwaysSwitchPolicy,
                                  ParkQueue, ParkWaiting, FixedWaitPolicy>;
using ReactiveRow = ReactiveNodeLock<sim::SimPlatform, AlwaysSwitchPolicy,
                                     ParkQueue, ParkWaiting,
                                     CalibratedWaitPolicy>;

/// FixedRow pinned to one waiting algorithm. The hint reaches the wait
/// site at the first release (publish_wait publishes it), so only
/// the very first contended waits run under the default spin hint.
std::shared_ptr<FixedRow> make_fixed(const WaitingAlgorithm& alg)
{
    auto l = std::make_shared<FixedRow>();
    l->inner().wait_policy() = FixedWaitPolicy(alg);
    return l;
}

/// Shared cost model of every row: single-context Alewife processors
/// with a preemption quantum, the regime where the waiting mode
/// matters. At factor = 1 no runnable thread ever waits unloaded, so
/// the quantum never fires and the column degrades to the classic
/// fully-subscribed machine.
sim::CostModel oversub_costs()
{
    sim::CostModel c = sim::CostModel::alewife();
    c.preempt_quantum = 10000;
    return c;
}

// ---- simulated sweep --------------------------------------------------

struct Cell {
    double cycles_per_op = 0.0;
    sim::MachineStats stats;
};

template <typename L>
Cell run_cell(std::uint32_t procs, std::uint32_t factor, std::uint32_t iters,
              std::uint32_t cs, std::uint32_t think, std::uint64_t seed,
              std::shared_ptr<L> lock)
{
    Cell cell;
    const std::uint64_t elapsed = apps::run_lock_cycle_oversubscribed<L>(
        procs, factor, iters, cs, think, seed, std::move(lock),
        oversub_costs(), &cell.stats);
    cell.cycles_per_op =
        static_cast<double>(elapsed) /
        (static_cast<double>(procs) * factor * iters);
    return cell;
}

void wait_regime_table(const char* title, const char* regime,
                       std::uint32_t cs, std::uint32_t think,
                       const BenchArgs& args, bool checks = true)
{
    const std::uint32_t procs = args.smoke ? 2 : 4;
    const std::vector<std::uint32_t> factors =
        args.smoke ? std::vector<std::uint32_t>{1, 4}
                   : std::vector<std::uint32_t>{1, 2, 4, 8};
    const std::uint32_t iters = args.smoke ? 40 : (args.full ? 400 : 200);

    // The static two-phase row polls for the calibrated budget
    // Lpoll = alpha x B with B read straight off the cost model — the
    // best a static configuration can do with perfect constants.
    const std::uint64_t lpoll =
        oversub_costs().blocking_cost() * kWaitAlphaPermille / 1000;

    const std::vector<std::string> names{
        "always-spin (static)", "two-phase (static)", "always-park (static)",
        "reactive"};
    std::vector<std::vector<double>> rows(names.size());
    std::vector<sim::MachineStats> reactive_stats;
    for (std::uint32_t f : factors) {
        rows[0].push_back(run_cell<SpinRow>(procs, f, iters, cs, think,
                                            args.seed,
                                            std::make_shared<SpinRow>())
                              .cycles_per_op);
        rows[1].push_back(
            run_cell<FixedRow>(
                procs, f, iters, cs, think, args.seed,
                make_fixed(WaitingAlgorithm::two_phase(lpoll)))
                .cycles_per_op);
        rows[2].push_back(
            run_cell<FixedRow>(procs, f, iters, cs, think, args.seed,
                               make_fixed(WaitingAlgorithm::always_block()))
                .cycles_per_op);
        Cell r = run_cell<ReactiveRow>(procs, f, iters, cs, think, args.seed,
                                       std::make_shared<ReactiveRow>());
        rows[3].push_back(r.cycles_per_op);
        reactive_stats.push_back(r.stats);
        std::cerr << "." << std::flush;
    }
    std::cerr << "\n";

    CrossoverTable table(title, "wait_lock", regime, factors,
                         /*axis_prefix=*/"x", /*row_label=*/"wait mode");
    for (std::size_t i = 0; i < names.size(); ++i)
        table.row(names[i], std::move(rows[i]), /*is_static=*/i < 3,
                  i == 3 ? reactive_stats : std::vector<sim::MachineStats>{});
    const sim::MachineStats& deep = reactive_stats.back();
    table.emit(
        &g_records,
        {"cycles per critical section, " + std::to_string(procs) +
             " single-context processors, factor threads each, preempt "
             "quantum 10k;",
         "reactive row at deepest factor: " + std::to_string(deep.blocks) +
             " parks, " + std::to_string(deep.wakes) + " wakes, " +
             std::to_string(deep.preemptions) + " preemptions"});
    if (g_check_enabled && checks) {
        // The acceptance envelope: reactive within 10% (plus the
        // constant machinery allowance) of the best static waiting
        // mode at every oversubscription level.
        const std::vector<double>& best = table.ideal();
        const std::vector<double>& reactive = table.cells(3);
        const std::vector<double>& spin = table.cells(0);
        for (std::size_t c = 0; c < factors.size(); ++c) {
            if (reactive[c] > 1.10 * best[c] + kMachinerySlack) {
                ++g_failures;
                std::cout << "  CHECK FAIL [wait_lock/" << regime << " x"
                          << factors[c] << "]: reactive="
                          << stats::fmt(reactive[c], 1)
                          << " > 1.1 * ideal + " << kMachinerySlack
                          << " = " << stats::fmt(
                                 1.10 * best[c] + kMachinerySlack, 1)
                          << "\n";
            }
            // Strictly cheaper than always-spin wherever spinning has
            // genuinely stopped being the best static answer at >= 2x
            // oversubscription. Cells where always-spin *is* the ideal
            // (zero-think hot handoffs) are not crossover cells — no
            // waiting mode can beat spin there, reactive's job is the
            // envelope above — but at least one crossover cell must
            // exist across the run or the claim was never tested.
            if (factors[c] < 2 || spin[c] <= best[c])
                continue;
            ++g_spin_crossover_cells;
            if (reactive[c] < spin[c])
                continue;
            ++g_failures;
            std::cout << "  CHECK FAIL [wait_lock/" << regime << " x"
                      << factors[c] << "]: reactive="
                      << stats::fmt(reactive[c], 1)
                      << " !< always-spin=" << stats::fmt(spin[c], 1)
                      << "\n";
        }
    }
}

// ---- native oversubscribed section ------------------------------------

using NativeParkQueue = ReactiveQueue<NativePlatform>;
using NativeSpin = ReactiveNodeLock<NativePlatform, AlwaysSwitchPolicy>;
using NativeFixed = ReactiveNodeLock<NativePlatform, AlwaysSwitchPolicy,
                                     NativeParkQueue, ParkWaiting,
                                     FixedWaitPolicy>;
using NativeReactive = ReactiveNodeLock<NativePlatform, AlwaysSwitchPolicy,
                                        NativeParkQueue, ParkWaiting,
                                        CalibratedWaitPolicy>;

/// Advisory (no checks): host scheduling noise under oversubscription
/// dwarfs the sim's determinism, so this table is evidence of *shape*,
/// not an envelope. Threads = factor x online CPUs, pinned modulo the
/// CPU count (ContendedOptions::oversubscribed).
void native_table(const BenchArgs& args)
{
    const std::vector<std::uint32_t> factors{1, 2, 4};
    // A guess at the native block cost class; the reactive row measures
    // its own from wake latencies, this is only the fixed row's budget.
    const std::uint64_t lpoll = 2000;

    const std::vector<std::string> names{"always-spin", "two-phase fixed",
                                         "always-park", "reactive"};
    std::vector<std::vector<double>> rows(names.size());
    for (std::uint32_t f : factors) {
        ContendedOptions opt = ContendedOptions::oversubscribed(
            f, args.full ? 20000 : 5000);
        NativeSpin spin;
        rows[0].push_back(contended_lock_cycles_per_op(spin, opt));
        NativeFixed two_phase;
        two_phase.inner().wait_policy() =
            FixedWaitPolicy(WaitingAlgorithm::two_phase(lpoll));
        rows[1].push_back(contended_lock_cycles_per_op(two_phase, opt));
        NativeFixed park;
        park.inner().wait_policy() =
            FixedWaitPolicy(WaitingAlgorithm::always_block());
        rows[2].push_back(contended_lock_cycles_per_op(park, opt));
        NativeReactive rea;
        rows[3].push_back(contended_lock_cycles_per_op(rea, opt));
        std::cerr << "." << std::flush;
    }
    std::cerr << "\n";

    CrossoverTable table(
        "locks (native, oversubscribed fixed pool): cycles per critical "
        "section, hot loop",
        "native_wait_lock", "hot", factors, /*axis_prefix=*/"x",
        /*row_label=*/"wait mode");
    for (std::size_t i = 0; i < names.size(); ++i)
        table.row(names[i], std::move(rows[i]), /*is_static=*/i < 3);
    table.emit(&g_records,
               {"threads = factor x online CPUs, pinned modulo CPU count;",
                "advisory: host timeshare noise, no envelope checks"});
}

}  // namespace

int main(int argc, char** argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    start_trace(args);
    // Smoke cells are sized for CI wall-clock, far below the estimator
    // convergence horizon; their tables are exercise, not evidence.
    g_check_enabled = !args.smoke;

    wait_regime_table(
        "waiting mode: cycles per critical section, hot loop (cs 100)",
        "hot", /*cs=*/100, /*think=*/0, args);
    wait_regime_table(
        "waiting mode: cycles per critical section, think U[0,2000)",
        "think2k", /*cs=*/100, /*think=*/2000, args);
    // Advisory: long sections under preemption are dominated by the
    // holder losing its quantum mid-hold, which no *waiting* mode can
    // repair (that cost belongs to protocol selection / cohort
    // handoff); the table documents the shape without an envelope.
    if (args.full)
        wait_regime_table(
            "waiting mode: cycles per critical section, long sections "
            "(cs 1000, think U[0,500)) [advisory]",
            "longcs", /*cs=*/1000, /*think=*/500, args, /*checks=*/false);

    if (args.native)
        native_table(args);

    if (!g_records.write("BENCH_wait.json")) {
        std::cerr << "failed to write BENCH_wait.json\n";
        return 1;
    }
    std::cout << "\nwrote BENCH_wait.json (" << g_records.size()
              << " records)\n";
    g_failures += finish_trace(args);
    if (g_check_enabled && g_spin_crossover_cells == 0) {
        ++g_failures;
        std::cout << "  CHECK FAIL: no regime produced a >= 2x cell where "
                     "always-spin loses to a static alternative — the "
                     "beats-spin claim was never exercised\n";
    }
    if (g_failures > 0) {
        std::cout << g_failures << " waiting-mode check(s) FAILED\n";
        return 1;
    }
    std::cout << "all waiting-mode checks passed (reactive within the "
                 "envelope of the best static mode per cell, beats "
                 "always-spin in every >= 2x crossover cell; "
              << g_spin_crossover_cells << " crossover cell(s))\n";
    return 0;
}
