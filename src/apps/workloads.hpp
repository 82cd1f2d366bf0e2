/**
 * @file
 * Application kernels (thesis Sections 3.5.6 and 4.6.2, Table 4.2).
 *
 * Each kernel reproduces the *synchronization pattern* of one of the
 * thesis' applications — which objects exist, which operations hit
 * them, at what grain, with what contention profile — which is the only
 * property the thesis uses the applications for. The numerical payload
 * is a deterministic stand-in (seeded pseudo-random compute delays on
 * the simulator), a substitution documented in DESIGN.md.
 *
 * Chapter 3 kernels (protocol selection):
 *  - Gamteb: photon-transport Monte Carlo; 9 interaction counters
 *    updated with fetch-and-increment, one much hotter than the rest.
 *  - TSP: branch-and-bound over a shared work queue whose enqueue /
 *    dequeue tickets are fetch-and-increment (fine grain, hot).
 *  - AQ: adaptive quadrature over the same queue at coarser grain.
 *  - MP3D: particle-in-cell; per-move cell locks (low contention) plus
 *    a per-iteration collision-count lock (high contention).
 *  - Cholesky: sparse-factorization-like task loop with per-column
 *    locks of skewed popularity.
 *
 * Chapter 4 kernels (waiting algorithms) are in waiting_workloads.hpp.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "barrier/barrier_concepts.hpp"
#include "fetchop/fetchop_concepts.hpp"
#include "locks/lock_concepts.hpp"
#include "platform/prng.hpp"
#include "rw/rw_concepts.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"

namespace reactive::apps {

/**
 * Gamteb-like kernel. @tparam F FetchOp implementation (the quantity
 * under study). Each processor simulates `particles` particle
 * histories; each history performs a few interaction-counter updates
 * with a skewed counter distribution (the thesis observes one of the
 * nine counters is hot enough at 128 processors to want combining).
 * Returns simulated elapsed cycles.
 */
template <typename F>
std::uint64_t run_gamteb(std::uint32_t procs, std::uint32_t particles_per_proc,
                         std::uint64_t seed = 1)
{
    constexpr std::uint32_t kCounters = 9;
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    std::vector<std::shared_ptr<F>> counters;
    counters.reserve(kCounters);
    for (std::uint32_t i = 0; i < kCounters; ++i)
        counters.push_back(std::make_shared<F>(procs));
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=, &m] {
            (void)m;
            typename F::Node nodes[kCounters];
            for (std::uint32_t i = 0; i < particles_per_proc; ++i) {
                // Track a particle: a few flight segments, each ending
                // in an interaction that bumps one counter. Counter 0
                // absorbs half of all interactions (the hot one).
                const std::uint32_t events = 2 + sim::random_below(3);
                for (std::uint32_t e = 0; e < events; ++e) {
                    sim::delay(120 + sim::random_below(240));  // transport
                    const std::uint32_t r = sim::random_below(2 * kCounters);
                    const std::uint32_t c =
                        r < kCounters ? 0 : r - kCounters + 1;
                    counters[c % kCounters]->fetch_add(nodes[c % kCounters],
                                                       1);
                }
            }
        });
    }
    m.run();
    return m.elapsed();
}

/**
 * Work-queue kernel shared by the TSP and AQ reproductions: a bounded
 * concurrent FIFO (Gottlieb-style) whose tickets come from two
 * fetch-and-increment objects — the synchronization structure the
 * thesis describes for both applications [18]. Slots hand work across
 * with full/empty flags.
 *
 * Each task performs `grain` +- 50% cycles of work and spawns children
 * until `total_tasks` have been created; contention on the ticket
 * counters scales inversely with grain, which is exactly the TSP vs AQ
 * contrast (TSP = fine grain, AQ = coarse grain).
 */
template <typename F>
std::uint64_t run_queue_app(std::uint32_t procs, std::uint32_t total_tasks,
                            std::uint32_t grain, std::uint32_t branching = 2,
                            std::uint64_t seed = 1)
{
    struct Slot {
        sim::Atomic<std::uint32_t> full{0};
        std::uint32_t payload = 0;  // remaining spawn depth hint
    };
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto slots = std::make_shared<std::vector<Slot>>(total_tasks + procs + 1);
    auto head = std::make_shared<F>(procs);   // dequeue tickets
    auto tail = std::make_shared<F>(procs);   // enqueue tickets
    auto spawned = std::make_shared<sim::Atomic<std::uint32_t>>(0);
    auto done = std::make_shared<sim::Atomic<std::uint32_t>>(0);

    // Seed tasks: one per processor.
    for (std::uint32_t p = 0; p < procs && p < total_tasks; ++p) {
        (*slots)[p].payload = 1;
        (*slots)[p].full.store(1);
    }

    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename F::Node hn, tn;
            for (;;) {
                if (static_cast<std::uint32_t>(done->load()) >= total_tasks)
                    return;
                const auto ticket =
                    static_cast<std::uint32_t>(head->fetch_add(hn, 1));
                if (ticket >= total_tasks)
                    return;  // queue drained
                Slot& s = (*slots)[ticket];
                while (s.full.load() == 0)
                    sim::pause();  // producer still writing
                // Execute the task.
                sim::delay(grain / 2 + sim::random_below(grain));
                // Spawn children while the task budget lasts.
                for (std::uint32_t c = 0; c < branching; ++c) {
                    const auto id = static_cast<std::uint32_t>(
                        spawned->fetch_add(1) + procs);
                    if (id >= total_tasks)
                        break;
                    const auto enq =
                        static_cast<std::uint32_t>(tail->fetch_add(tn, 1)) +
                        procs;
                    if (enq < slots->size()) {
                        (*slots)[enq].payload = 1;
                        (*slots)[enq].full.store(1);
                    }
                }
                done->fetch_add(1);
            }
        });
    }
    m.run();
    return m.elapsed();
}

/// TSP reproduction: fine-grained tasks (hot ticket counters).
template <typename F>
std::uint64_t run_tsp(std::uint32_t procs, std::uint32_t tours = 600,
                      std::uint64_t seed = 1)
{
    return run_queue_app<F>(procs, tours, /*grain=*/700, 2, seed);
}

/// AQ reproduction: coarse-grained tasks (cool ticket counters).
template <typename F>
std::uint64_t run_aq(std::uint32_t procs, std::uint32_t intervals = 300,
                     std::uint64_t seed = 1)
{
    return run_queue_app<F>(procs, intervals, /*grain=*/4000, 2, seed);
}

/**
 * MP3D-like kernel. @tparam L lock implementation. `cells` cell locks
 * see scattered low-contention updates as particles move; after each
 * sweep every processor updates the single collision-count lock (hot),
 * reproducing the two contention regimes the thesis describes.
 */
template <typename L>
std::uint64_t run_mp3d(std::uint32_t procs, std::uint32_t particles_per_proc,
                       std::uint32_t sweeps = 3, std::uint32_t cells = 256,
                       std::uint64_t seed = 1)
{
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto cell_locks = std::make_shared<std::vector<std::unique_ptr<L>>>();
    for (std::uint32_t i = 0; i < cells; ++i)
        cell_locks->push_back(std::make_unique<L>());
    auto collision_lock = std::make_shared<L>();
    auto arrived = std::make_shared<sim::Atomic<std::uint32_t>>(0);

    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t s = 0; s < sweeps; ++s) {
                for (std::uint32_t i = 0; i < particles_per_proc; ++i) {
                    sim::delay(150 + sim::random_below(150));  // move particle
                    L& cl = *(*cell_locks)[sim::random_below(cells)];
                    typename L::Node n;
                    cl.lock(n);
                    sim::delay(40);  // update cell parameters
                    cl.unlock(n);
                }
                // End of sweep: everyone updates the collision counts.
                {
                    typename L::Node n;
                    collision_lock->lock(n);
                    sim::delay(60);
                    collision_lock->unlock(n);
                }
                // Crude sweep barrier via arrival counting.
                const std::uint32_t target = (s + 1) * procs;
                arrived->fetch_add(1);
                while (static_cast<std::uint32_t>(arrived->load()) < target)
                    sim::delay(50 + sim::random_below(50));
            }
        });
    }
    m.run();
    return m.elapsed();
}

/**
 * Cholesky-like kernel: a task loop over sparse column updates with
 * per-column locks of skewed popularity (dense trailing columns are
 * touched by many updates — mild but non-uniform contention).
 */
template <typename L>
std::uint64_t run_cholesky(std::uint32_t procs, std::uint32_t updates_per_proc,
                           std::uint32_t columns = 128, std::uint64_t seed = 1)
{
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto col_locks = std::make_shared<std::vector<std::unique_ptr<L>>>();
    for (std::uint32_t i = 0; i < columns; ++i)
        col_locks->push_back(std::make_unique<L>());

    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t i = 0; i < updates_per_proc; ++i) {
                sim::delay(300 + sim::random_below(500));  // numeric update
                // Skew toward the trailing (dense) columns: square the
                // uniform draw.
                const std::uint32_t r = sim::random_below(columns);
                const std::uint32_t col =
                    columns - 1 - (r * r) / (columns ? columns : 1) % columns;
                L& cl = *(*col_locks)[col % columns];
                typename L::Node n;
                cl.lock(n);
                sim::delay(80);  // scatter-add into the column
                cl.unlock(n);
            }
        });
    }
    m.run();
    return m.elapsed();
}

/**
 * Minimal lock-crossover kernel: each processor loops
 * {lock; `cs`-cycle critical section; unlock; random think in
 * [0, think)}. This is the single source of truth for the calibration
 * figure's cells and their test-side envelope checks
 * (bench/fig_calibration.cpp, tests/test_cost_model.cpp) — both must
 * measure the same kernel or the acceptance test validates a
 * different experiment than the figure reports. Pass a constructed
 * lock to parameterize policies; inspect it after return.
 *
 * @param stats_out when non-null, receives the machine's final counter
 *        snapshot (mem ops, cross-socket traffic, ...) after the run.
 * @return simulated elapsed cycles.
 */
template <typename L>
std::uint64_t run_lock_cycle(std::uint32_t procs, std::uint32_t iters,
                             std::uint32_t cs, std::uint32_t think,
                             std::uint64_t seed = 1,
                             std::shared_ptr<L> lock = nullptr,
                             sim::Topology topo = {},
                             sim::MachineStats* stats_out = nullptr)
{
    sim::Machine m(procs, topo, sim::CostModel::alewife(), seed);
    std::shared_ptr<L> l = std::move(lock);
    if constexpr (std::is_default_constructible_v<L>) {
        if (!l)
            l = std::make_shared<L>();
    }
    assert(l != nullptr && "lock type without default ctor must be passed in");
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename L::Node node;
            for (std::uint32_t i = 0; i < iters; ++i) {
                l->lock(node);
                sim::delay(cs);
                l->unlock(node);
                if (think > 0)
                    sim::delay(sim::random_below(think));
            }
        });
    }
    m.run();
    if (stats_out != nullptr)
        *stats_out = m.stats();
    return m.elapsed();
}

/**
 * Oversubscribed lock-crossover kernel: `factor` threads per processor
 * run the run_lock_cycle loop on a machine whose processors hold
 * `costs.hardware_contexts` resident contexts each. With factor > 1 a
 * spinning waiter occupies a context the holder may need — the regime
 * where two-phase and immediate-park waiting pay off (Chapter 4's
 * multiprogramming axis, here as a second axis under the reactive
 * waiting subsystem). Pass a cost model with a nonzero
 * `preempt_quantum`: without preemption a single-context processor
 * whose resident thread spins forever would livelock the descheduled
 * holder (always-spin at 1 context is exactly the pathology the figure
 * demonstrates, and the quantum is what lets it *finish*, slowly,
 * instead of hanging the run).
 *
 * @param stats_out also carries `preemptions` and park/wake counts.
 * @return simulated elapsed cycles.
 */
template <typename L>
std::uint64_t run_lock_cycle_oversubscribed(
    std::uint32_t procs, std::uint32_t factor, std::uint32_t iters,
    std::uint32_t cs, std::uint32_t think, std::uint64_t seed = 1,
    std::shared_ptr<L> lock = nullptr,
    sim::CostModel costs = sim::CostModel::alewife(),
    sim::MachineStats* stats_out = nullptr)
{
    assert(factor >= 1);
    sim::Machine m(procs, costs, seed);
    std::shared_ptr<L> l = std::move(lock);
    if constexpr (std::is_default_constructible_v<L>) {
        if (!l)
            l = std::make_shared<L>();
    }
    assert(l != nullptr && "lock type without default ctor must be passed in");
    const std::uint32_t threads = procs * factor;
    for (std::uint32_t t = 0; t < threads; ++t) {
        m.spawn(t % procs, [=] {
            typename L::Node node;
            for (std::uint32_t i = 0; i < iters; ++i) {
                l->lock(node);
                sim::delay(cs);
                l->unlock(node);
                if (think > 0)
                    sim::delay(sim::random_below(think));
            }
        });
    }
    m.run();
    if (stats_out != nullptr)
        *stats_out = m.stats();
    return m.elapsed();
}

// ---- reader-writer workloads (src/rw/) --------------------------------

/**
 * Shared-table kernel parameterized by read fraction: each processor
 * performs `ops_per_proc` operations on one table guarded by a single
 * rwlock; an operation is a lookup (shared acquisition, short hold)
 * with probability `read_permille`/1000, otherwise an update (exclusive
 * acquisition, longer hold). This is the canonical read-mostly /
 * write-heavy axis the mutex-only kernels cannot model: at high read
 * fractions reader parallelism dominates and the centralized counter
 * protocol wins; at low read fractions the lock degenerates to a
 * contended mutex and the queue protocol wins.
 *
 * The trailing arguments make it the rwlock twin of
 * run_lock_cycle_oversubscribed: `factor` threads per processor each
 * run `ops_per_proc` operations (pass a cost model with a nonzero
 * `preempt_quantum` when factor > 1), and with `phase_ops` > 0 a
 * thread's operation i runs at `alt_read_permille` when
 * i / phase_ops is odd. Phases are per thread, with no barrier between
 * them: a spinning barrier would itself be a waiting-mode experiment.
 * `think` = 0 means no think time.
 *
 * @tparam RW RwLock implementation (the quantity under study).
 * @return simulated elapsed cycles.
 */
template <RwLock RW>
std::uint64_t run_rw_mix(std::uint32_t procs, std::uint32_t ops_per_proc,
                         std::uint32_t read_permille, std::uint64_t seed = 1,
                         std::uint32_t read_hold = 60,
                         std::uint32_t write_hold = 140,
                         std::uint32_t think = 400, std::uint32_t factor = 1,
                         std::shared_ptr<RW> lock = nullptr,
                         sim::CostModel costs = sim::CostModel::alewife(),
                         sim::MachineStats* stats_out = nullptr,
                         std::uint32_t phase_ops = 0,
                         std::uint32_t alt_read_permille = 0)
{
    assert(factor >= 1);
    sim::Machine m(procs, costs, seed);
    if (!lock)
        lock = std::make_shared<RW>();
    const std::uint32_t threads = procs * factor;
    for (std::uint32_t t = 0; t < threads; ++t) {
        m.spawn(t % procs, [=] {
            for (std::uint32_t i = 0; i < ops_per_proc; ++i) {
                typename RW::Node n;
                const bool alt = phase_ops != 0 && (i / phase_ops) % 2 == 1;
                if (sim::random_below(1000) <
                    (alt ? alt_read_permille : read_permille)) {
                    lock->lock_read(n);
                    sim::delay(read_hold);
                    lock->unlock_read(n);
                } else {
                    lock->lock_write(n);
                    sim::delay(write_hold);
                    lock->unlock_write(n);
                }
                if (think > 0)
                    sim::delay(sim::random_below(think));
            }
        });
    }
    m.run();
    if (stats_out != nullptr)
        *stats_out = m.stats();
    return m.elapsed();
}

/// Read-mostly traffic (95% lookups): the single most common real-world
/// rwlock scenario — caches, routing tables, configuration snapshots.
template <RwLock RW>
std::uint64_t run_read_mostly(std::uint32_t procs, std::uint32_t ops_per_proc,
                              std::uint64_t seed = 1)
{
    return run_rw_mix<RW>(procs, ops_per_proc, /*read_permille=*/950, seed);
}

/// Write-heavy traffic (25% lookups): the rwlock degenerates toward a
/// contended mutex; queue handoff and local spinning pay off.
template <RwLock RW>
std::uint64_t run_write_heavy(std::uint32_t procs, std::uint32_t ops_per_proc,
                              std::uint64_t seed = 1)
{
    return run_rw_mix<RW>(procs, ops_per_proc, /*read_permille=*/250, seed);
}

/**
 * Phase-shifting kernel: the read fraction flips between read-mostly
 * and write-heavy every `ops_per_phase` operations (per processor),
 * modeling a cache that alternates between serving lookups and taking
 * bursts of invalidations. A reactive rwlock must detect each regime
 * change and re-converge to the protocol the regime favors — the
 * rwlock analogue of the time-varying contention experiment
 * (Section 3.7.2).
 */
template <RwLock RW>
std::uint64_t run_rw_phases(std::uint32_t procs, std::uint32_t phases,
                            std::uint32_t ops_per_phase,
                            std::uint64_t seed = 1,
                            std::uint32_t read_permille_hi = 950,
                            std::uint32_t read_permille_lo = 100,
                            std::uint32_t read_hold = 60,
                            std::uint32_t write_hold = 140,
                            std::uint32_t think = 400)
{
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto lock = std::make_shared<RW>();
    auto arrived = std::make_shared<sim::Atomic<std::uint32_t>>(0);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t ph = 0; ph < phases; ++ph) {
                const std::uint32_t permille =
                    (ph % 2 == 0) ? read_permille_hi : read_permille_lo;
                for (std::uint32_t i = 0; i < ops_per_phase; ++i) {
                    typename RW::Node n;
                    if (sim::random_below(1000) < permille) {
                        lock->lock_read(n);
                        sim::delay(read_hold);
                        lock->unlock_read(n);
                    } else {
                        lock->lock_write(n);
                        sim::delay(write_hold);
                        lock->unlock_write(n);
                    }
                    sim::delay(sim::random_below(think));
                }
                // Crude phase barrier via arrival counting, so regime
                // changes hit every processor at once.
                const std::uint32_t target = (ph + 1) * procs;
                arrived->fetch_add(1);
                while (static_cast<std::uint32_t>(arrived->load()) < target)
                    sim::delay(50 + sim::random_below(50));
            }
        });
    }
    m.run();
    return m.elapsed();
}

// ---- barrier workloads (src/barrier/) ---------------------------------

/**
 * Uniform-arrival barrier kernel: `episodes` rounds of compute + arrive
 * per processor, with per-episode compute drawn uniformly from
 * [0, 2*compute). Small compute windows bunch the arrivals — the
 * central counter serializes them and the combining tree wins; this is
 * the barrier analogue of the high-contention end of the spin-lock
 * sweep.
 *
 * @tparam B Barrier implementation (the quantity under study).
 * @param barrier optional pre-built barrier (for post-run inspection of
 *        reactive state); constructed internally when null. Must be
 *        fresh: barrier Nodes are bound to their barrier for life (they
 *        carry the episode sense), and each run creates its own, so a
 *        barrier cannot be carried across runs the way a lock can.
 * @param stats_out when non-null, receives the machine's final counter
 *        snapshot (mem ops, cross-socket traffic, ...) after the run.
 * @return simulated elapsed cycles.
 */
template <Barrier B>
std::uint64_t run_barrier_uniform(std::uint32_t procs, std::uint32_t episodes,
                                  std::uint32_t compute = 400,
                                  std::uint64_t seed = 1,
                                  std::shared_ptr<B> barrier = nullptr,
                                  sim::Topology topo = {},
                                  sim::MachineStats* stats_out = nullptr)
{
    sim::Machine m(procs, topo, sim::CostModel::alewife(), seed);
    auto bar = barrier ? std::move(barrier) : std::make_shared<B>(procs);
    auto nodes = std::make_shared<std::vector<typename B::Node>>(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename B::Node& n = (*nodes)[p];
            for (std::uint32_t e = 0; e < episodes; ++e) {
                if (compute > 0)
                    sim::delay(sim::random_below(2 * compute));
                bar->arrive(n);
            }
        });
    }
    m.run();
    if (stats_out != nullptr)
        *stats_out = m.stats();
    return m.elapsed();
}

/**
 * Straggler-arrival barrier kernel (load imbalance): processor 0
 * computes `straggle` extra cycles every episode while the rest arrive
 * almost together and wait. The episode's critical path is the
 * straggler's solo pass through the protocol — everyone else's arrival
 * cost and the wakeup fan-out are absorbed into the next straggle
 * window — so the cheapest protocol is the one with the smallest solo
 * critical path: one RMW + one flip for the centralized counter versus
 * a full climb for the tree. This is the skewed regime of the reactive
 * barrier's completer-streak signal. (A *rotating* straggler is a
 * different regime: there the previous episode's wakeup latency lands
 * on the next straggler's critical path, which punishes the central
 * sense line's O(P) refill storm; the correctness tests cover it.)
 */
template <Barrier B>
std::uint64_t run_barrier_straggler(std::uint32_t procs,
                                    std::uint32_t episodes,
                                    std::uint32_t straggle = 30000,
                                    std::uint32_t compute = 200,
                                    std::uint64_t seed = 1,
                                    std::shared_ptr<B> barrier = nullptr,
                                    sim::Topology topo = {})
{
    sim::Machine m(procs, topo, sim::CostModel::alewife(), seed);
    auto bar = barrier ? std::move(barrier) : std::make_shared<B>(procs);
    auto nodes = std::make_shared<std::vector<typename B::Node>>(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename B::Node& n = (*nodes)[p];
            for (std::uint32_t e = 0; e < episodes; ++e) {
                sim::delay(sim::random_below(compute + 1));
                if (p == 0)
                    sim::delay(straggle);  // the imbalanced participant
                bar->arrive(n);
            }
        });
    }
    m.run();
    return m.elapsed();
}

/**
 * Phase-shifting barrier kernel: `phases` alternating blocks of
 * `episodes_per_phase` bunched-arrival episodes (tree territory) and
 * straggler episodes (central territory). Neither static protocol is
 * right for both regimes; a reactive barrier must detect each phase
 * change from its episode signals alone and re-converge — the
 * barrier analogue of the time-varying contention experiment
 * (Section 3.7.2).
 */
template <Barrier B>
std::uint64_t run_barrier_phases(std::uint32_t procs, std::uint32_t phases,
                                 std::uint32_t episodes_per_phase,
                                 std::uint32_t straggle = 30000,
                                 std::uint32_t compute = 200,
                                 std::uint64_t seed = 1,
                                 std::shared_ptr<B> barrier = nullptr,
                                 sim::Topology topo = {})
{
    sim::Machine m(procs, topo, sim::CostModel::alewife(), seed);
    auto bar = barrier ? std::move(barrier) : std::make_shared<B>(procs);
    auto nodes = std::make_shared<std::vector<typename B::Node>>(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename B::Node& n = (*nodes)[p];
            for (std::uint32_t ph = 0; ph < phases; ++ph) {
                const bool skewed_phase = ph % 2 == 1;
                for (std::uint32_t e = 0; e < episodes_per_phase; ++e) {
                    sim::delay(sim::random_below(compute + 1));
                    if (skewed_phase && p == 0)
                        sim::delay(straggle);
                    bar->arrive(n);
                }
                // The barrier itself separates the phases: every
                // processor changes regime on the same episode.
            }
        });
    }
    m.run();
    return m.elapsed();
}

}  // namespace reactive::apps
