// Tests for the runtime cost-calibration layer (src/core/cost_model.hpp)
// and its threading through the reactive primitives:
//
//  - CostEstimator: deterministic EWMA convergence (monotone approach,
//    exact settle on constant input), fast start from wrong seeds,
//    first-switch-sample replacement, derived residuals.
//  - CalibratedCompetitive3Policy: converges to the correct protocol
//    from 10x-wrong seeds in BOTH directions on the simulated machine;
//    re-probe cadence is bounded (exponential backoff, reset on real
//    switches).
//  - CalibratedHysteresisPolicy: streak thresholds derived from the
//    estimator, clamped.
//  - Zero-traffic claim: enabling calibration adds no simulated memory
//    operations on the uncontended fast path (the acceptance check).
//  - Reduced crossover envelope: calibrated-with-wrong-seeds within 10%
//    of the best static protocol at representative (P, regime) points.
//  - Native storms over lock/rwlock/barrier with calibrating policies
//    (run under TSan in CI).

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "apps/workloads.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/cost_model.hpp"
#include "core/reactive_mutex.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/tts_lock.hpp"
#include "platform/native_platform.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"

namespace reactive {
namespace {

using sim::SimPlatform;

// ---- CostEstimator ----------------------------------------------------

TEST(CostEstimatorTest, DefaultsReproduceThesisConstants)
{
    CostEstimator est;
    EXPECT_EQ(est.residual_tts_contended(), 150u);
    EXPECT_EQ(est.residual_queue_empty(), 15u);
    EXPECT_EQ(est.switch_round_trip(), 8800u);
}

TEST(CostEstimatorTest, MonotoneConvergenceToConstantInput)
{
    CostEstimator est;
    std::uint64_t prev = est.tts_uncontended();
    for (int i = 0; i < 200; ++i) {
        est.sample_tts(/*contended=*/false, 500);
        const std::uint64_t v = est.tts_uncontended();
        EXPECT_GE(v, prev) << "EWMA must approach the sample monotonically";
        EXPECT_LE(v, 500u) << "EWMA must never overshoot the sample";
        prev = v;
    }
    EXPECT_EQ(prev, 500u) << "constant input must settle exactly";

    // And downward, from a too-high seed.
    CostEstimator high(CostEstimator::Params{}.scaled(10, 1));
    prev = high.queue_empty();
    EXPECT_EQ(prev, 650u);
    for (int i = 0; i < 200; ++i) {
        high.sample_queue(/*empty=*/true, 65);
        const std::uint64_t v = high.queue_empty();
        EXPECT_LE(v, prev);
        EXPECT_GE(v, 65u);
        prev = v;
    }
    EXPECT_EQ(prev, 65u);
}

TEST(CostEstimatorTest, FastStartCorrectsWrongSeedQuickly)
{
    // A 10x-wrong seed must lose most of its weight within a handful of
    // samples (gain 1/2 for the first 4), not linger for dozens.
    CostEstimator est(CostEstimator::Params{}.scaled(10, 1));
    EXPECT_EQ(est.tts_contended(), 2500u);
    for (int i = 0; i < 4; ++i)
        est.sample_tts(/*contended=*/true, 250);
    EXPECT_LE(est.tts_contended(), 250u + (2500u - 250u) / 16)
        << "after 4 fast-start samples at gain 1/2, seed weight <= 1/16";
}

TEST(CostEstimatorTest, FirstSwitchSampleReplacesSeed)
{
    CostEstimator est(CostEstimator::Params{}.scaled(10, 1));
    EXPECT_EQ(est.switch_one_way(), 1000u);
    est.sample_switch(80);
    EXPECT_EQ(est.switch_one_way(), 80u)
        << "switches are rare; the first measurement supersedes the seed";
    est.sample_switch(80);
    EXPECT_EQ(est.switch_one_way(), 80u);
}

TEST(CostEstimatorTest, ResidualsTrackClassEstimates)
{
    CostEstimator est;
    // Cheapen the queue's waited class: the TTS residual grows.
    for (int i = 0; i < 100; ++i)
        est.sample_queue(/*empty=*/false, 50);
    EXPECT_EQ(est.residual_tts_contended(), 200u);
    // Cross the estimates: the residual floors at 1, never underflows.
    for (int i = 0; i < 200; ++i)
        est.sample_tts(/*contended=*/true, 10);
    EXPECT_EQ(est.residual_tts_contended(), 1u);
}

// ---- CalibratedHysteresisPolicy ---------------------------------------

// ---- socket-split latency classes (NUMA two-level estimator) ----------

TEST(SocketSplitTest, FlatSequenceIsBitIdenticalToPlainEwma)
{
    // With no cross-socket samples the split stat must be the plain
    // EWMA — value for value, count for count — which is what keeps
    // every flat-topology benchmark number byte-identical.
    EwmaStat plain{100};
    SocketSplitStat split{100};
    std::uint64_t sample = 37;
    for (int i = 0; i < 64; ++i) {
        sample = sample * 13 % 997;
        plain.update(sample, 3);
        split.update(sample, 3, /*cross=*/false);
        ASSERT_EQ(split.value(), plain.value) << "sample " << i;
    }
    EXPECT_EQ(split.count(), plain.count);
    EXPECT_EQ(split.cross_frac, 0u);
}

TEST(SocketSplitTest, SeparatesPopulationsAndBlendsByFraction)
{
    // Alternating 100-cycle local and 400-cycle cross handoffs: one
    // EWMA would sit uselessly between the populations while claiming
    // to track both; the split tracks each and reports the mix.
    SocketSplitStat s{100};
    for (int i = 0; i < 200; ++i)
        s.update(i % 2 == 0 ? 100 : 400, 3, /*cross=*/i % 2 != 0);
    EXPECT_NEAR(static_cast<double>(s.local.value), 100.0, 10.0);
    EXPECT_NEAR(static_cast<double>(s.remote.value), 400.0, 10.0);
    EXPECT_NEAR(static_cast<double>(s.cross_frac), 128.0, 16.0);
    EXPECT_GT(s.value(), 200u);
    EXPECT_LT(s.value(), 300u);

    // An all-cross phase shifts the blend toward the remote population
    // without disturbing the local estimate.
    for (int i = 0; i < 64; ++i)
        s.update(400, 3, /*cross=*/true);
    EXPECT_GT(s.value(), 350u);
    EXPECT_NEAR(static_cast<double>(s.local.value), 100.0, 10.0);
}

TEST(SocketSplitTest, EstimatorResidualsUseTheBlend)
{
    // Residuals respond to the traffic mix: the same contended-TTS
    // samples read as a larger residual when the queue handoffs they
    // are compared against are mostly socket-local.
    CostEstimator est;
    for (int i = 0; i < 64; ++i) {
        est.sample_tts(true, 500, /*cross=*/i % 2 != 0);
        est.sample_queue(false, i % 2 != 0 ? 400 : 150, i % 2 != 0);
    }
    const std::uint64_t mixed = est.residual_tts_contended();
    // queue_waited blends 150/400 -> ~275; residual ~= 500 - 275.
    EXPECT_GT(mixed, 150u);
    EXPECT_LT(mixed, 350u);
    EXPECT_GT(est.split_queue_waited().remote.count, 0u);
    EXPECT_GT(est.split_queue_waited().local.count, 0u);
}

TEST(SocketSplitTest, LadderRungsSplitBySocketBit)
{
    CalibratedLadderPolicy::Params pp;
    pp.protocols = 3;
    pp.probe_period = 0;  // no scheduled probes: pure measurement
    CalibratedLadderPolicy pol(pp);
    // Rung 0 samples alternate 100 local / 300 cross.
    for (int i = 0; i < 64; ++i)
        (void)pol.next_protocol({0, 0, i % 2 == 0 ? 100 : 300, i % 2 != 0});
    EXPECT_GT(pol.latency(0), 150u);
    EXPECT_LT(pol.latency(0), 250u);
}

TEST(SocketSplitTest, ReactiveLockFeedsBothPopulationsOnSocketedMachine)
{
    // End to end: a hot loop on a two-socket machine must populate
    // both the local and the remote class of the writer-fed estimator
    // (the holder computes the bit from holder-only state).
    using L = ReactiveNodeLock<SimPlatform, CalibratedCompetitive3Policy>;
    auto lock = std::make_shared<L>();
    (void)apps::run_lock_cycle<L>(8, 120, /*cs=*/80, /*think=*/150,
                                  /*seed=*/1, lock, sim::Topology{2, 4});
    const CostEstimator& est = lock->inner().policy().estimator();
    const bool split_populated =
        est.split_tts_contended().remote.count > 0 ||
        est.split_queue_waited().remote.count > 0;
    EXPECT_TRUE(split_populated);
    EXPECT_GT(est.samples(), 0u);
}

TEST(CalibratedHysteresisTest, ThresholdsDerivedFromEstimator)
{
    CalibratedHysteresisPolicy h;
    EXPECT_EQ(h.to_queue_streak(), 8800u / 150u);
    EXPECT_EQ(h.to_tts_streak(), 8800u / 15u);

    // Measured switch cost collapses: round trip 2*44*1 = 88, so the
    // TTS->queue threshold (88/150 = 0) clamps at kMinStreak and the
    // queue->TTS threshold derives as 88/15 = 5.
    h.on_switch_cycles(1);
    EXPECT_EQ(h.estimator().switch_one_way(), 1u);
    EXPECT_EQ(h.to_queue_streak(), 2u);
    EXPECT_EQ(h.to_tts_streak(), 5u);
}

TEST(CalibratedHysteresisTest, BehavesLikeHysteresisAtDerivedStreaks)
{
    CalibratedHysteresisPolicy h;
    const std::uint32_t x = h.to_queue_streak();
    for (std::uint32_t i = 0; i + 1 < x; ++i)
        EXPECT_EQ(h.next_protocol({0, +1}), 0u);
    EXPECT_EQ(h.next_protocol({0, 0}), 0u) << "a break must reset the streak";
    for (std::uint32_t i = 0; i + 1 < x; ++i)
        EXPECT_EQ(h.next_protocol({0, +1}), 0u);
    EXPECT_EQ(h.next_protocol({0, +1}), 1u);
}

// ---- CalibratedCompetitive3Policy: probing --------------------------

TEST(CalibratedCompetitive3Test, ReprobeCadenceIsBoundedAndBacksOff)
{
    CalibratedCompetitive3Policy::Params pp;
    pp.probe_period = 128;
    pp.probe_len = 2;
    CalibratedCompetitive3Policy p(pp);

    // Drive 100k signal-free observed acquisitions, simulating the
    // primitive: every "switch now" flips the mode and notifies.
    bool in_tts = true;
    std::uint64_t switches = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        const std::uint32_t cur = in_tts ? 0 : 1;
        const bool sw =
            p.next_protocol({cur, 0, in_tts ? 50 : 100}) != cur;
        if (sw) {
            p.on_switch();
            p.on_switch_cycles(100);
            in_tts = !in_tts;
            ++switches;
        }
    }
    EXPECT_TRUE(in_tts) << "probes must always return home";
    EXPECT_EQ(switches, 2 * p.probes_started())
        << "every probe is exactly one round trip";
    // Backoff: periods 128, 256, ..., 8192, then every 8192 — about 17
    // probes in 100k acquisitions; without backoff it would be ~780.
    EXPECT_GE(p.probes_started(), 5u);
    EXPECT_LE(p.probes_started(), 20u);
}

TEST(CalibratedCompetitive3Test, ZeroPeriodDisablesProbing)
{
    CalibratedCompetitive3Policy::Params pp;
    pp.probe_period = 0;
    CalibratedCompetitive3Policy p(pp);
    for (std::uint64_t i = 0; i < 50000; ++i)
        EXPECT_EQ(p.next_protocol({0, 0, 50}), 0u);
    EXPECT_EQ(p.probes_started(), 0u);
}

TEST(CalibratedCompetitive3Test, SignalDrivenSwitchUsesMeasuredCosts)
{
    // With fresh measurements equal to the thesis constants, the switch
    // point must match Competitive3Policy's: ceil(8800/150) = 59.
    CalibratedCompetitive3Policy::Params pp;
    pp.probe_period = 0;  // isolate the competitive logic
    CalibratedCompetitive3Policy p(pp);
    int n = 0;
    bool switched = false;
    while (!switched && n < 100) {
        switched = p.next_protocol({0, +1}) == 1;
        ++n;
    }
    EXPECT_TRUE(switched);
    EXPECT_EQ(n, 59);
}

// ---- convergence from wrong seeds on the simulated machine ------------

// The same mis-tuning presets fig_calibration measures (single source
// of truth in CostEstimator::Params).
CostEstimator::Params reluctant_seeds()
{
    return CostEstimator::Params::mis_tuned_reluctant();
}

CostEstimator::Params eager_seeds()
{
    return CostEstimator::Params::mis_tuned_eager();
}

using CalLockSim = ReactiveLock<SimPlatform, CalibratedCompetitive3Policy>;

struct SimRunResult {
    typename CalLockSim::Mode final_mode;
    std::uint64_t protocol_changes;
    double cycles_per_op;
};

using CalNodeLockSim =
    ReactiveNodeLock<SimPlatform, CalibratedCompetitive3Policy>;

SimRunResult run_calibrated_lock(std::uint32_t procs, std::uint32_t iters,
                                 std::uint32_t think,
                                 CostEstimator::Params seeds,
                                 std::uint64_t seed = 1)
{
    CalibratedCompetitive3Policy::Params pp;
    pp.costs = seeds;
    auto lock = std::make_shared<CalNodeLockSim>(
        ReactiveLockParams{}, CalibratedCompetitive3Policy(pp));
    const std::uint64_t elapsed = apps::run_lock_cycle<CalNodeLockSim>(
        procs, iters, /*cs=*/100, think, seed, lock);
    return {lock->inner().mode(), lock->inner().protocol_changes(),
            static_cast<double>(elapsed) /
                (static_cast<double>(procs) * iters)};
}

TEST(CalibrationConvergenceTest, ReluctantSeedsStillReachQueueUnderContention)
{
    // 16 contenders, short think: the queue protocol is clearly right
    // (static TTS is ~3.5x worse). Seeded to believe switching costs
    // 10x more than it does and that residuals are ~zero, the policy
    // must measure its way to the queue protocol anyway.
    const SimRunResult r = run_calibrated_lock(16, 1200, 500,
                                               reluctant_seeds());
    EXPECT_EQ(r.final_mode, CalLockSim::Mode::kQueue);
    EXPECT_GE(r.protocol_changes, 1u);
    EXPECT_LE(r.protocol_changes, 64u) << "converge, not oscillate";
}

TEST(CalibrationConvergenceTest, EagerSeedsSettleInTtsAtLowContention)
{
    // 2 processors, long think times: TTS is right. Seeded to believe
    // switching is nearly free and residuals are huge (the oscillation
    // failure mode), the policy must settle in TTS.
    const SimRunResult r =
        run_calibrated_lock(2, 3000, 2000, eager_seeds());
    EXPECT_EQ(r.final_mode, CalLockSim::Mode::kTts);
    EXPECT_LE(r.protocol_changes, 32u) << "converge, not oscillate";
}

TEST(CalibrationConvergenceTest, SwitchSpanIsMeasuredInConsensus)
{
    // Contention with think time (so waiters spin rather than convoy —
    // the fast-path factor stays near 1) makes at least one switch
    // happen; check the estimator recorded real switch-span samples
    // (the seed is replaced by the first measurement).
    CalibratedCompetitive3Policy::Params pp;
    pp.costs = eager_seeds();
    auto lock = std::make_shared<CalNodeLockSim>(
        ReactiveLockParams{}, CalibratedCompetitive3Policy(pp));
    apps::run_lock_cycle<CalNodeLockSim>(8, 400, /*cs=*/50, /*think=*/400,
                                         /*seed=*/1, lock);
    ASSERT_GE(lock->inner().protocol_changes(), 1u);
    const CostEstimator& est = lock->inner().policy().estimator();
    EXPECT_NE(est.switch_one_way(), eager_seeds().switch_one_way)
        << "a measured switch span must have replaced the seed";
    EXPECT_GT(est.samples(), 0u);
}

// ---- zero-traffic acceptance check ------------------------------------

template <typename Policy>
std::uint64_t uncontended_mem_ops()
{
    sim::Machine m(1, sim::CostModel::alewife(), 1);
    auto lock =
        std::make_shared<ReactiveNodeLock<SimPlatform, Policy>>();
    m.spawn(0, [=] {
        typename ReactiveNodeLock<SimPlatform, Policy>::Node node;
        for (int i = 0; i < 2000; ++i) {
            lock->lock(node);
            sim::delay(10);
            lock->unlock(node);
        }
    });
    m.run();
    return m.stats().mem_ops;
}

TEST(CalibrationTrafficTest, IdleCalibrationAddsNoMemoryOperations)
{
    // The uncontended fast path must be bit-identical in shared-memory
    // behaviour whether the policy calibrates or not: estimation lives
    // entirely in in-consensus private state.
    const std::uint64_t plain = uncontended_mem_ops<Competitive3Policy>();
    const std::uint64_t calibrated =
        uncontended_mem_ops<CalibratedCompetitive3Policy>();
    EXPECT_EQ(plain, calibrated);
}

// ---- reduced crossover envelope (the benchmark's acceptance, in CI) ---

template <typename L>
double static_lock_cycles(std::uint32_t procs, std::uint32_t iters,
                          std::uint32_t think, std::uint64_t seed = 1)
{
    const std::uint64_t elapsed =
        apps::run_lock_cycle<L>(procs, iters, /*cs=*/100, think, seed);
    return static_cast<double>(elapsed) /
           (static_cast<double>(procs) * iters);
}

TEST(CalibrationEnvelopeTest, WrongSeedsWithinTenPercentOfBestStatic)
{
    using TtsSim = TtsLock<SimPlatform>;
    using McsSim = McsLock<SimPlatform, McsVariant::kFetchStore>;

    struct Point {
        std::uint32_t procs;
        std::uint32_t iters;
        std::uint32_t think;
    };
    // One queue-favoured point and one TTS-favoured point, sized like
    // the fig_calibration cells.
    const Point points[] = {{16, 1500, 500}, {4, 3000, 0}};
    for (const Point& pt : points) {
        const double tts =
            static_lock_cycles<TtsSim>(pt.procs, pt.iters, pt.think);
        const double mcs =
            static_lock_cycles<McsSim>(pt.procs, pt.iters, pt.think);
        const double ideal = std::min(tts, mcs);
        for (const bool eager : {false, true}) {
            const SimRunResult r = run_calibrated_lock(
                pt.procs, pt.iters, pt.think,
                eager ? eager_seeds() : reluctant_seeds());
            EXPECT_LE(r.cycles_per_op, 1.10 * ideal)
                << "P=" << pt.procs << " think=" << pt.think
                << (eager ? " eager" : " reluctant")
                << ": calibrated=" << r.cycles_per_op << " tts=" << tts
                << " mcs=" << mcs;
        }
    }
}

// ---- barrier calibration ----------------------------------------------

TEST(BarrierCalibrationTest, CalibratingPolicyReachesTreeUnderBunchedLoad)
{
    using Bar = ReactiveBarrier<SimPlatform, CalibratedCompetitive3Policy>;
    CalibratedCompetitive3Policy::Params pp;
    pp.costs = reluctant_seeds();
    pp.probe_period = 32;
    pp.probe_len = 2;  // first dormant episode is the discarded cold one
    auto bar = std::make_shared<Bar>(
        16, ReactiveBarrierParams{}, CalibratedCompetitive3Policy(pp));
    apps::run_barrier_uniform<Bar>(16, 240, /*compute=*/200, 1, bar);
    EXPECT_EQ(bar->mode(), Bar::Mode::kTree)
        << "bunched arrivals at P=16 clearly favour the tree";
    EXPECT_GE(bar->protocol_changes(), 1u);
}

// ---- native storms (TSan coverage) ------------------------------------

TEST(NativeCalibrationTest, LockStormWithFrequentProbes)
{
    using L = ReactiveLock<NativePlatform, CalibratedCompetitive3Policy>;
    const std::uint32_t threads =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    CalibratedCompetitive3Policy::Params pp;
    pp.probe_period = 16;  // force frequent probe switches
    pp.probe_len = 1;
    L lock{ReactiveLockParams{}, CalibratedCompetitive3Policy(pp)};
    long counter = 0;
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < 3000; ++i) {
                typename L::Node n;
                auto rm = lock.acquire(n);
                counter += 1;
                lock.release(n, rm);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(counter, static_cast<long>(threads) * 3000);
}

TEST(NativeCalibrationTest, RwLockStormWithCalibration)
{
    using RW = ReactiveRwLock<NativePlatform, CalibratedCompetitive3Policy>;
    const std::uint32_t threads =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    CalibratedCompetitive3Policy::Params pp;
    pp.probe_period = 16;
    pp.probe_len = 1;
    RW lock{ReactiveRwLockParams{}, CalibratedCompetitive3Policy(pp)};
    long writes = 0;
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (int i = 0; i < 2000; ++i) {
                typename RW::Node n;
                if ((i + t) % 4 == 0) {
                    lock.lock_write(n);
                    writes += 1;
                    lock.unlock_write(n);
                } else {
                    lock.lock_read(n);
                    lock.unlock_read(n);
                }
            }
        });
    }
    for (auto& th : pool)
        th.join();
    long expected = 0;
    for (std::uint32_t t = 0; t < threads; ++t)
        for (int i = 0; i < 2000; ++i)
            expected += (i + t) % 4 == 0 ? 1 : 0;
    EXPECT_EQ(writes, expected);
}

TEST(NativeCalibrationTest, BarrierStormWithCalibration)
{
    using Bar = ReactiveBarrier<NativePlatform, CalibratedCompetitive3Policy>;
    const std::uint32_t threads =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    CalibratedCompetitive3Policy::Params pp;
    pp.probe_period = 8;  // switch protocols constantly
    pp.probe_len = 1;
    Bar bar(threads, ReactiveBarrierParams{}, CalibratedCompetitive3Policy(pp));
    std::vector<long> counts(threads, 0);
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            typename Bar::Node n;
            for (int e = 0; e < 600; ++e) {
                bar.arrive(n);
                counts[t] += 1;
            }
        });
    }
    for (auto& th : pool)
        th.join();
    for (std::uint32_t t = 0; t < threads; ++t)
        EXPECT_EQ(counts[t], 600);
}

}  // namespace
}  // namespace reactive
