/**
 * @file
 * Tracing layer acceptance (ISSUE: observability PR).
 *
 * Compiled with REACTIVE_TRACE forced on (this TU defines it before
 * any include), which is the point: the same headers every other test
 * compiles with the layer off are exercised here with it on.
 *
 *  - TraceRing unit tests: wrap-around, drop-oldest accounting by
 *    victim class, incremental drain ordering, metric-shard counters.
 *  - Switch-storm audit: a forced-switch lock run on the simulator must
 *    leave a switch-event trail that reconstructs the policy's actual
 *    decision sequence event-for-event (chain-connected, alternating,
 *    count == protocol_changes(), endpoint == final protocol).
 *  - Zero overhead: the same simulated workload with tracing
 *    runtime-disabled vs enabled produces identical elapsed cycles and
 *    identical machine mem-op counts (the layer touches host memory
 *    only). The compiled-out half of the guarantee is checked in CI by
 *    byte-diffing fig_calibration output across build modes.
 *  - Native storm: a writer thread publishing while another drains;
 *    every delivered event self-consistent and in order. Runs under
 *    TSan in CI.
 */
#define REACTIVE_TRACE 1

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <fstream>
#include <iterator>
#include <string>

#include "apps/workloads.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/cost_model.hpp"
#include "core/policy.hpp"
#include "core/reactive_mutex.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"
#include "trace/export.hpp"
#include "trace/instrument.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "waiting/reactive/wait_select.hpp"

using namespace reactive;
using sim::SimPlatform;

namespace {

static_assert(trace::kCompiled, "this TU must compile the tracing layer in");

trace::Event make_event(std::uint64_t i,
                        trace::ObjectClass cls = trace::ObjectClass::kLock,
                        trace::EventType type = trace::EventType::kAcqSample)
{
    trace::Event e;
    e.ts = 1000 + i;
    e.object = 7;
    e.type = type;
    e.cls = cls;
    e.from = static_cast<std::uint8_t>(i % 2);
    e.to = static_cast<std::uint8_t>((i + 1) % 2);
    e.a0 = i;
    e.a1 = i * 3 + 1;
    e.a2 = ~i;
    return e;
}

// ---- TraceRing unit tests ---------------------------------------------

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(trace::TraceRing(1).capacity(), 16u);
    EXPECT_EQ(trace::TraceRing(16).capacity(), 16u);
    EXPECT_EQ(trace::TraceRing(17).capacity(), 32u);
    EXPECT_EQ(trace::TraceRing(8192).capacity(), 8192u);
}

TEST(TraceRingTest, DrainDeliversInPublishOrder)
{
    trace::TraceRing ring(64);
    for (std::uint64_t i = 0; i < 10; ++i)
        ring.publish(make_event(i));
    std::vector<trace::Event> got;
    EXPECT_EQ(ring.drain([&](const trace::Event& e) { got.push_back(e); }),
              10u);
    ASSERT_EQ(got.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(got[i].a0, i);
        EXPECT_EQ(got[i].a1, i * 3 + 1);
        EXPECT_EQ(got[i].a2, ~i);
        EXPECT_EQ(got[i].ts, 1000 + i);
        EXPECT_EQ(got[i].object, 7u);
    }
    // Nothing left; a second drain is empty.
    EXPECT_EQ(ring.drain([](const trace::Event&) {}), 0u);
    EXPECT_EQ(ring.total_drops(), 0u);
}

TEST(TraceRingTest, IncrementalDrainsResumeWhereTheyStopped)
{
    trace::TraceRing ring(32);
    for (std::uint64_t i = 0; i < 5; ++i)
        ring.publish(make_event(i));
    std::vector<std::uint64_t> got;
    ring.drain([&](const trace::Event& e) { got.push_back(e.a0); });
    for (std::uint64_t i = 5; i < 8; ++i)
        ring.publish(make_event(i));
    ring.drain([&](const trace::Event& e) { got.push_back(e.a0); });
    ASSERT_EQ(got.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(TraceRingTest, WrapAroundKeepsNewestAndCountsDropsByClass)
{
    trace::TraceRing ring(16);  // exact power of two
    // 40 events: 24 oldest must be dropped. Alternate victim classes so
    // the per-class accounting is visible: even i = kLock, odd i =
    // kBarrier.
    for (std::uint64_t i = 0; i < 40; ++i)
        ring.publish(make_event(i, i % 2 == 0 ? trace::ObjectClass::kLock
                                              : trace::ObjectClass::kBarrier));
    std::vector<trace::Event> got;
    EXPECT_EQ(ring.drain([&](const trace::Event& e) { got.push_back(e); }),
              16u);
    ASSERT_EQ(got.size(), 16u);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(got[i].a0, 24 + i) << "oldest dropped, newest kept";
    EXPECT_EQ(ring.total_drops(), 24u);
    // Victims were events 0..23: 12 even (kLock), 12 odd (kBarrier).
    EXPECT_EQ(ring.drops(trace::ObjectClass::kLock), 12u);
    EXPECT_EQ(ring.drops(trace::ObjectClass::kBarrier), 12u);
    EXPECT_EQ(ring.published(), 40u);
}

TEST(TraceRingTest, MetricShardCountsEveryPublishDespiteDrops)
{
    using ET = trace::EventType;
    using OC = trace::ObjectClass;
    using M = trace::Metric;
    trace::TraceRing ring(16);
    for (std::uint64_t i = 0; i < 100; ++i)
        ring.publish(make_event(i, OC::kLock, ET::kAcqSample));
    ring.publish(make_event(100, OC::kLock, ET::kFastAcquire));
    ring.publish(make_event(101, OC::kLock, ET::kSwitch));
    {
        trace::Event probe_won = make_event(102, OC::kBarrier, ET::kProbeEnd);
        probe_won.a0 = 1;
        ring.publish(probe_won);
        trace::Event probe_lost = make_event(103, OC::kBarrier, ET::kProbeEnd);
        probe_lost.a0 = 0;
        ring.publish(probe_lost);
    }
    // The counters are exact even though the 16-slot ring dropped most
    // of the 105 events.
    EXPECT_EQ(ring.counter(OC::kLock, M::kAcquisitions), 101u);
    EXPECT_EQ(ring.counter(OC::kLock, M::kFastPathWins), 1u);
    EXPECT_EQ(ring.counter(OC::kLock, M::kSwitches), 1u);
    EXPECT_EQ(ring.counter(OC::kBarrier, M::kProbesWon), 1u);
    EXPECT_EQ(ring.counter(OC::kBarrier, M::kProbesLost), 1u);
    EXPECT_GT(ring.total_drops(), 0u);
}

// ---- registry / emit path ---------------------------------------------

TEST(TraceRegistryTest, EmitIsIgnoredUntilEnabledAndCaptureDrains)
{
    trace::reset();
    trace::set_enabled(false);
    // Instrumentation sites always check enabled() first; emulate that
    // contract here.
    if (trace::enabled())
        trace::emit(make_event(0));
    trace::set_enabled(true);
    if (trace::enabled())
        trace::emit(make_event(1));
    trace::set_enabled(false);

    const trace::Capture cap = trace::capture();
    ASSERT_EQ(cap.events.size(), 1u);
    EXPECT_EQ(cap.events[0].e.a0, 1u);
    trace::reset();
}

TEST(TraceRegistryTest, ResetDropsRecordedEventsAndRingCapacityApplies)
{
    trace::reset(/*ring_capacity=*/16);
    trace::set_enabled(true);
    for (std::uint64_t i = 0; i < 50; ++i)
        trace::emit(make_event(i));
    trace::set_enabled(false);
    trace::Capture cap = trace::capture();
    EXPECT_EQ(cap.events.size(), 16u) << "reset() capacity must apply";
    EXPECT_EQ(cap.total_dropped, 34u);
    trace::reset();
    cap = trace::capture();
    EXPECT_TRUE(cap.events.empty()) << "reset() must drop recorded events";
}

// ---- switch-storm audit trail -----------------------------------------

using StormLockSim = ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy>;

TEST(TraceAuditTest, SwitchTrailMatchesPolicyDecisionsEventForEvent)
{
    trace::reset();
    trace::set_enabled(true);
    // Optimistic TTS wins bypass the policy (by design), which would
    // starve the queue->TTS signal in the solo rounds; the storm wants
    // every acquisition voting.
    ReactiveLockParams storm_params;
    storm_params.optimistic_tts = false;
    auto lock = std::make_shared<StormLockSim>(storm_params);
    // Forced-switch storm: contended rounds drive TTS -> queue, solo
    // rounds drain the queue empty and drive it back (AlwaysSwitchPolicy
    // switches on the first contended TTS acquisition and after 4 empty
    // queue acquisitions). The lock carries across rounds; the trail is
    // harvested per sub-run because each run is its own machine with
    // its own cycle clock (capture() orders by timestamp, which is only
    // meaningful within one machine's lifetime).
    std::vector<trace::Event> switches;
    std::uint64_t dropped = 0, metric_switches = 0;
    const auto harvest = [&] {
        const trace::Capture cap = trace::capture();
        // Ring drop/metric counters are lifetime-cumulative, so the
        // last harvest holds the storm-wide totals.
        dropped = cap.total_dropped;
        metric_switches = cap.metrics.counter(trace::ObjectClass::kLock,
                                              trace::Metric::kSwitches);
        std::uint64_t last_ts = 0;
        for (const trace::CapturedEvent& ce : cap.events) {
            EXPECT_GE(ce.e.ts, last_ts) << "capture must be time-ordered";
            last_ts = ce.e.ts;
            if (ce.e.type == trace::EventType::kSwitch)
                switches.push_back(ce.e);
        }
    };
    for (int round = 0; round < 4; ++round) {
        apps::run_lock_cycle<StormLockSim>(8, 60, /*cs=*/100, /*think=*/0,
                                           /*seed=*/1 + round, lock);
        harvest();
        apps::run_lock_cycle<StormLockSim>(1, 40, /*cs=*/100, /*think=*/300,
                                           /*seed=*/100 + round, lock);
        harvest();
    }
    trace::set_enabled(false);

    const std::uint64_t truth = lock->inner().protocol_changes();
    ASSERT_GE(truth, 4u) << "storm workload must actually switch";
    EXPECT_EQ(dropped, 0u) << "default ring must hold the whole storm";

    // Event-for-event: one trail entry per completed protocol change...
    ASSERT_EQ(switches.size(), truth);
    // ...chain-connected from the initial protocol (TTS = 0) with
    // strict alternation (the set has two protocols)...
    std::uint8_t current = 0;
    for (const trace::Event& e : switches) {
        EXPECT_EQ(e.cls, trace::ObjectClass::kLock);
        EXPECT_EQ(e.from, current) << "audit chain must connect";
        EXPECT_NE(e.to, e.from);
        current = e.to;
    }
    // ...and ending on the protocol the lock actually runs.
    EXPECT_EQ(current, lock->inner().protocol_index());
    // The metric rollup agrees with the trail.
    EXPECT_EQ(metric_switches, truth);
    trace::reset();
}

using LadderBarrierSim = ReactiveBarrier<SimPlatform, CalibratedLadderPolicy>;

TEST(TraceAuditTest, BarrierTrailCountsSwitchesAndEpisodes)
{
    trace::reset();
    trace::set_enabled(true);
    CalibratedLadderPolicy::Params pp;
    pp.probe_period = 8;
    pp.probe_len = 2;
    auto bar = std::make_shared<LadderBarrierSim>(
        16, ReactiveBarrierParams{}, CalibratedLadderPolicy(pp));
    apps::run_barrier_uniform<LadderBarrierSim>(16, 150, /*compute=*/100,
                                                /*seed=*/1, bar);
    trace::set_enabled(false);

    const trace::Capture cap = trace::capture();
    std::uint64_t switches = 0, episodes = 0;
    std::uint8_t current = 0;
    for (const trace::CapturedEvent& ce : cap.events) {
        if (ce.e.cls != trace::ObjectClass::kBarrier)
            continue;
        if (ce.e.type == trace::EventType::kSwitch) {
            EXPECT_EQ(ce.e.from, current) << "audit chain must connect";
            current = ce.e.to;
            ++switches;
        } else if (ce.e.type == trace::EventType::kEpisode) {
            ++episodes;
        }
    }
    EXPECT_EQ(switches, bar->protocol_changes());
    EXPECT_EQ(current, bar->protocol_index());
    EXPECT_GT(episodes, 0u) << "episode cost samples must be recorded";
    EXPECT_LE(episodes, 150u);
    trace::reset();
}

using CalWaitLockSim =
    ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy, ReactiveQueue<SimPlatform>,
                     ParkWaiting, CalibratedWaitPolicy>;

TEST(TraceAuditTest, WaitModeSwitchCarriesDescheduleRecency)
{
    // Four threads per processor with think time: spinners lose their
    // processor at quantum expiries, report it, and the policy leaves
    // spin. Every kWaitModeSwitch carries the hint in the low half of
    // a0 and the releases since the last deschedule report in the high
    // half; a spin -> two-phase step needs that report to be recent.
    trace::reset();
    trace::set_enabled(true);
    auto lock = std::make_shared<CalWaitLockSim>();
    sim::CostModel costs = sim::CostModel::alewife();
    costs.preempt_quantum = 10000;
    apps::run_lock_cycle_oversubscribed<CalWaitLockSim>(
        2, /*factor=*/4, /*iters=*/60, /*cs=*/200, /*think=*/3000,
        /*seed=*/1, lock, costs);
    trace::set_enabled(false);

    const trace::Capture cap = trace::capture();
    std::uint64_t switches = 0;
    std::uint64_t leave_spin = 0;
    for (const trace::CapturedEvent& ce : cap.events) {
        if (ce.e.type != trace::EventType::kWaitModeSwitch)
            continue;
        ++switches;
        const WaitHint h =
            unpack_wait_hint(static_cast<std::uint32_t>(ce.e.a0));
        EXPECT_EQ(static_cast<std::uint8_t>(h.mode), ce.e.to);
        const std::uint64_t since = ce.e.a0 >> 32;
        if (ce.e.from == static_cast<std::uint8_t>(WaitMode::kSpin)) {
            EXPECT_EQ(ce.e.to, static_cast<std::uint8_t>(WaitMode::kTwoPhase));
            EXPECT_LE(since, CalibratedWaitPolicy::kDescheduleEvidence);
            ++leave_spin;
        }
    }
    EXPECT_EQ(switches, lock->inner().wait_mode_changes());
    EXPECT_GT(leave_spin, 0u);
    trace::reset();
}

// ---- zero-overhead guarantee ------------------------------------------

using CalStormLockSim =
    ReactiveNodeLock<SimPlatform, CalibratedCompetitive3Policy>;

std::uint64_t traced_run(bool tracing_on, sim::MachineStats* stats)
{
    trace::reset();
    trace::set_enabled(tracing_on);
    CalibratedCompetitive3Policy::Params pp;
    pp.costs = CostEstimator::Params::mis_tuned_eager();
    auto lock = std::make_shared<CalStormLockSim>(
        ReactiveLockParams{}, CalibratedCompetitive3Policy(pp));
    const std::uint64_t elapsed = apps::run_lock_cycle<CalStormLockSim>(
        8, 300, /*cs=*/50, /*think=*/400, /*seed=*/1, lock, {}, stats);
    trace::set_enabled(false);
    return elapsed;
}

TEST(TraceOverheadTest, RecordingPerturbsNeitherScheduleNorTraffic)
{
    // The trace layer must be invisible to the simulated machine: same
    // elapsed cycles, same memory-operation counts, whether recording
    // or not. (It reuses timestamps the primitives already took and
    // writes only host memory.)
    sim::MachineStats off{}, on{};
    const std::uint64_t elapsed_off = traced_run(false, &off);
    const std::uint64_t elapsed_on = traced_run(true, &on);

    EXPECT_EQ(elapsed_off, elapsed_on);
    EXPECT_EQ(off.mem_ops, on.mem_ops);
    EXPECT_EQ(off.remote_misses, on.remote_misses);
    EXPECT_EQ(off.invalidations, on.invalidations);
    EXPECT_EQ(off.messages, on.messages);

    // And the traced run did record a useful decision history.
    const trace::Capture cap = trace::capture();
    EXPECT_GT(cap.events.size(), 0u);
    trace::reset();
}

// ---- native concurrent drain-while-recording storm --------------------

TEST(TraceStormTest, ConcurrentDrainNeverTearsOrReorders)
{
    // One writer publishing directly into a small ring while a reader
    // drains in a loop: every delivered event must be self-consistent
    // (payload invariant intact) and strictly in publish order; the
    // accounting must cover every published event. TSan (CI job) checks
    // the memory model; the asserts check the seqlock logic.
    trace::TraceRing ring(64);
    constexpr std::uint64_t kEvents = 200000;
    std::atomic<bool> done{false};
    std::uint64_t delivered = 0;
    std::uint64_t last_a0 = 0;
    bool first = true;
    std::uint64_t torn = 0, reordered = 0;

    std::thread reader([&] {
        const auto check = [&](const trace::Event& e) {
            if (e.a1 != e.a0 * 3 + 1 || e.a2 != ~e.a0 || e.ts != 1000 + e.a0)
                ++torn;
            if (!first && e.a0 <= last_a0)
                ++reordered;
            first = false;
            last_a0 = e.a0;
            ++delivered;
        };
        while (!done.load(std::memory_order_acquire))
            ring.drain(check);
        ring.drain(check);  // final sweep
    });

    for (std::uint64_t i = 0; i < kEvents; ++i)
        ring.publish(make_event(i, i % 2 == 0 ? trace::ObjectClass::kLock
                                              : trace::ObjectClass::kCohort));
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(torn, 0u);
    EXPECT_EQ(reordered, 0u);
    EXPECT_GT(delivered, 0u);
    EXPECT_LE(delivered, kEvents);
    EXPECT_EQ(ring.published(), kEvents);
    // Drop accounting may overcount only when the writer overwrites a
    // slot the reader copied in the same instant (diagnostic-only
    // race, documented in publish()); it can never undercount.
    EXPECT_GE(delivered + ring.total_drops(), kEvents);
}

// ---- exporters --------------------------------------------------------

TEST(TraceExportTest, ChromeJsonAndAuditRoundTrip)
{
    trace::reset();
    trace::set_enabled(true);
    auto lock = std::make_shared<StormLockSim>();
    apps::run_lock_cycle<StormLockSim>(4, 100, /*cs=*/100, /*think=*/200,
                                       /*seed=*/1, lock);
    trace::set_enabled(false);

    // Write under the gtest temp dir, not the CWD, so test runs never
    // litter the repo root.
    const std::string json_path =
        ::testing::TempDir() + "test_trace_out.json";
    ASSERT_TRUE(trace::drain_to_json(json_path, json_path + ".audit"));

    std::ifstream json(json_path);
    ASSERT_TRUE(json.good());
    std::string text((std::istreambuf_iterator<char>(json)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"reactiveMetrics\""), std::string::npos);
    EXPECT_NE(text.find("\"switch\""), std::string::npos);
    EXPECT_NE(text.find("\"dropped_by_class\""), std::string::npos);
    EXPECT_NE(text.find("\"regret_samples\""), std::string::npos);

    std::ifstream audit(json_path + ".audit");
    ASSERT_TRUE(audit.good());
    std::string line;
    std::uint64_t switch_lines = 0;
    std::uint64_t comment_lines = 0;
    while (std::getline(audit, line)) {
        if (line.rfind("#", 0) == 0) {
            ++comment_lines;  // percentile / regret / drop footers
            continue;
        }
        EXPECT_EQ(line.rfind("t=", 0), 0u) << "audit line format";
        EXPECT_NE(line.find("lock"), std::string::npos);
        ++switch_lines;
    }
    EXPECT_EQ(switch_lines, lock->inner().protocol_changes());
    // The run sampled acquisitions, so the footer must carry at least
    // the lock latency percentile summary.
    EXPECT_GE(comment_lines, 1u);
    trace::reset();
}

TEST(TraceExportTest, EmptyCaptureStillWritesValidSkeleton)
{
    trace::reset();
    const std::string json_path =
        ::testing::TempDir() + "test_trace_empty.json";
    ASSERT_TRUE(trace::drain_to_json(json_path));
    std::ifstream json(json_path);
    std::string text((std::istreambuf_iterator<char>(json)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
