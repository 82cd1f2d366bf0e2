// Tests for the paper's core contribution: the protocol-selection
// framework, switching policies, the reactive spin lock, and the
// reactive fetch-and-op.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "core/protocol_object.hpp"
#include "core/reactive_fetch_op.hpp"
#include "core/reactive_lock.hpp"
#include "core/reactive_mutex.hpp"
#include "core/reactive_queue.hpp"
#include "platform/native_platform.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"

namespace reactive {
namespace {

using sim::SimPlatform;

// ---- policies ---------------------------------------------------------

TEST(PolicyTest, AlwaysSwitchTtsIsImmediate)
{
    AlwaysSwitchPolicy p;
    EXPECT_FALSE(p.on_tts_acquire(false));
    EXPECT_TRUE(p.on_tts_acquire(true));
}

TEST(PolicyTest, AlwaysSwitchQueueNeedsStreak)
{
    AlwaysSwitchPolicy p(4);
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_TRUE(p.on_queue_acquire(true));  // 4th consecutive empty
    p.on_switch();
    EXPECT_FALSE(p.on_queue_acquire(true));  // streak reset
}

TEST(PolicyTest, AlwaysSwitchStreakBreaks)
{
    AlwaysSwitchPolicy p(3);
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(false));  // break
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_TRUE(p.on_queue_acquire(true));
}

TEST(PolicyTest, Competitive3AccumulatesAcrossBreaks)
{
    Competitive3Policy::Params params;
    params.residual_tts_contended = 150;
    params.residual_queue_empty = 15;
    params.switch_round_trip = 8800;
    Competitive3Policy p(params);
    // ceil(8800 / 150) = 59 contended acquisitions trigger the switch,
    // even interleaved with uncontended ones (no reset on breaks).
    int triggered_at = -1;
    int contended_count = 0;
    for (int i = 0; i < 200 && triggered_at < 0; ++i) {
        const bool contended = (i % 2 == 0);  // every other one breaks
        if (contended)
            ++contended_count;
        if (p.on_tts_acquire(contended))
            triggered_at = contended_count;
    }
    EXPECT_EQ(triggered_at, 59);
}

TEST(PolicyTest, Competitive3QueueResidualIsSmaller)
{
    Competitive3Policy p;
    int count = 0;
    while (!p.on_queue_acquire(true))
        ++count;
    // 8800 / 15 = 586.67 -> 587 observations
    EXPECT_EQ(count + 1, 587);
}

TEST(PolicyTest, Competitive3ResetsOnSwitch)
{
    Competitive3Policy p;
    for (int i = 0; i < 30; ++i)
        p.on_tts_acquire(true);
    EXPECT_GT(p.cumulative_residual(), 0u);
    p.on_switch();
    EXPECT_EQ(p.cumulative_residual(), 0u);
}

TEST(PolicyTest, HysteresisResetsOnBreak)
{
    HysteresisPolicy p(3, 2);
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_FALSE(p.on_tts_acquire(false));  // break resets
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_TRUE(p.on_tts_acquire(true));

    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_TRUE(p.on_queue_acquire(true));
}

// ---- ReactiveQueue ----------------------------------------------------

TEST(ReactiveQueueTest, InitiallyInvalid)
{
    ReactiveQueue<NativePlatform> q;
    EXPECT_TRUE(q.is_invalid());
    typename ReactiveQueue<NativePlatform>::Node n;
    EXPECT_EQ(q.acquire(n), ReactiveQueue<NativePlatform>::Outcome::kInvalid);
    EXPECT_TRUE(q.is_invalid());  // acquire re-invalidated the bogus chain
}

TEST(ReactiveQueueTest, ValidateAcquireRelease)
{
    ReactiveQueue<NativePlatform> q;
    typename ReactiveQueue<NativePlatform>::Node switcher, n1;
    q.acquire_invalid(switcher);
    q.release(switcher);  // queue now valid and free
    EXPECT_FALSE(q.is_invalid());
    EXPECT_EQ(q.acquire(n1),
              ReactiveQueue<NativePlatform>::Outcome::kAcquiredEmpty);
    q.release(n1);
}

TEST(ReactiveQueueTest, HolderInvalidateWakesWaitersInvalid)
{
    using Q = ReactiveQueue<SimPlatform>;
    sim::Machine m(4);
    auto q = std::make_shared<Q>(/*initially_valid=*/true);
    auto invalid_seen = std::make_shared<int>(0);
    m.spawn(0, [=] {
        typename Q::Node n;
        EXPECT_EQ(q->acquire(n), Q::Outcome::kAcquiredEmpty);
        sim::delay(2000);  // let the others queue up
        q->invalidate(&n);
    });
    for (std::uint32_t p = 1; p < 4; ++p) {
        m.spawn(p, [=] {
            sim::delay(200 * p);
            typename Q::Node n;
            if (q->acquire(n) == Q::Outcome::kInvalid)
                ++*invalid_seen;
        });
    }
    m.run();
    EXPECT_EQ(*invalid_seen, 3);
    EXPECT_TRUE(q->is_invalid());
}

// Handoff prefetch: P1 waits behind P0 while P2 links in behind P1, so
// P1's polls pull the successor link into its cache during the wait.
// P1's release then pays one remote transfer (the grant store into P2's
// node), not two (the link load plus the grant).
TEST(ReactiveQueueTest, ReleaseAfterWaitPaysOneRemoteTransfer)
{
    using Q = ReactiveQueue<SimPlatform>;
    sim::Machine m(3);
    auto q = std::make_shared<Q>(/*initially_valid=*/true);
    auto release_cycles = std::make_shared<std::uint64_t>(0);
    m.spawn(0, [=] {
        typename Q::Node n;
        EXPECT_EQ(q->acquire(n), Q::Outcome::kAcquiredEmpty);
        sim::delay(4000);  // P1 queues, then P2 links in behind it
        q->release(n);
    });
    m.spawn(1, [=] {
        sim::delay(500);
        typename Q::Node n;
        EXPECT_EQ(q->acquire(n), Q::Outcome::kAcquiredWaited);
        const std::uint64_t t0 = sim::now();
        q->release(n);
        *release_cycles = sim::now() - t0;
    });
    m.spawn(2, [=] {
        sim::delay(1500);
        typename Q::Node n;
        EXPECT_EQ(q->acquire(n), Q::Outcome::kAcquiredWaited);
        q->release(n);
    });
    m.run();
    EXPECT_GT(*release_cycles, 0u);
    EXPECT_LT(*release_cycles, 2u * m.costs().remote_miss);
}

// ---- generic protocol-selection framework -----------------------------

/// Toy protocol for the framework tests: a counter that tags results
/// with its own identity so tests can see which protocol serviced a
/// request.
struct TaggedCounterProtocol {
    using Op = int;
    struct Result {
        long value;
        int tag;
    };
    int tag = 0;
    long state = 0;
    long runs = 0;

    Result run(Op delta)
    {
        state += delta;
        ++runs;
        return {state, tag};
    }
    void update() { state = 0; }
};

TEST(ProtocolFrameworkTest, ManagerReturnsOnlyValidExecutions)
{
    using PO = LockedProtocolObject<NativePlatform, TaggedCounterProtocol>;
    PO a(/*initially_valid=*/true, TaggedCounterProtocol{1, 0, 0});
    PO b(/*initially_valid=*/false, TaggedCounterProtocol{2, 0, 0});
    ProtocolManager<PO, PO> mgr(a, b);

    auto r = mgr.do_synch_op(5);
    EXPECT_EQ(r.tag, 1);
    mgr.do_change();
    EXPECT_FALSE(a.is_valid());
    EXPECT_TRUE(b.is_valid());
    r = mgr.do_synch_op(7);
    EXPECT_EQ(r.tag, 2);
    mgr.do_change();
    r = mgr.do_synch_op(1);
    EXPECT_EQ(r.tag, 1);
}

TEST(ProtocolFrameworkTest, AtMostOneValidUnderConcurrentChanges)
{
    using PO = LockedProtocolObject<SimPlatform, TaggedCounterProtocol>;
    sim::Machine m(8);
    auto a = std::make_shared<PO>(true, TaggedCounterProtocol{1, 0, 0});
    auto b = std::make_shared<PO>(false, TaggedCounterProtocol{2, 0, 0});
    auto completed = std::make_shared<long>(0);
    auto both_valid_seen = std::make_shared<int>(0);
    for (std::uint32_t p = 0; p < 6; ++p) {
        m.spawn(p, [=] {
            ProtocolManager<PO, PO> mgr(*a, *b);
            for (int i = 0; i < 40; ++i) {
                mgr.do_synch_op(1);
                ++*completed;
                if (a->is_valid() && b->is_valid())
                    ++*both_valid_seen;
                sim::delay(sim::random_below(50));
            }
        });
    }
    for (std::uint32_t p = 6; p < 8; ++p) {
        m.spawn(p, [=] {
            ProtocolManager<PO, PO> mgr(*a, *b);
            for (int i = 0; i < 15; ++i) {
                mgr.do_change();
                sim::delay(sim::random_below(400));
            }
        });
    }
    m.run();
    EXPECT_EQ(*completed, 240);
    EXPECT_EQ(*both_valid_seen, 0);
    // Every request was serviced by exactly one protocol execution.
    EXPECT_EQ(a->protocol().runs + b->protocol().runs, 240);
}

// ---- reactive lock ----------------------------------------------------

template <typename Policy>
std::shared_ptr<ReactiveLock<SimPlatform, Policy>> make_sim_reactive_lock()
{
    return std::make_shared<ReactiveLock<SimPlatform, Policy>>();
}

TEST(ReactiveLockTest, StartsInTtsMode)
{
    ReactiveLock<NativePlatform> lock;
    EXPECT_EQ(lock.mode(), ReactiveLock<NativePlatform>::Mode::kTts);
    EXPECT_EQ(lock.protocol_changes(), 0u);
}

TEST(ReactiveLockTest, SingleThreadAcquireRelease)
{
    ReactiveLock<NativePlatform> lock;
    for (int i = 0; i < 1000; ++i) {
        typename ReactiveLock<NativePlatform>::Node n;
        auto mode = lock.acquire(n);
        lock.release(n, mode);
    }
    EXPECT_EQ(lock.mode(), ReactiveLock<NativePlatform>::Mode::kTts);
    EXPECT_EQ(lock.protocol_changes(), 0u);  // no contention, no switches
}

template <typename Policy>
struct SimReactiveTortureResult {
    long count = 0;
    int violations = 0;
    std::uint64_t protocol_changes = 0;
    typename ReactiveLock<SimPlatform, Policy>::Mode final_mode;
};

template <typename Policy>
SimReactiveTortureResult<Policy> sim_reactive_torture(std::uint32_t procs,
                                                      std::uint32_t iters,
                                                      std::uint64_t seed,
                                                      std::uint32_t think = 100)
{
    using L = ReactiveLock<SimPlatform, Policy>;
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto lock = make_sim_reactive_lock<Policy>();
    auto inside = std::make_shared<int>(0);
    auto res = std::make_shared<SimReactiveTortureResult<Policy>>();
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t i = 0; i < iters; ++i) {
                typename L::Node node;
                auto rm = lock->acquire(node);
                if (++*inside != 1)
                    ++res->violations;
                sim::delay(10 + sim::random_below(40));
                if (*inside != 1)
                    ++res->violations;
                --*inside;
                ++res->count;
                lock->release(node, rm);
                sim::delay(sim::random_below(think));
            }
        });
    }
    m.run();
    res->protocol_changes = lock->protocol_changes();
    res->final_mode = lock->mode();
    return *res;
}

template <typename Policy>
class ReactiveLockPolicyTest : public ::testing::Test {};

using PolicyTypes = ::testing::Types<AlwaysSwitchPolicy, Competitive3Policy,
                                     HysteresisPolicy>;

TYPED_TEST_SUITE(ReactiveLockPolicyTest, PolicyTypes);

TYPED_TEST(ReactiveLockPolicyTest, MutualExclusionHighContention)
{
    auto r = sim_reactive_torture<TypeParam>(16, 30, 1);
    EXPECT_EQ(r.violations, 0);
    EXPECT_EQ(r.count, 16 * 30);
}

TYPED_TEST(ReactiveLockPolicyTest, MutualExclusionLowContention)
{
    auto r = sim_reactive_torture<TypeParam>(2, 200, 2);
    EXPECT_EQ(r.violations, 0);
    EXPECT_EQ(r.count, 2 * 200);
}

TYPED_TEST(ReactiveLockPolicyTest, SeedSweep)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        auto r = sim_reactive_torture<TypeParam>(8, 30, seed);
        EXPECT_EQ(r.violations, 0);
        EXPECT_EQ(r.count, 8 * 30);
    }
}

TEST(ReactiveLockTest, SwitchesToQueueUnderContention)
{
    using Mode = ReactiveLock<SimPlatform, AlwaysSwitchPolicy>::Mode;
    auto r = sim_reactive_torture<AlwaysSwitchPolicy>(32, 40, 1);
    EXPECT_EQ(r.violations, 0);
    EXPECT_GT(r.protocol_changes, 0u);
    EXPECT_EQ(r.final_mode, Mode::kQueue);
}

TEST(ReactiveLockTest, StaysInTtsWithoutContention)
{
    using Mode = ReactiveLock<SimPlatform, AlwaysSwitchPolicy>::Mode;
    auto r = sim_reactive_torture<AlwaysSwitchPolicy>(1, 300, 1);
    EXPECT_EQ(r.protocol_changes, 0u);
    EXPECT_EQ(r.final_mode, Mode::kTts);
}

TEST(ReactiveLockTest, ReturnsToTtsWhenContentionFades)
{
    using L = ReactiveLock<SimPlatform, AlwaysSwitchPolicy>;
    sim::Machine m(16);
    auto lock = std::make_shared<L>();
    // Phase 1: 16 processors contend -> queue mode.
    for (std::uint32_t p = 0; p < 16; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 25; ++i) {
                typename L::Node n;
                auto rm = lock->acquire(n);
                sim::delay(100);
                lock->release(n, rm);
                sim::delay(sim::random_below(100));
            }
        });
    }
    m.run();
    EXPECT_EQ(lock->mode(), L::Mode::kQueue);

    // Phase 2: a single processor -> empty queue streak -> TTS mode.
    sim::Machine m2(1);
    m2.spawn(0, [=] {
        for (int i = 0; i < 50; ++i) {
            typename L::Node n;
            auto rm = lock->acquire(n);
            sim::delay(10);
            lock->release(n, rm);
        }
    });
    m2.run();
    EXPECT_EQ(lock->mode(), L::Mode::kTts);
}

TEST(ReactiveLockTest, NativeThreadsMutualExclusion)
{
    using L = ReactiveLock<NativePlatform, AlwaysSwitchPolicy>;
    const std::uint32_t threads =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    L lock;
    long counter = 0;
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < 400; ++i) {
                typename L::Node n;
                auto rm = lock.acquire(n);
                counter += 1;
                lock.release(n, rm);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(counter, static_cast<long>(threads) * 400);
}

TEST(ReactiveMutexTest, GuardProtects)
{
    ReactiveMutex<NativePlatform> mu;
    int x = 0;
    {
        ReactiveMutex<NativePlatform>::Guard g(mu);
        x = 1;
    }
    {
        ReactiveMutex<NativePlatform>::Guard g(mu);
        x = 2;
    }
    EXPECT_EQ(x, 2);
}

TEST(ReactiveMutexTest, GuardUnderSimContention)
{
    using M = ReactiveMutex<SimPlatform>;
    sim::Machine machine(8);
    auto mu = std::make_shared<M>();
    auto counter = std::make_shared<long>(0);
    for (std::uint32_t p = 0; p < 8; ++p) {
        machine.spawn(p, [=] {
            for (int i = 0; i < 50; ++i) {
                typename M::Guard g(*mu);
                ++*counter;
                sim::delay(20);
            }
        });
    }
    machine.run();
    EXPECT_EQ(*counter, 400);
}

// ---- reactive fetch-and-op --------------------------------------------

void expect_dense_priors(std::vector<FetchOpValue> priors)
{
    std::sort(priors.begin(), priors.end());
    for (std::size_t i = 0; i < priors.size(); ++i)
        ASSERT_EQ(priors[i], static_cast<FetchOpValue>(i));
}

TEST(ReactiveFetchOpTest, StartsInTtsLockMode)
{
    ReactiveFetchOp<NativePlatform> f(8);
    EXPECT_EQ(f.mode(), ReactiveFetchOp<NativePlatform>::Mode::kTtsLock);
    typename ReactiveFetchOp<NativePlatform>::Node n;
    for (FetchOpValue i = 0; i < 100; ++i)
        EXPECT_EQ(f.fetch_add(n, 1), i);
    EXPECT_EQ(f.read(), 100);
}

TEST(ReactiveFetchOpTest, InitialValue)
{
    ReactiveFetchOp<NativePlatform> f(4, 500);
    typename ReactiveFetchOp<NativePlatform>::Node n;
    EXPECT_EQ(f.fetch_add(n, 3), 500);
    EXPECT_EQ(f.read(), 503);
}

struct SimFetchOpOutcome {
    std::uint64_t protocol_changes;
    std::uint32_t final_mode;
};

SimFetchOpOutcome sim_reactive_fetchop_torture(std::uint32_t procs,
                                               std::uint32_t iters,
                                               std::uint64_t seed,
                                               ReactiveFetchOpParams params = {})
{
    using F = ReactiveFetchOp<SimPlatform>;
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto f = std::make_shared<F>(procs, 0, params);
    auto priors = std::make_shared<std::vector<FetchOpValue>>();
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename F::Node node;
            for (std::uint32_t i = 0; i < iters; ++i) {
                priors->push_back(f->fetch_add(node, 1));
                sim::delay(sim::random_below(150));
            }
        });
    }
    m.run();
    EXPECT_EQ(priors->size(), static_cast<std::size_t>(procs) * iters);
    expect_dense_priors(std::move(*priors));
    EXPECT_EQ(f->read(), static_cast<FetchOpValue>(procs) * iters);
    return {f->protocol_changes(), static_cast<std::uint32_t>(f->mode())};
}

TEST(ReactiveFetchOpTest, LinearizableLowContention)
{
    sim_reactive_fetchop_torture(2, 150, 1);
}

TEST(ReactiveFetchOpTest, LinearizableHighContention)
{
    sim_reactive_fetchop_torture(32, 20, 1);
}

TEST(ReactiveFetchOpTest, LinearizableSeedSweep)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        sim_reactive_fetchop_torture(12, 25, seed);
}

TEST(ReactiveFetchOpTest, EscalatesToCombiningUnderHeavyContention)
{
    // Force an eager queue->tree switch so the test exercises all three
    // protocols within a modest run.
    ReactiveFetchOpParams params;
    params.queue_wait_limit = 400;
    params.combine_min_batch = 2;  // pin the demotion threshold
    auto out = sim_reactive_fetchop_torture(48, 25, 3, params);
    EXPECT_GE(out.protocol_changes, 2u);  // TTS -> queue -> tree at least
    EXPECT_EQ(out.final_mode,
              static_cast<std::uint32_t>(
                  ReactiveFetchOp<SimPlatform>::Mode::kCombine));
}

TEST(ReactiveFetchOpTest, ReturnsFromCombiningWhenContentionFades)
{
    using F = ReactiveFetchOp<SimPlatform>;
    ReactiveFetchOpParams params;
    params.queue_wait_limit = 400;
    params.combine_min_batch = 2;  // pin the demotion threshold
    auto f = std::make_shared<F>(32, 0, params);

    sim::Machine m(32);
    for (std::uint32_t p = 0; p < 32; ++p) {
        m.spawn(p, [=] {
            typename F::Node node;
            for (int i = 0; i < 20; ++i)
                f->fetch_add(node, 1);
        });
    }
    m.run();
    EXPECT_EQ(f->mode(), F::Mode::kCombine);
    const FetchOpValue after_phase1 = f->read();
    EXPECT_EQ(after_phase1, 32 * 20);

    // Solo phase: low combining rate pulls it back off the tree.
    sim::Machine m2(1);
    m2.spawn(0, [=] {
        typename F::Node node;
        for (int i = 0; i < 60; ++i) {
            f->fetch_add(node, 1);
            sim::delay(50);
        }
    });
    m2.run();
    EXPECT_NE(f->mode(), F::Mode::kCombine);
    EXPECT_EQ(f->read(), 32 * 20 + 60);
}

TEST(ReactiveFetchOpTest, NativeThreadsLinearizable)
{
    using F = ReactiveFetchOp<NativePlatform>;
    const std::uint32_t threads =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    F f(threads);
    std::vector<std::vector<FetchOpValue>> priors(threads);
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            typename F::Node node;
            for (int i = 0; i < 300; ++i)
                priors[t].push_back(f.fetch_add(node, 1));
        });
    }
    for (auto& th : pool)
        th.join();
    std::vector<FetchOpValue> all;
    for (auto& v : priors)
        all.insert(all.end(), v.begin(), v.end());
    expect_dense_priors(std::move(all));
}

}  // namespace
}  // namespace reactive
