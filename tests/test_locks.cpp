// Correctness tests for every passive spin-lock protocol, on both the
// native platform (real threads) and the simulated multiprocessor
// (deterministic high-contention interleavings).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/cohort_queue.hpp"
#include "core/reactive_mutex.hpp"
#include "locks/anderson_lock.hpp"
#include "locks/lock_concepts.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/tas_lock.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/tts_lock.hpp"
#include "platform/native_platform.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"

namespace reactive {
namespace {

using sim::SimPlatform;

// ---- factory so typed tests can construct any lock uniformly ---------

template <typename L>
L make_lock(std::uint32_t max_contenders)
{
    if constexpr (std::is_constructible_v<L, std::uint32_t>) {
        return L(max_contenders);
    } else {
        (void)max_contenders;
        return L();
    }
}

// Locks hold atomics and are immovable; heap-allocate for shared use.
template <typename L>
std::shared_ptr<L> make_shared_lock(std::uint32_t max_contenders)
{
    if constexpr (std::is_constructible_v<L, std::uint32_t>)
        return std::make_shared<L>(max_contenders);
    else
        return std::make_shared<L>();
}

// ---- native-thread mutual exclusion ----------------------------------

template <typename L>
void native_mutex_torture(std::uint32_t threads, std::uint32_t iters)
{
    L lock = make_lock<L>(threads);
    long counter = 0;
    std::atomic<bool> violation{false};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::uint32_t i = 0; i < iters; ++i) {
                typename L::Node node;
                lock.lock(node);
                const long before = counter;
                counter = before + 1;
                if (counter != before + 1)
                    violation.store(true);
                lock.unlock(node);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_FALSE(violation.load());
    EXPECT_EQ(counter, static_cast<long>(threads) * iters);
}

template <typename L>
class NativeLockTest : public ::testing::Test {};

using NativeLockTypes =
    ::testing::Types<TasLock<NativePlatform>, TtsLock<NativePlatform>,
                     McsLock<NativePlatform, McsVariant::kFetchStore>,
                     McsLock<NativePlatform, McsVariant::kCompareSwap>,
                     TicketLock<NativePlatform>, AndersonLock<NativePlatform>>;
TYPED_TEST_SUITE(NativeLockTest, NativeLockTypes);

TYPED_TEST(NativeLockTest, MutualExclusionUnderThreads)
{
    // The host may have very few cores; keep iteration counts modest so
    // pure spinning under preemption stays fast.
    const std::uint32_t threads =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    native_mutex_torture<TypeParam>(threads, 400);
}

TYPED_TEST(NativeLockTest, SingleThreadedLockUnlock)
{
    TypeParam lock = make_lock<TypeParam>(4);
    for (int i = 0; i < 1000; ++i) {
        typename TypeParam::Node n;
        lock.lock(n);
        lock.unlock(n);
    }
    SUCCEED();
}

TYPED_TEST(NativeLockTest, ScopedLockGuards)
{
    TypeParam lock = make_lock<TypeParam>(4);
    int x = 0;
    {
        ScopedLock guard(lock);
        x = 1;
    }
    {
        ScopedLock guard(lock);  // must be acquirable again
        x = 2;
    }
    EXPECT_EQ(x, 2);
}

TYPED_TEST(NativeLockTest, TryLockSemantics)
{
    if constexpr (TryNodeLock<TypeParam>) {
        TypeParam lock = make_lock<TypeParam>(4);
        typename TypeParam::Node a, b;
        EXPECT_TRUE(lock.try_lock(a));
        EXPECT_FALSE(lock.try_lock(b));  // held
        lock.unlock(a);
        EXPECT_TRUE(lock.try_lock(b));
        lock.unlock(b);
    }
}

// ---- simulated-machine mutual exclusion ------------------------------

/**
 * Runs @p procs simulated processors hammering one lock. The critical
 * section contains simulated delays so the scheduler interleaves
 * aggressively; any mutual-exclusion failure corrupts `inside`.
 */
template <typename L>
void sim_mutex_torture(std::uint32_t procs, std::uint32_t iters,
                       std::uint64_t seed = 1)
{
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto lock = make_shared_lock<L>(procs);
    auto inside = std::make_shared<int>(0);
    auto counter = std::make_shared<long>(0);
    auto violations = std::make_shared<int>(0);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t i = 0; i < iters; ++i) {
                typename L::Node node;
                lock->lock(node);
                if (++*inside != 1)
                    ++*violations;
                sim::delay(10 + sim::random_below(40));
                if (*inside != 1)
                    ++*violations;
                --*inside;
                ++*counter;
                lock->unlock(node);
                sim::delay(sim::random_below(100));
            }
        });
    }
    m.run();
    EXPECT_EQ(*violations, 0);
    EXPECT_EQ(*counter, static_cast<long>(procs) * iters);
}

template <typename L>
class SimLockTest : public ::testing::Test {};

using SimLockTypes =
    ::testing::Types<TasLock<SimPlatform>, TtsLock<SimPlatform>,
                     McsLock<SimPlatform, McsVariant::kFetchStore>,
                     McsLock<SimPlatform, McsVariant::kCompareSwap>,
                     TicketLock<SimPlatform>, AndersonLock<SimPlatform>>;
TYPED_TEST_SUITE(SimLockTest, SimLockTypes);

TYPED_TEST(SimLockTest, MutualExclusionHighContention)
{
    sim_mutex_torture<TypeParam>(16, 40);
}

TYPED_TEST(SimLockTest, MutualExclusionLowContention)
{
    sim_mutex_torture<TypeParam>(2, 200);
}

TYPED_TEST(SimLockTest, MutualExclusionManySeeds)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        sim_mutex_torture<TypeParam>(8, 25, seed);
}

// The fetch&store-only MCS release has a cleanup path for the race where
// a waiter enqueues while the holder is emptying the queue (thesis
// Section 3.5.3). Two processors with tiny think times hit it hard.
TEST(McsRaceTest, UsurperPathIsCorrect)
{
    using L = McsLock<SimPlatform, McsVariant::kFetchStore>;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        sim::Machine m(2, sim::CostModel::alewife(), seed);
        auto lock = std::make_shared<L>();
        auto counter = std::make_shared<long>(0);
        for (std::uint32_t p = 0; p < 2; ++p) {
            m.spawn(p, [=] {
                for (int i = 0; i < 300; ++i) {
                    typename L::Node node;
                    lock->lock(node);
                    ++*counter;
                    lock->unlock(node);
                    sim::delay(sim::random_below(8));
                }
            });
        }
        m.run();
        EXPECT_EQ(*counter, 600);
    }
}

// MCS grants the lock in FIFO arrival order (fairness; thesis cites this
// as one of the queue lock's advantages).
TEST(McsFairnessTest, FifoGrantOrder)
{
    using L = McsLock<SimPlatform, McsVariant::kFetchStore>;
    sim::Machine m(8);
    auto lock = std::make_shared<L>();
    auto arrival = std::make_shared<std::vector<int>>();
    auto grant = std::make_shared<std::vector<int>>();
    for (std::uint32_t p = 0; p < 8; ++p) {
        m.spawn(p, [=] {
            sim::delay(100 * (p + 1));  // staggered, deterministic arrivals
            typename L::Node node;
            arrival->push_back(static_cast<int>(p));
            lock->lock(node);
            grant->push_back(static_cast<int>(p));
            sim::delay(500);  // hold long enough that all later procs queue
            lock->unlock(node);
        });
    }
    m.run();
    EXPECT_EQ(*grant, *arrival);
}

TEST(TicketFairnessTest, FifoGrantOrder)
{
    using L = TicketLock<SimPlatform>;
    sim::Machine m(6);
    auto lock = std::make_shared<L>();
    auto arrival = std::make_shared<std::vector<int>>();
    auto grant = std::make_shared<std::vector<int>>();
    for (std::uint32_t p = 0; p < 6; ++p) {
        m.spawn(p, [=] {
            sim::delay(150 * (p + 1));
            typename L::Node node;
            arrival->push_back(static_cast<int>(p));
            lock->lock(node);
            grant->push_back(static_cast<int>(p));
            sim::delay(600);
            lock->unlock(node);
        });
    }
    m.run();
    EXPECT_EQ(*grant, *arrival);
}

// ---- cohort queue native storms (the TSan CI job replays these) -------
//
// The two-level cohort queue's native coverage: threads *declare*
// their socket (NativePlatform::set_current_socket — the declared-id
// model the header documents), so the per-socket local queues, the
// cohort passes, and the budget-driven global handoffs all execute on
// real threads under ThreadSanitizer.

TEST(NativeCohortTest, MutualExclusionWithDeclaredSockets)
{
    const std::uint32_t threads =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    CohortQueue<NativePlatform>::Params cp;
    cp.sockets = 2;
    CohortQueue<NativePlatform> q(/*initially_valid=*/true, cp);
    long counter = 0;
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            NativePlatform::set_current_socket(t % 2);
            for (int i = 0; i < 400; ++i) {
                CohortQueue<NativePlatform>::Node n;
                (void)q.acquire(n);
                ++counter;  // protected by the lock
                q.release(n);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(counter, static_cast<long>(threads) * 400);
}

TEST(NativeCohortTest, RemoteWaiterIsNotStarvedByLocalStream)
{
    // One declared-remote thread against an all-local stream that only
    // stops once the remote finished: the bounded cohort budget is
    // what lets this test terminate.
    const std::uint32_t locals =
        std::max(1u, std::min(3u, std::thread::hardware_concurrency() - 1));
    CohortQueue<NativePlatform>::Params cp;
    cp.sockets = 2;
    CohortQueue<NativePlatform> q(/*initially_valid=*/true, cp);
    std::atomic<bool> done{false};
    long counter = 0;
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < locals; ++t) {
        pool.emplace_back([&] {
            NativePlatform::set_current_socket(0);
            while (!done.load(std::memory_order_relaxed)) {
                CohortQueue<NativePlatform>::Node n;
                (void)q.acquire(n);
                ++counter;
                q.release(n);
            }
        });
    }
    std::thread remote([&] {
        NativePlatform::set_current_socket(1);
        for (int i = 0; i < 200; ++i) {
            CohortQueue<NativePlatform>::Node n;
            (void)q.acquire(n);
            ++counter;
            q.release(n);
        }
        done.store(true, std::memory_order_relaxed);
    });
    remote.join();
    for (auto& th : pool)
        th.join();
    EXPECT_TRUE(done.load());
}

TEST(NativeCohortTest, ReactiveSwitchStormOverCohortQueue)
{
    // TTS <-> cohort protocol changes on real threads: every third
    // observed acquisition switches, driving acquire_invalid /
    // invalidate / the local-bailout dismantle paths under TSan.
    struct Metronome {
        std::uint32_t n = 0;
        bool on_tts_acquire(bool) { return ++n % 3 == 0; }
        bool on_queue_acquire(bool) { return ++n % 3 == 0; }
        void on_switch() {}
    };
    using RL = ReactiveNodeLock<NativePlatform, Metronome,
                                CohortQueue<NativePlatform>>;
    const std::uint32_t threads =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    CohortQueue<NativePlatform>::Params cp;
    cp.sockets = 2;
    // Without the optimistic fast path every acquisition is observed,
    // so the metronome fires even on hosts where preemption-grain
    // scheduling leaves the lock uncontended (1-core CI runners).
    ReactiveLockParams lp;
    lp.optimistic_tts = false;
    RL lock{lp, Metronome{}, cp};
    long counter = 0;
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            NativePlatform::set_current_socket(t % 2);
            for (int i = 0; i < 300; ++i) {
                typename RL::Node n;
                lock.lock(n);
                ++counter;
                lock.unlock(n);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(counter, static_cast<long>(threads) * 300);
    EXPECT_GT(lock.inner().protocol_changes(), 0u);
}

// ---- native queue-mode handoff storm ----------------------------------
// A reactive lock pinned in the MCS queue protocol, four threads with no
// think time: every handoff runs ReactiveQueue's release after a wait
// that prefetched the successor link. Under TSan this checks the
// handoff's ordering on real threads; natively the default mutex on
// three threads hardly ever leaves TTS.

TEST(NativeQueueStormTest, PinnedQueueHandoffKeepsExclusion)
{
    struct PinQueuePolicy {
        bool on_tts_acquire(bool) { return true; }
        bool on_queue_acquire(bool) { return false; }
        void on_switch() {}
    };
    using RL = ReactiveNodeLock<NativePlatform, PinQueuePolicy>;
    constexpr std::uint32_t kThreads = 4;
    constexpr long kIters = 2000;
    // Every acquisition is observed, so the first release switches to
    // the queue protocol, and the policy never leaves it.
    ReactiveLockParams lp;
    lp.optimistic_tts = false;
    RL lock{lp};
    typename RL::Node held;
    lock.lock(held);
    lock.unlock(held);
    ASSERT_EQ(lock.inner().mode(), RL::Inner::Mode::kQueue);

    // A counter pair written only inside the lock: plain memory, so an
    // overlap shows as a torn pair here and as a data race under TSan.
    long first = 0;
    long second = 0;
    std::atomic<bool> torn{false};
    std::atomic<std::uint32_t> arrived{0};
    // The main thread holds the lock until every worker is inside its
    // first lock(), so the storm starts with a queue four waiters deep.
    lock.lock(held);
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (long i = 0; i < kIters; ++i) {
                typename RL::Node n;
                if (i == 0)
                    arrived.fetch_add(1);
                lock.lock(n);
                const long f = ++first;
                if (second + 1 != f)
                    torn.store(true);
                second = f;
                lock.unlock(n);
            }
        });
    }
    while (arrived.load() < kThreads)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    lock.unlock(held);
    for (auto& th : pool)
        th.join();
    EXPECT_FALSE(torn.load());
    EXPECT_EQ(first, static_cast<long>(kThreads) * kIters);
    EXPECT_EQ(lock.inner().mode(), RL::Inner::Mode::kQueue);
    EXPECT_EQ(lock.inner().protocol_changes(), 1u);
}

// Queue locks make waiters spin on their own cache line: under heavy
// contention MCS must generate far less coherence traffic and finish
// sooner than the centralized protocols (the core scalability claim of
// Section 3.1).
TEST(TrafficShapeTest, McsBeatsCentralizedLocksUnderContention)
{
    struct Outcome {
        std::uint64_t invalidated_copies;
        std::uint64_t elapsed;
    };
    auto run = []<typename L>(std::type_identity<L>, std::uint32_t procs) {
        sim::Machine m(procs);
        auto lock = make_shared_lock<L>(procs);
        for (std::uint32_t p = 0; p < procs; ++p) {
            m.spawn(p, [=] {
                for (int i = 0; i < 20; ++i) {
                    typename L::Node node;
                    lock->lock(node);
                    sim::delay(100);
                    lock->unlock(node);
                    sim::delay(sim::random_below(200));
                }
            });
        }
        m.run();
        return Outcome{m.stats().invalidations, m.elapsed()};
    };
    const Outcome tas = run(std::type_identity<TasLock<SimPlatform>>{}, 16);
    const Outcome tts = run(std::type_identity<TtsLock<SimPlatform>>{}, 16);
    const Outcome mcs = run(
        std::type_identity<McsLock<SimPlatform, McsVariant::kFetchStore>>{},
        16);
    // TTS read-pollers all re-cache the lock word, so every release pays
    // an invalidation round over ~P copies; MCS signals one waiter.
    EXPECT_LT(mcs.invalidated_copies, tts.invalidated_copies / 2);
    // End-to-end, the queue lock wins at high contention (Figure 1.1).
    EXPECT_LT(mcs.elapsed, tas.elapsed);
}

}  // namespace
}  // namespace reactive
