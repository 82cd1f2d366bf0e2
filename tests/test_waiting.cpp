// Tests for Chapter 4's waiting algorithms and the synchronization
// constructs built on them: wait_until semantics, futures,
// J-structures, barriers, and the waiting mutex, on both platforms —
// plus the reactive waiting axis: the eventcount contract of both
// native wait queues, the sim park/wake integration of the reactive
// primitives, the deschedule gate on leaving spin, and native
// oversubscribed park/wake storms.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "apps/workloads.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/cohort_queue.hpp"
#include "core/reactive_mutex.hpp"
#include "platform/native_platform.hpp"
#include "platform/parker.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"
#include "stats/summary.hpp"
#include "waiting/reactive/wait_select.hpp"
#include "waiting/reactive/wait_site.hpp"
#include "waiting/sync/barrier.hpp"
#include "waiting/sync/future.hpp"
#include "waiting/sync/jstructure.hpp"
#include "waiting/sync/waiting_mutex.hpp"
#include "waiting/wait.hpp"

namespace reactive {
namespace {

using sim::SimPlatform;

const WaitingAlgorithm kAlgos[] = {
    WaitingAlgorithm::always_spin(),
    WaitingAlgorithm::always_block(),
    WaitingAlgorithm::two_phase(270),
    WaitingAlgorithm::two_phase(500),
};

// ---- wait_until semantics ----------------------------------------------

TEST(WaitUntilTest, ImmediateConditionCostsNothing)
{
    sim::Machine m(1);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto out = std::make_shared<WaitOutcome>();
    m.spawn(0, [=] {
        *out = wait_until<SimPlatform>(*q, [] { return true; },
                                       WaitingAlgorithm::two_phase(270));
    });
    m.run();
    EXPECT_EQ(out->wait_cycles, 0u);
    EXPECT_FALSE(out->blocked);
}

TEST(WaitUntilTest, TwoPhaseShortWaitPollsOnly)
{
    // Condition satisfied well inside Lpoll: the waiter must not block.
    sim::Machine m(2);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    auto out = std::make_shared<WaitOutcome>();
    m.spawn(0, [=] {
        *out = wait_until<SimPlatform>(*q, [&] { return flag->load() != 0; },
                                       WaitingAlgorithm::two_phase(500));
    });
    m.spawn(1, [=] {
        sim::delay(100);
        flag->store(1);
        q->notify_all();
    });
    m.run();
    EXPECT_FALSE(out->blocked);
    EXPECT_GT(out->wait_cycles, 0u);
    EXPECT_LT(out->wait_cycles, 700u);
    EXPECT_EQ(m.stats().blocks, 0u);
}

TEST(WaitUntilTest, TwoPhaseLongWaitBlocks)
{
    sim::Machine m(2);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    auto out = std::make_shared<WaitOutcome>();
    m.spawn(0, [=] {
        *out = wait_until<SimPlatform>(*q, [&] { return flag->load() != 0; },
                                       WaitingAlgorithm::two_phase(270));
    });
    m.spawn(1, [=] {
        sim::delay(20000);  // far beyond Lpoll
        flag->store(1);
        q->notify_all();
    });
    m.run();
    EXPECT_TRUE(out->blocked);
    EXPECT_GE(out->wait_cycles, 20000u - 500u);
    EXPECT_EQ(m.stats().blocks, 1u);
}

TEST(WaitUntilTest, AlwaysSpinNeverBlocks)
{
    sim::Machine m(2);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    m.spawn(0, [=] {
        wait_until<SimPlatform>(*q, [&] { return flag->load() != 0; },
                                WaitingAlgorithm::always_spin());
    });
    m.spawn(1, [=] {
        sim::delay(5000);
        flag->store(1);
    });
    m.run();
    EXPECT_EQ(m.stats().blocks, 0u);
}

TEST(WaitUntilTest, AlwaysBlockBlocksImmediately)
{
    sim::Machine m(2);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    auto waiter_cycles = std::make_shared<std::uint64_t>(0);
    m.spawn(0, [=] {
        wait_until<SimPlatform>(*q, [&] { return flag->load() != 0; },
                                WaitingAlgorithm::always_block());
        *waiter_cycles = sim::now();
    });
    m.spawn(1, [=] {
        sim::delay(10000);
        flag->store(1);
        q->notify_all();
    });
    m.run();
    EXPECT_EQ(m.stats().blocks, 1u);
    // The blocked waiter burned ~B cycles of processor time, not 10000:
    // its processor was free while blocked (clock restarted at wake).
    EXPECT_GE(*waiter_cycles, 10000u);
}

TEST(WaitUntilTest, SwitchSpinningOverlapsWaitWithOtherContexts)
{
    // Two threads on one 4-context processor: one switch-spins waiting
    // for the other's result; the other computes 20000 cycles. With
    // spinning the wait would cost ~20000 wasted cycles on top of the
    // compute; switch-spinning hands the processor over (Section 4.1),
    // so total elapsed stays close to the compute time. Scheduling is
    // non-preemptive (Section 2.2.4), so the computing thread runs to
    // completion once switched to.
    sim::CostModel cm = sim::CostModel::multithreaded(4);
    sim::Machine m(1, cm);
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    m.spawn(0, [=] {
        wait_until<SimPlatform>(
            *q, [&] { return flag->load() != 0; },
            WaitingAlgorithm::always_spin(PollMechanism::kSwitchSpin));
    });
    m.spawn(0, [=] {
        sim::delay(20000);
        flag->store(1);
    });
    m.run();
    EXPECT_GE(m.stats().context_switches, 1u);
    EXPECT_LT(m.elapsed(), 30000u);  // wait overlapped with compute
}

// ---- futures ------------------------------------------------------------

TEST(FutureTest, SimSetThenGet)
{
    for (const auto& alg : kAlgos) {
        sim::Machine m(2);
        auto f = std::make_shared<FutureValue<int, SimPlatform>>(alg);
        auto got = std::make_shared<int>(0);
        m.spawn(0, [=] { *got = f->get(); });
        m.spawn(1, [=] {
            sim::delay(3000);
            f->set_value(42);
        });
        m.run();
        EXPECT_EQ(*got, 42);
    }
}

TEST(FutureTest, ManyReadersOneWriter)
{
    sim::Machine m(8);
    auto f = std::make_shared<FutureValue<int, SimPlatform>>(
        WaitingAlgorithm::two_phase(270));
    auto sum = std::make_shared<long>(0);
    for (std::uint32_t p = 1; p < 8; ++p)
        m.spawn(p, [=] { *sum += f->get(); });
    m.spawn(0, [=] {
        sim::delay(5000);
        f->set_value(10);
    });
    m.run();
    EXPECT_EQ(*sum, 70);
}

TEST(FutureTest, NativeThreads)
{
    FutureValue<int, NativePlatform> f(WaitingAlgorithm::two_phase(2000));
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        f.set_value(7);
    });
    EXPECT_EQ(f.get(), 7);
    producer.join();
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(f.get(), 7);  // repeated reads fine
}

TEST(FutureTest, ProfileRecordsWaits)
{
    sim::Machine m(2);
    auto f = std::make_shared<FutureValue<int, SimPlatform>>(
        WaitingAlgorithm::always_spin());
    auto profile = std::make_shared<stats::Samples>();
    m.spawn(0, [=] { f->get(profile.get()); });
    m.spawn(1, [=] {
        sim::delay(4000);
        f->set_value(1);
    });
    m.run();
    ASSERT_EQ(profile->size(), 1u);
    EXPECT_GT(profile->values()[0], 3000.0);
}

// ---- J-structures --------------------------------------------------------

TEST(JStructureTest, PipelinedReadersAndWriter)
{
    for (const auto& alg : kAlgos) {
        sim::Machine m(4);
        auto js = std::make_shared<JStructure<int, SimPlatform>>(64, alg);
        auto sums = std::make_shared<std::vector<long>>(3, 0);
        // Producer fills slots with variable grain.
        m.spawn(0, [=] {
            for (int i = 0; i < 64; ++i) {
                sim::delay(100 + sim::random_below(300));
                js->write(static_cast<std::size_t>(i), i);
            }
        });
        for (std::uint32_t p = 1; p < 4; ++p) {
            m.spawn(p, [=] {
                long s = 0;
                for (int i = 0; i < 64; ++i)
                    s += js->read(static_cast<std::size_t>(i));
                (*sums)[p - 1] = s;
            });
        }
        m.run();
        for (long s : *sums)
            EXPECT_EQ(s, 64 * 63 / 2);
    }
}

TEST(JStructureTest, ResetAllowsReuse)
{
    JStructure<int, NativePlatform> js(4);
    js.write(0, 5);
    EXPECT_TRUE(js.full(0));
    EXPECT_EQ(js.read(0), 5);
    js.reset();
    EXPECT_FALSE(js.full(0));
    js.write(0, 6);
    EXPECT_EQ(js.read(0), 6);
}

// ---- barrier --------------------------------------------------------------

TEST(BarrierTest, EpisodesStayInLockstep)
{
    for (const auto& alg : kAlgos) {
        const std::uint32_t procs = 8;
        sim::Machine m(procs);
        auto bar = std::make_shared<WaitingBarrier<SimPlatform>>(procs, alg);
        auto phase_counts = std::make_shared<std::vector<int>>(10, 0);
        auto violations = std::make_shared<int>(0);
        for (std::uint32_t p = 0; p < procs; ++p) {
            m.spawn(p, [=] {
                WaitingBarrier<SimPlatform>::Node node;
                for (int e = 0; e < 10; ++e) {
                    sim::delay(sim::random_below(2000));  // skewed arrivals
                    ++(*phase_counts)[e];
                    bar->arrive(node);
                    // After the barrier, everyone must have arrived.
                    if ((*phase_counts)[e] != static_cast<int>(procs))
                        ++*violations;
                }
            });
        }
        m.run();
        EXPECT_EQ(*violations, 0);
    }
}

TEST(BarrierTest, NativeThreads)
{
    const std::uint32_t threads = 4;
    WaitingBarrier<NativePlatform> bar(threads,
                                       WaitingAlgorithm::two_phase(5000));
    std::atomic<int> arrived{0};
    std::atomic<int> violations{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            WaitingBarrier<NativePlatform>::Node node;
            for (int e = 0; e < 50; ++e) {
                arrived.fetch_add(1);
                bar.arrive(node);
                if (arrived.load() < (e + 1) * static_cast<int>(threads))
                    violations.fetch_add(1);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(violations.load(), 0);
}

// ---- waiting mutex ---------------------------------------------------------

TEST(WaitingMutexTest, MutualExclusionAllAlgorithms)
{
    for (const auto& alg : kAlgos) {
        sim::Machine m(8);
        auto mu = std::make_shared<WaitingMutex<SimPlatform>>(alg);
        auto inside = std::make_shared<int>(0);
        auto violations = std::make_shared<int>(0);
        auto count = std::make_shared<long>(0);
        for (std::uint32_t p = 0; p < 8; ++p) {
            m.spawn(p, [=] {
                for (int i = 0; i < 40; ++i) {
                    mu->lock();
                    if (++*inside != 1)
                        ++*violations;
                    sim::delay(30 + sim::random_below(50));
                    --*inside;
                    ++*count;
                    mu->unlock();
                    sim::delay(sim::random_below(200));
                }
            });
        }
        m.run();
        EXPECT_EQ(*violations, 0);
        EXPECT_EQ(*count, 8 * 40);
    }
}

TEST(WaitingMutexTest, BlockingFreesTheProcessor)
{
    // The waiter blocks (always-block) while the holder computes on
    // another processor; the blocked waiter's processor must not burn
    // the wait spinning: the wake resumes it near the unlock time.
    sim::Machine m(2);
    auto mu = std::make_shared<WaitingMutex<SimPlatform>>(
        WaitingAlgorithm::always_block());
    auto order = std::make_shared<std::vector<int>>();
    m.spawn(0, [=] {
        mu->lock();
        sim::delay(20000);
        order->push_back(1);
        mu->unlock();
    });
    m.spawn(1, [=] {
        sim::delay(500);  // ensure the first thread owns the mutex
        mu->lock();
        order->push_back(2);
        mu->unlock();
    });
    m.run();
    EXPECT_EQ(*order, (std::vector<int>{1, 2}));
    EXPECT_GE(m.stats().blocks, 1u);
    EXPECT_EQ(m.stats().wakes, m.stats().blocks);
}

TEST(WaitingMutexTest, ProfileSeparatesContendedWaits)
{
    sim::Machine m(4);
    auto mu = std::make_shared<WaitingMutex<SimPlatform>>(
        WaitingAlgorithm::two_phase(270));
    auto profile = std::make_shared<stats::Samples>();
    for (std::uint32_t p = 0; p < 4; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 20; ++i) {
                mu->lock(profile.get());
                sim::delay(200);
                mu->unlock();
                sim::delay(sim::random_below(100));
            }
        });
    }
    m.run();
    EXPECT_EQ(profile->size(), 80u);
    EXPECT_GT(profile->stats().max(), 0.0);  // some waits were real
}

// ---- eventcount contract (futex + condvar fallback) ---------------------
//
// The condvar fallback must obey the futex eventcount's exact
// epoch/waiters discipline (platform/parker.hpp file header). Both
// classes compile on Linux, so these race-window tests exercise the
// fallback on the platform the CI actually runs.

template <typename Q>
class EventCountContractTest : public ::testing::Test {};

#if defined(__linux__)
using EventCountTypes = ::testing::Types<FutexWaitQueue, CondVarWaitQueue>;
#else
using EventCountTypes = ::testing::Types<CondVarWaitQueue>;
#endif
TYPED_TEST_SUITE(EventCountContractTest, EventCountTypes);

TYPED_TEST(EventCountContractTest, NotifyInsidePrepareCommitWindowIsSeen)
{
    // The race window itself: a notify that lands after prepare_wait's
    // epoch snapshot must make commit_wait return without sleeping
    // (FUTEX_WAIT's compare-and-sleep; the condvar path's epoch
    // predicate under the mutex).
    TypeParam q;
    const std::uint32_t e = q.prepare_wait();
    q.notify_one();
    q.commit_wait(e);  // a lost wakeup would hang here
    EXPECT_EQ(q.waiters(), 0u);
}

TYPED_TEST(EventCountContractTest, CancelRetractsTheAdvertisement)
{
    TypeParam q;
    (void)q.prepare_wait();
    EXPECT_EQ(q.waiters(), 1u);
    q.cancel_wait();
    EXPECT_EQ(q.waiters(), 0u);
}

TYPED_TEST(EventCountContractTest, ElidedNotifyStillAdvancesTheEpoch)
{
    // A notify with no advertised waiters skips the expensive wake but
    // must still bump the epoch, or a waiter preparing concurrently
    // could snapshot the stale value and sleep through its wakeup.
    TypeParam q;
    const std::uint32_t e1 = q.prepare_wait();
    q.cancel_wait();
    q.notify_all();  // waiters == 0: wake elided
    const std::uint32_t e2 = q.prepare_wait();
    q.cancel_wait();
    EXPECT_NE(e1, e2);
}

TYPED_TEST(EventCountContractTest, PrepareNotifyRaceHammerLosesNoWakeup)
{
    // Two threads hammer the prepare/cancel/commit vs. notify window.
    // A lost wakeup wedges the waiter on a stale epoch and hangs the
    // test (the canary); wakes for already-satisfied rounds are
    // absorbed by the re-arm loop (spurious-wake tolerance).
    TypeParam q;
    std::atomic<std::uint32_t> published{0};
    constexpr std::uint32_t kRounds = 10000;
    std::thread waiter([&] {
        for (std::uint32_t r = 1; r <= kRounds; ++r) {
            for (;;) {
                const std::uint32_t e = q.prepare_wait();
                if (published.load(std::memory_order_seq_cst) >= r) {
                    q.cancel_wait();
                    break;
                }
                q.commit_wait(e);  // woken (or spurious): re-test
            }
        }
    });
    for (std::uint32_t r = 1; r <= kRounds; ++r) {
        published.store(r, std::memory_order_seq_cst);
        q.notify_one();
    }
    waiter.join();
    EXPECT_EQ(q.waiters(), 0u);
}

TYPED_TEST(EventCountContractTest, NotifyForAnotherPredicateReArmsCleanly)
{
    // Two waiters with distinct predicates share one queue. A
    // notify_all satisfying only the first must leave the second
    // re-armed and waiting (every wake is spurious from its point of
    // view) until its own predicate flips.
    TypeParam q;
    std::atomic<int> a{0};
    std::atomic<int> b{0};
    std::atomic<int> a_done{0};
    auto wait_for = [&](std::atomic<int>& flag) {
        for (;;) {
            const std::uint32_t e = q.prepare_wait();
            if (flag.load(std::memory_order_seq_cst) != 0) {
                q.cancel_wait();
                return;
            }
            q.commit_wait(e);
        }
    };
    std::thread ta([&] {
        wait_for(a);
        a_done.store(1, std::memory_order_seq_cst);
    });
    std::thread tb([&] { wait_for(b); });
    a.store(1, std::memory_order_seq_cst);
    q.notify_all();
    while (a_done.load(std::memory_order_seq_cst) == 0)
        std::this_thread::yield();
    EXPECT_EQ(b.load(), 0);  // tb's predicate untouched: still waiting
    b.store(1, std::memory_order_seq_cst);
    q.notify_all();
    ta.join();
    tb.join();
    EXPECT_EQ(q.waiters(), 0u);
}

// ---- reactive waiting axis: sim integration ------------------------------

using SpinLockSim = ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy>;
using ParkLockSim = ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy,
                                     ReactiveQueue<SimPlatform>, ParkWaiting,
                                     FixedWaitPolicy>;
using ReactiveWaitSim = ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy,
                                         ReactiveQueue<SimPlatform>,
                                         ParkWaiting, CalibratedWaitPolicy>;

/// Binary policy that never leaves the protocol it starts in.
struct StayPolicy {
    bool on_tts_acquire(bool) { return false; }
    bool on_queue_acquire(bool) { return false; }
    void on_switch() {}
};

sim::CostModel preemptive_costs()
{
    sim::CostModel c = sim::CostModel::alewife();
    c.preempt_quantum = 10000;
    return c;
}

TEST(WaitAxisSimTest, FixedParkHintParksWaiters)
{
    auto lock = std::make_shared<ParkLockSim>();
    lock->inner().wait_policy() =
        FixedWaitPolicy(WaitingAlgorithm::always_block());
    sim::MachineStats st;
    const std::uint64_t elapsed =
        apps::run_lock_cycle_oversubscribed<ParkLockSim>(
            2, /*factor=*/1, /*iters=*/60, /*cs=*/2000, /*think=*/0,
            /*seed=*/1, lock, sim::CostModel::alewife(), &st);
    EXPECT_GT(elapsed, 0u);
    // The park hint reaches the site at the first release; from then
    // on contended waiters block instead of spinning. The hold must
    // comfortably exceed the thread-unload cost (the commit_wait
    // window), or every park is aborted by the next release's epoch
    // bump before it can take effect.
    EXPECT_GT(st.blocks, 0u);
    EXPECT_EQ(st.wakes, st.blocks);
}

TEST(WaitAxisSimTest, SpinInstantiationNeverBlocksEvenOversubscribed)
{
    // The SpinWaiting lock has no parking machinery: oversubscribed it
    // survives on the preemption quantum alone (and must never touch
    // the machine's block/wake paths — the park-free identity).
    sim::MachineStats st;
    apps::run_lock_cycle_oversubscribed<SpinLockSim>(
        2, /*factor=*/2, /*iters=*/40, /*cs=*/100, /*think=*/0, /*seed=*/1,
        nullptr, preemptive_costs(), &st);
    EXPECT_EQ(st.blocks, 0u);
    EXPECT_EQ(st.wakes, 0u);
    EXPECT_GT(st.preemptions, 0u);
}

TEST(WaitAxisSimTest, ReactiveParksUnderOversubscription)
{
    // 4 threads per single-context processor with think time between
    // sections: spinners burn whole preemption quanta that runnable
    // thinkers need, the lock sits idle while the next acquirer waits
    // for a context, and the calibrated policy's idle lane drives it
    // out of spin — waiters must actually park. (A zero-think hot loop
    // is deliberately *not* used here: there the handoff is instant and
    // staying spin is the correct decision.)
    auto lock = std::make_shared<ReactiveWaitSim>();
    sim::MachineStats st;
    apps::run_lock_cycle_oversubscribed<ReactiveWaitSim>(
        2, /*factor=*/4, /*iters=*/60, /*cs=*/200, /*think=*/3000,
        /*seed=*/1, lock, preemptive_costs(), &st);
    EXPECT_GT(st.blocks, 0u);
    EXPECT_EQ(st.wakes, st.blocks);
    // The policy left spin at least once mid-run. (The *final* hint is
    // deliberately not asserted: as the run drains, contention drops
    // and a correct calibrated policy decays back toward spin.)
    EXPECT_GT(lock->inner().wait_mode_changes(), 0u);
}

TEST(WaitAxisSimTest, FactorOneQuantumOffMatchesFlatKernelExactly)
{
    // The park-free identity argument as a determinism check: the
    // oversubscribed kernel at factor 1 with the quantum off builds the
    // same machine and schedule as the flat kernel, so the elapsed
    // cycle counts must be *identical*, not merely close.
    const std::uint64_t flat = apps::run_lock_cycle<SpinLockSim>(
        4, /*iters=*/100, /*cs=*/100, /*think=*/300, /*seed=*/7);
    const std::uint64_t over =
        apps::run_lock_cycle_oversubscribed<SpinLockSim>(
            4, /*factor=*/1, /*iters=*/100, /*cs=*/100, /*think=*/300,
            /*seed=*/7);
    EXPECT_EQ(flat, over);
}

TEST(WaitAxisSimTest, CohortQueueParkingKeepsExclusionAndParks)
{
    // The NUMA lock's parking config: local waiters park under their
    // socket's site, leaders under the global site. Forced park hint,
    // socketed machine, exclusion + completion + parks.
    using CohortPark = ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy,
                                        CohortQueue<SimPlatform, ParkWaiting>,
                                        ParkWaiting, FixedWaitPolicy>;
    sim::Machine m(8, sim::Topology{2, 4}, sim::CostModel::alewife(), 5);
    CohortQueue<SimPlatform, ParkWaiting>::Params cp;
    cp.sockets = 2;
    auto lock = std::make_shared<CohortPark>(ReactiveLockParams{},
                                             AlwaysSwitchPolicy{}, cp);
    lock->inner().wait_policy() =
        FixedWaitPolicy(WaitingAlgorithm::always_block());
    auto inside = std::make_shared<int>(0);
    auto violations = std::make_shared<int>(0);
    auto count = std::make_shared<long>(0);
    for (std::uint32_t p = 0; p < 8; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 30; ++i) {
                typename CohortPark::Node node;
                lock->lock(node);
                if (++*inside != 1)
                    ++*violations;
                sim::delay(80);
                --*inside;
                ++*count;
                lock->unlock(node);
                sim::delay(sim::random_below(100));
            }
        });
    }
    m.run();
    EXPECT_EQ(*violations, 0);
    EXPECT_EQ(*count, 240);
    EXPECT_GT(m.stats().blocks, 0u);
}

TEST(WaitAxisSimTest, RwLockParkingMaintainsExclusionAndParks)
{
    using RW = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy, ParkWaiting,
                              FixedWaitPolicy>;
    sim::Machine m(4);
    auto rw = std::make_shared<RW>();
    rw->wait_policy() = FixedWaitPolicy(WaitingAlgorithm::always_block());
    auto writers_in = std::make_shared<int>(0);
    auto readers_in = std::make_shared<int>(0);
    auto violations = std::make_shared<int>(0);
    auto ops = std::make_shared<long>(0);
    for (std::uint32_t p = 0; p < 4; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 40; ++i) {
                typename RW::Node n;
                if ((i + static_cast<int>(p)) % 3 == 0) {
                    rw->lock_write(n);
                    if (++*writers_in != 1 || *readers_in != 0)
                        ++*violations;
                    sim::delay(150);
                    --*writers_in;
                    rw->unlock_write(n);
                } else {
                    rw->lock_read(n);
                    ++*readers_in;
                    if (*writers_in != 0)
                        ++*violations;
                    sim::delay(60);
                    --*readers_in;
                    rw->unlock_read(n);
                }
                ++*ops;
                sim::delay(sim::random_below(120));
            }
        });
    }
    m.run();
    EXPECT_EQ(*violations, 0);
    EXPECT_EQ(*ops, 160);
    EXPECT_GT(m.stats().blocks, 0u);
}

TEST(WaitAxisSimTest, BarrierParkingStaysInLockstepAndParks)
{
    // Pin the protocol to central (the only slot that exposes the
    // site-aware episode wait; tree/dissemination keep local spins) and
    // force the park hint: early arrivals must park and the completer's
    // broadcast must wake every one, or the episode wedges.
    using Bar = ReactiveBarrier<SimPlatform, StayPolicy,
                                CentralTreeBarrierSet<SimPlatform>,
                                ParkWaiting, FixedWaitPolicy>;
    const std::uint32_t procs = 4;
    sim::Machine m(procs);
    auto bar = std::make_shared<Bar>(procs);
    bar->wait_policy() = FixedWaitPolicy(WaitingAlgorithm::always_block());
    auto phase_counts = std::make_shared<std::vector<int>>(20, 0);
    auto violations = std::make_shared<int>(0);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename Bar::Node node;
            for (int e = 0; e < 20; ++e) {
                sim::delay(sim::random_below(3000));  // skewed arrivals
                ++(*phase_counts)[e];
                bar->arrive(node);
                if ((*phase_counts)[e] != static_cast<int>(procs))
                    ++*violations;
            }
        });
    }
    m.run();
    EXPECT_EQ(*violations, 0);
    EXPECT_EQ(bar->mode(), Bar::Mode::kCentral);
    EXPECT_GT(m.stats().blocks, 0u);
    EXPECT_EQ(m.stats().wakes, m.stats().blocks);
}

// ---- deschedule evidence: the gate on leaving spin ------------------------
//
// Parking pays B to free the waiter's processor, which helps only when
// another thread wants it. Spin slices report a poll gap that outlasts
// the poll's own pause by more than the platform's deschedule_gap, and
// CalibratedWaitPolicy steps spin -> two-phase only while such a report
// is recent.

TEST(DescheduleGateTest, PreemptedSpinnerReportsDescheduled)
{
    // Two threads share one single-context processor (x2): the spinner
    // runs first and loses the processor at each quantum expiry to the
    // thread that will set its flag.
    sim::Machine m(1, preemptive_costs(), 1);
    WaitSite<SimPlatform, ParkWaiting> site;
    sim::Atomic<std::uint32_t> flag{0};
    AwaitResult r;
    m.spawn(0, [&] { r = site.await([&] { return flag.load() != 0; }); });
    m.spawn(0, [&] {
        sim::delay(30000);
        flag.store(1);
    });
    m.run();
    EXPECT_GT(m.stats().preemptions, 0u);
    EXPECT_GT(r.wait_cycles, 30000u);
    EXPECT_FALSE(r.blocked);  // the default hint is spin
    EXPECT_TRUE(r.descheduled);
}

/// A waiter alone on its processor (x1) spinning with backoff until a
/// flag set 200k cycles later; @p report_pause picks whether its poll
/// returns the drawn delay. Returns the site's report and the final
/// backoff mean.
std::pair<AwaitResult, std::uint32_t> backoff_wait(bool report_pause)
{
    sim::Machine m(2, preemptive_costs(), 1);
    WaitSite<SimPlatform, ParkWaiting> site;
    sim::Atomic<std::uint32_t> flag{0};
    AwaitResult r;
    std::uint32_t mean = 0;
    m.spawn(0, [&] {
        ExpBackoff<SimPlatform> backoff(BackoffParams{16, 8192});
        auto pred = [&] { return flag.load() != 0; };
        r = site.await(pred, [&] {
            const std::uint32_t drawn = backoff.pause();
            return report_pause ? drawn : 0u;
        });
        mean = backoff.mean();
    });
    m.spawn(1, [&] {
        sim::delay(200000);
        flag.store(1);
    });
    m.run();
    EXPECT_EQ(m.stats().preemptions, 0u);
    return {r, mean};
}

TEST(DescheduleGateTest, CappedBackoffIsNotADeschedule)
{
    // The pauses reach the 8,192-cycle cap, four times the sim's
    // deschedule_gap, yet the waiter never lost its processor: the
    // pause it drew is subtracted from each gap.
    const auto [r, mean] = backoff_wait(/*report_pause=*/true);
    EXPECT_EQ(mean, 8192u);
    EXPECT_FALSE(r.descheduled);
    // The same waiter with a poll that hides its pause counts its own
    // backoff as lost time: the correction is what keeps it quiet.
    EXPECT_TRUE(backoff_wait(/*report_pause=*/false).first.descheduled);
}

/// One release of a 100-cycle hold, 10k cycles after the previous
/// one: a handoff gap far above hold/2, so the gap test alone says
/// "unsaturated" (the idle lane grows within a few releases).
void idle_release(CalibratedWaitPolicy& pol, std::uint64_t& now)
{
    now += 10000;
    WaitSignal s;
    s.hold_cycles = 100;
    s.now_cycles = now;
    (void)pol.on_release(s);
}

TEST(DescheduleGateTest, PolicyLeavesSpinOnlyOnRecentEvidence)
{
    CalibratedWaitPolicy pol;
    std::uint64_t now = 0;
    EXPECT_EQ(pol.releases_since_deschedule(),
              CalibratedWaitPolicy::kNeverDescheduled);
    for (int i = 0; i < 100; ++i)
        idle_release(pol, now);
    EXPECT_GT(pol.idle_estimate(), pol.hold_estimate());
    EXPECT_EQ(pol.mode(), WaitMode::kSpin);  // nobody wants the processor

    // One report opens the step; kLeaveSpinStreak (8) agreeing
    // releases take it.
    pol.note_descheduled();
    int steps = 0;
    while (pol.mode() == WaitMode::kSpin && steps < 20) {
        idle_release(pol, now);
        ++steps;
    }
    EXPECT_EQ(pol.mode(), WaitMode::kTwoPhase);
    EXPECT_EQ(steps, 8);
    EXPECT_EQ(pol.releases_since_deschedule(), 8u);
}

TEST(DescheduleGateTest, DescheduleEvidenceExpires)
{
    CalibratedWaitPolicy pol;
    std::uint64_t now = 0;
    pol.note_descheduled();
    // Saturated handoffs (gap 0) while the evidence ages out.
    for (std::uint32_t i = 0; i <= CalibratedWaitPolicy::kDescheduleEvidence;
         ++i) {
        now += 100;
        WaitSignal s;
        s.hold_cycles = 100;
        s.now_cycles = now;
        (void)pol.on_release(s);
    }
    EXPECT_EQ(pol.mode(), WaitMode::kSpin);
    for (int i = 0; i < 100; ++i)
        idle_release(pol, now);
    EXPECT_EQ(pol.mode(), WaitMode::kSpin);  // stale evidence
    EXPECT_GT(pol.releases_since_deschedule(),
              CalibratedWaitPolicy::kDescheduleEvidence);
}

using CalRwSim = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy, ParkWaiting,
                                CalibratedWaitPolicy>;
using SpinRwSim = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy>;

/// Read and write holds of the gate's rwlock runs (DESIGN.md's grid).
constexpr std::uint32_t kOversubReadHold = 100;
constexpr std::uint32_t kOversubWriteHold = 500;

TEST(DescheduleGateTest, CalibratedRwLockNeverParksAtFactorOne)
{
    // Eight threads on eight processors, quantum on: no thread ever
    // wants a waiter's processor. The mix alternates 25% and 95% reads,
    // so the writers' handoff gaps span reader tenures and the gap test
    // alone reads "unsaturated" (without the gate this run parks
    // ~1,200 times and runs ~37% slower than always-spin).
    auto rw = std::make_shared<CalRwSim>();
    sim::MachineStats st;
    apps::run_rw_mix<CalRwSim>(8, /*ops_per_proc=*/200, /*read_permille=*/250,
                               /*seed=*/1, kOversubReadHold, kOversubWriteHold,
                               /*think=*/0, /*factor=*/1, rw,
                               preemptive_costs(), &st, /*phase_ops=*/25,
                               /*alt_read_permille=*/950);
    EXPECT_EQ(st.preemptions, 0u);
    EXPECT_EQ(st.blocks, 0u);
    EXPECT_EQ(rw->wait_mode_changes(), 0u);
}

TEST(DescheduleGateTest, CalibratedNodeLockNeverParksAtFactorOne)
{
    // Think time U[0,3000) opens handoff gaps far above the 200-cycle
    // hold, but every thread owns its processor (without the gate this
    // run parks ~1,560 times).
    auto lock = std::make_shared<ReactiveWaitSim>();
    sim::MachineStats st;
    apps::run_lock_cycle_oversubscribed<ReactiveWaitSim>(
        8, /*factor=*/1, /*iters=*/200, /*cs=*/200, /*think=*/3000,
        /*seed=*/1, lock, preemptive_costs(), &st);
    EXPECT_EQ(st.preemptions, 0u);
    EXPECT_EQ(st.blocks, 0u);
    EXPECT_EQ(lock->inner().wait_mode_changes(), 0u);
}

TEST(DescheduleGateTest, OversubscribedCalibratedRwLockParksAndBeatsSpin)
{
    // x2 and x4, zero think: spinners burn quanta the holder and the
    // readers need, the waiters see it, and the calibrated rwlock
    // leaves spin and parks. Four processors keep the always-spin rows
    // (simulated poll by poll) cheap; at eight the ratios are similar
    // (DESIGN.md).
    for (const std::uint32_t reads : {250u, 950u}) {
        for (const std::uint32_t factor : {2u, 4u}) {
            const std::uint64_t spin = apps::run_rw_mix<SpinRwSim>(
                4, /*ops_per_proc=*/100, reads, /*seed=*/1, kOversubReadHold,
                kOversubWriteHold, /*think=*/0, factor, nullptr,
                preemptive_costs());
            auto rw = std::make_shared<CalRwSim>();
            sim::MachineStats st;
            const std::uint64_t cal = apps::run_rw_mix<CalRwSim>(
                4, /*ops_per_proc=*/100, reads, /*seed=*/1, kOversubReadHold,
                kOversubWriteHold, /*think=*/0, factor, rw, preemptive_costs(),
                &st);
            EXPECT_GT(st.blocks, 0u) << reads << " x" << factor;
            EXPECT_GT(rw->wait_mode_changes(), 0u) << reads << " x" << factor;
            EXPECT_LE(static_cast<double>(cal),
                      0.85 * static_cast<double>(spin))
                << reads << " x" << factor;
        }
    }
}

// ---- directed handoff wakeups: wake lanes -------------------------------
//
// A queue grant wakes only the lane its node parks on. These pin the
// wake counts exactly, with parking forced so every queued waiter is
// blocked (not spinning) when the grant lands.

/// Binary policy that moves to the queue protocol at the first
/// slow-path acquisition and never leaves it.
struct QueueHomePolicy {
    bool on_tts_acquire(bool) { return true; }
    bool on_queue_acquire(bool) { return false; }
    void on_switch() {}
};

using LaneRwSim = ReactiveRwLock<SimPlatform, QueueHomePolicy, ParkWaiting,
                                 FixedWaitPolicy>;
using LaneLockSim = ReactiveNodeLock<SimPlatform, QueueHomePolicy,
                                     ReactiveQueue<SimPlatform>, ParkWaiting,
                                     FixedWaitPolicy>;

/// A parking rwlock with the park hint forced. Its first write takes
/// the slow path (no optimistic fast path), and that release switches
/// it to the queue protocol for good and publishes the hint.
std::shared_ptr<LaneRwSim> parking_rwlock()
{
    ReactiveRwLockParams params;
    params.optimistic_simple = false;
    auto rw = std::make_shared<LaneRwSim>(params);
    rw->wait_policy() = FixedWaitPolicy(WaitingAlgorithm::always_block());
    return rw;
}

/// The holder's switching write, run first on processor 0.
void switch_to_queue(LaneRwSim& rw)
{
    typename LaneRwSim::Node n;
    rw.lock_write(n);
    rw.unlock_write(n);
}

/// Per-waiter hold long enough that every queued waiter has parked
/// (thread_unload included) before the holder's release.
constexpr std::uint64_t kLaneHold = 20000;

TEST(WakeLaneSimTest, RwWriterReleaseWakesExactlyTheNextWriter)
{
    constexpr std::uint32_t kWriters = 6;
    sim::Machine m(kWriters + 1);
    auto rw = parking_rwlock();
    std::uint64_t handoff_wakes = 0;
    int inside = 0;
    int violations = 0;
    for (std::uint32_t p = 0; p <= kWriters; ++p) {
        m.spawn(p, [&, p] {
            typename LaneRwSim::Node n;
            if (p == 0)
                switch_to_queue(*rw);
            else
                sim::delay(2000 + 100 * p);  // queue behind the holder
            rw->lock_write(n);
            if (++inside != 1)
                ++violations;
            sim::delay(kLaneHold);
            --inside;
            const std::uint64_t before = m.stats().wakes;
            rw->unlock_write(n);
            if (p == 0)
                handoff_wakes = m.stats().wakes - before;
        });
    }
    m.run();
    EXPECT_EQ(violations, 0);
    EXPECT_EQ(rw->mode(), LaneRwSim::Mode::kQueue);
    // Six writers parked on six lanes: the holder's grant wakes one.
    EXPECT_EQ(handoff_wakes, 1u);
    // And so does every later handoff: each parked writer is woken
    // exactly once, by its own grant.
    EXPECT_EQ(m.stats().wakes, kWriters);
    EXPECT_EQ(m.stats().wakes, m.stats().blocks);
}

/// What a writer's grant to a group of parked readers cost.
struct ReaderGroupRun {
    std::uint64_t grant_wakes = 0;  ///< wakes inside the writer's release
    sim::MachineStats stats;
    int max_readers_in = 0;
    int violations = 0;
};

/// A writer holds the queue-mode lock while @p readers queue behind it
/// as one reader group and park; then it releases.
ReaderGroupRun run_reader_group(std::uint32_t readers)
{
    ReaderGroupRun r;
    sim::Machine m(readers + 1);
    auto rw = parking_rwlock();
    int readers_in = 0;
    bool writer_in = false;
    for (std::uint32_t p = 0; p <= readers; ++p) {
        m.spawn(p, [&, p] {
            typename LaneRwSim::Node n;
            if (p == 0) {
                switch_to_queue(*rw);
                rw->lock_write(n);
                writer_in = true;
                sim::delay(kLaneHold);
                writer_in = false;
                const std::uint64_t before = m.stats().wakes;
                rw->unlock_write(n);
                r.grant_wakes = m.stats().wakes - before;
                return;
            }
            sim::delay(2000 + 100 * p);  // one reader group behind it
            rw->lock_read(n);
            if (writer_in)
                ++r.violations;
            r.max_readers_in = std::max(r.max_readers_in, ++readers_in);
            sim::delay(kLaneHold);
            --readers_in;
            rw->unlock_read(n);
        });
    }
    m.run();
    r.stats = m.stats();
    return r;
}

TEST(WakeLaneSimTest, RwWriterGrantWakesAParkedReaderGroupAtOnce)
{
    // The group shares one lane: the writer's single notify wakes all
    // of it, and the in-group grant propagation costs no further wake
    // — no reader waits for its predecessor to wake it.
    constexpr std::uint32_t kReaders = 5;
    const ReaderGroupRun r = run_reader_group(kReaders);
    EXPECT_EQ(r.violations, 0);
    EXPECT_EQ(r.grant_wakes, kReaders);
    EXPECT_EQ(r.stats.wakes, kReaders);
    EXPECT_EQ(r.stats.blocks, kReaders);
    EXPECT_EQ(r.max_readers_in, static_cast<int>(kReaders));
}

TEST(WakeLaneSimTest, LargeReaderGroupStillWakesEachReaderOnce)
{
    // Past a handful of readers the writer's serial reenables (one per
    // waiter) are overtaken: the first woken readers' propagation
    // notifies drain the rest of the lane. Every reader is still woken
    // exactly once and none re-parks.
    constexpr std::uint32_t kReaders = 14;
    const ReaderGroupRun r = run_reader_group(kReaders);
    EXPECT_EQ(r.violations, 0);
    EXPECT_EQ(r.stats.wakes, kReaders);
    EXPECT_EQ(r.stats.blocks, kReaders);
    EXPECT_EQ(r.max_readers_in, static_cast<int>(kReaders));
}

TEST(WakeLaneSimTest, NodeLockQueueReleaseWakesExactlyTheNextWaiter)
{
    constexpr std::uint32_t kWaiters = 6;
    sim::Machine m(kWaiters + 1);
    ReactiveLockParams params;
    params.optimistic_tts = false;
    auto lock = std::make_shared<LaneLockSim>(params);
    lock->inner().wait_policy() =
        FixedWaitPolicy(WaitingAlgorithm::always_block());
    std::uint64_t handoff_wakes = 0;
    int inside = 0;
    int violations = 0;
    for (std::uint32_t p = 0; p <= kWaiters; ++p) {
        m.spawn(p, [&, p] {
            typename LaneLockSim::Node n;
            if (p == 0) {
                lock->lock(n);  // TTS slow path: switches to the queue
                lock->unlock(n);
            } else {
                sim::delay(2000 + 100 * p);
            }
            lock->lock(n);
            if (++inside != 1)
                ++violations;
            sim::delay(kLaneHold);
            --inside;
            const std::uint64_t before = m.stats().wakes;
            lock->unlock(n);
            if (p == 0)
                handoff_wakes = m.stats().wakes - before;
        });
    }
    m.run();
    EXPECT_EQ(violations, 0);
    EXPECT_EQ(lock->inner().mode(), LaneLockSim::Inner::Mode::kQueue);
    EXPECT_EQ(handoff_wakes, 1u);
    EXPECT_EQ(m.stats().wakes, kWaiters);
    EXPECT_EQ(m.stats().wakes, m.stats().blocks);
}

TEST(WakeLaneSimTest, ReadReleaseWakesOnlyWhenItEmptiesTheSimpleWord)
{
    // Two readers hold the simple word while a writer parks on it. A
    // read release never clears the writer bit the group lane's readers
    // wait on, so only the release that empties the word can satisfy
    // anyone parked there: the first release wakes nobody, the second
    // wakes the writer once.
    using RW = ReactiveRwLock<SimPlatform, StayPolicy, ParkWaiting,
                              FixedWaitPolicy>;
    sim::Machine m(3);
    auto rw = std::make_shared<RW>();
    rw->wait_policy() = FixedWaitPolicy(WaitingAlgorithm::always_block());
    std::uint64_t first_wakes = 0;
    std::uint64_t second_wakes = 0;
    m.spawn(0, [&] {
        typename RW::Node n;
        rw->lock_write(n);  // its release publishes the park hint
        rw->unlock_write(n);
        rw->lock_read(n);
        sim::delay(kLaneHold);
        const std::uint64_t before = m.stats().wakes;
        rw->unlock_read(n);
        first_wakes = m.stats().wakes - before;
    });
    m.spawn(1, [&] {
        typename RW::Node n;
        sim::delay(1000);
        rw->lock_read(n);
        sim::delay(2 * kLaneHold);
        const std::uint64_t before = m.stats().wakes;
        rw->unlock_read(n);
        second_wakes = m.stats().wakes - before;
    });
    m.spawn(2, [&] {
        typename RW::Node n;
        sim::delay(3000);
        rw->lock_write(n);
        rw->unlock_write(n);
    });
    m.run();
    EXPECT_EQ(rw->mode(), RW::Mode::kSimple);
    EXPECT_EQ(first_wakes, 0u);
    EXPECT_EQ(second_wakes, 1u);
    EXPECT_EQ(m.stats().blocks, 1u);
    EXPECT_EQ(m.stats().wakes, 1u);
}

/// One parking rwlock run on @p seed: mixed reads and writes with a
/// protocol switch every few writes, so lanes are assigned across
/// grants, propagation and invalidation walks. @p shift_heap allocates
/// a dummy buffer first, moving every later heap address.
sim::MachineStats lane_determinism_run(std::uint64_t seed, bool shift_heap,
                                       std::uint64_t& elapsed)
{
    using RW = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy, ParkWaiting,
                              FixedWaitPolicy>;
    std::unique_ptr<char[]> pad;
    if (shift_heap)
        pad = std::make_unique<char[]>(4096 + 24);
    sim::Machine m(8, sim::CostModel::alewife(), seed);
    auto rw = std::make_shared<RW>();
    rw->wait_policy() = FixedWaitPolicy(WaitingAlgorithm::always_block());
    // Heap nodes, so the pad moves them (fiber stacks are page-aligned).
    std::vector<std::unique_ptr<typename RW::Node>> nodes;
    for (std::uint32_t p = 0; p < 8; ++p)
        nodes.push_back(std::make_unique<typename RW::Node>());
    for (std::uint32_t p = 0; p < 8; ++p) {
        m.spawn(p, [rw, p, &n = *nodes[p]] {
            for (int i = 0; i < 60; ++i) {
                if ((i + static_cast<int>(p)) % 4 == 0) {
                    rw->lock_write(n);
                    sim::delay(400);
                    rw->unlock_write(n);
                } else {
                    rw->lock_read(n);
                    sim::delay(100);
                    rw->unlock_read(n);
                }
                sim::delay(sim::random_below(300));
            }
        });
    }
    m.run();
    elapsed = m.elapsed();
    return m.stats();
}

TEST(WakeLaneSimTest, LanesDoNotDependOnHeapAddresses)
{
    std::uint64_t e1 = 0;
    std::uint64_t e2 = 0;
    const sim::MachineStats a = lane_determinism_run(5, false, e1);
    const sim::MachineStats b = lane_determinism_run(5, true, e2);
    EXPECT_EQ(e1, e2);
    EXPECT_EQ(a.mem_ops, b.mem_ops);
    EXPECT_EQ(a.remote_misses, b.remote_misses);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.wakes, b.wakes);
    EXPECT_EQ(a.context_switches, b.context_switches);
    EXPECT_EQ(0, std::memcmp(&a, &b, sizeof a));
    EXPECT_GT(a.blocks, 0u);  // the run exercised parking at all
}

// ---- native oversubscribed park/wake storms ------------------------------
//
// Run with TSan in CI (repeated): `factor` threads per CPU all hammer
// one object whose wait mode is forced to rotate every release, so
// parked waiters keep being woken into a different mode (spurious
// wakes), hints keep going stale, and any lost wakeup hangs the test.

/// Rotates the published hint spin -> two-phase -> park on every
/// release. In-consensus only (no atomics needed, like any policy).
class CyclingWaitPolicy {
  public:
    std::uint32_t on_release(const WaitSignal&)
    {
        WaitHint h;
        switch (n_++ % 3) {
        case 0:
            h.mode = WaitMode::kSpin;
            break;
        case 1:
            h.mode = WaitMode::kTwoPhase;
            h.poll_limit = 500;
            break;
        default:
            h.mode = WaitMode::kPark;
            break;
        }
        hint_ = pack_wait_hint(h);
        return hint_;
    }
    void note_wake_latency(std::uint64_t) {}
    std::uint32_t hint() const { return hint_; }

  private:
    std::uint32_t n_ = 0;
    std::uint32_t hint_ = pack_wait_hint(WaitHint{});
};

static_assert(WaitSelectPolicy<CyclingWaitPolicy>);

/// Threads = factor x online CPUs; iteration counts sized so the storm
/// finishes quickly under TSan's ~10x slowdown.
std::uint32_t storm_threads(std::uint32_t factor)
{
    const unsigned hw = std::thread::hardware_concurrency();
    return (hw != 0 ? hw : 1u) * factor;
}

TEST(ParkWakeStormTest, OversubscribedLockStormUnderModeSwitches)
{
    using L = ReactiveNodeLock<NativePlatform, AlwaysSwitchPolicy,
                               ReactiveQueue<NativePlatform>, ParkWaiting,
                               CyclingWaitPolicy>;
    L lock;
    const std::uint32_t threads = storm_threads(4);
    constexpr int kIters = 400;
    std::atomic<int> inside{0};
    std::atomic<int> violations{0};
    std::atomic<long> count{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                typename L::Node n;
                lock.lock(n);
                if (inside.fetch_add(1, std::memory_order_relaxed) != 0)
                    violations.fetch_add(1, std::memory_order_relaxed);
                inside.fetch_sub(1, std::memory_order_relaxed);
                count.fetch_add(1, std::memory_order_relaxed);
                lock.unlock(n);
            }
        });
    }
    for (auto& th : pool)
        th.join();  // a lost wakeup hangs the join (the canary)
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(count.load(), static_cast<long>(threads) * kIters);
}

/// Binary policy that switches protocol on every third slow-path
/// decision, in either direction. In-consensus only, like any policy.
class EveryThirdSwitchPolicy {
  public:
    bool on_tts_acquire(bool) { return ++n_ % 3 == 0; }
    bool on_queue_acquire(bool) { return ++n_ % 3 == 0; }
    void on_switch() {}

  private:
    std::uint32_t n_ = 0;
};

/// An 8-slot record a writer rebuilds around a hashed hold: slot 0
/// first, the rest after the hold, so a reader admitted while a writer
/// is inside sees slots that disagree. Relaxed atomics: the lock alone
/// must order them.
struct TornRecord {
    std::array<std::atomic<std::uint64_t>, 8> slot{};
    std::atomic<std::uint64_t> digest{0};

    bool intact() const
    {
        const std::uint64_t v0 = slot[0].load(std::memory_order_relaxed);
        for (std::size_t k = 1; k < slot.size(); ++k)
            if (slot[k].load(std::memory_order_relaxed) != v0)
                return false;
        return true;
    }

    void rebuild()
    {
        const std::uint64_t c = slot[0].load(std::memory_order_relaxed) + 1;
        slot[0].store(c, std::memory_order_relaxed);
        std::uint64_t x = c;
        for (int r = 0; r < 200; ++r) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        digest.store(x, std::memory_order_relaxed);
        for (std::size_t k = 1; k < slot.size(); ++k)
            slot[k].store(c, std::memory_order_relaxed);
    }
};

/// Native rwlock storm: @p factor threads per CPU run @p iters
/// operations each on a parking rwlock; operation i of thread t writes
/// when (i + t) % @p write_period == 0. Writers rebuild the record and
/// every read checks it, so a reader admitted beside a writer tears it
/// and two writers inside at once lose a write; a lost wakeup hangs
/// the join (the canary). Returns the lock's protocol changes.
template <typename Select, typename WaitPolicy>
std::uint64_t rw_storm(const ReactiveRwLockParams& params,
                       WaitPolicy wait_policy, std::uint32_t factor,
                       int iters, int write_period)
{
    using RW = ReactiveRwLock<NativePlatform, Select, ParkWaiting, WaitPolicy>;
    RW rw(params);
    rw.wait_policy() = std::move(wait_policy);
    TornRecord rec;
    const std::uint32_t threads = storm_threads(factor);
    std::atomic<int> torn{0};
    std::atomic<std::uint64_t> writes{0};
    std::atomic<long> ops{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (int i = 0; i < iters; ++i) {
                typename RW::Node n;
                if ((i + static_cast<int>(t)) % write_period == 0) {
                    rw.lock_write(n);
                    rec.rebuild();
                    rw.unlock_write(n);
                    writes.fetch_add(1, std::memory_order_relaxed);
                } else {
                    rw.lock_read(n);
                    if (!rec.intact())
                        torn.fetch_add(1, std::memory_order_relaxed);
                    rw.unlock_read(n);
                }
                ops.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(torn.load(), 0);
    EXPECT_TRUE(rec.intact());
    EXPECT_EQ(rec.slot[0].load(), writes.load());  // no write was lost
    EXPECT_EQ(ops.load(), static_cast<long>(threads) * iters);
    return rw.protocol_changes();
}

TEST(ParkWakeStormTest, OversubscribedRwLockStormUnderModeSwitches)
{
    rw_storm<AlwaysSwitchPolicy>(ReactiveRwLockParams{}, CyclingWaitPolicy{},
                                 /*factor=*/4, /*iters=*/250,
                                 /*write_period=*/4);
}

/// Every write consults the protocol policy.
ReactiveRwLockParams pessimistic_params()
{
    ReactiveRwLockParams params;
    params.optimistic_simple = false;
    return params;
}

TEST(ParkWakeStormTest, RwLockProtocolSwitchStormOnLanes)
{
    // Every waiter parks (forced hint) on its queue lane or the group
    // lane, and the protocol flips every few writes, so invalidation
    // walks signal parked queue waiters mid-storm and must wake each
    // one's lane. A lost lane wake hangs the join.
    EXPECT_GT(rw_storm<EveryThirdSwitchPolicy>(
                  pessimistic_params(),
                  FixedWaitPolicy(WaitingAlgorithm::always_block()),
                  /*factor=*/4, /*iters=*/250, /*write_period=*/3),
              10u);
}

TEST(ParkWakeStormTest, RwLockRecordNeverTears)
{
    // The native torn-record hunt: the calibrated policy moves between
    // spin and parking on real deschedules, the cycling one re-dispatches
    // waiters into a new mode at every release. Sized to ~0.3 s each
    // natively: the cycling policy's spin third makes each handoff
    // wait out scheduler slices, so it runs fewer, less crowded ops.
    EXPECT_GT(rw_storm<EveryThirdSwitchPolicy>(
                  pessimistic_params(), CalibratedWaitPolicy{},
                  /*factor=*/4, /*iters=*/2000, /*write_period=*/4),
              10u);
    EXPECT_GT(rw_storm<EveryThirdSwitchPolicy>(
                  pessimistic_params(), CyclingWaitPolicy{},
                  /*factor=*/2, /*iters=*/500, /*write_period=*/4),
              10u);
}

TEST(ParkWakeStormTest, OversubscribedBarrierStormUnderModeSwitches)
{
    // Small participant count (episodes serialize on the slowest
    // thread) but heavily timeshared: every episode mixes parked and
    // spinning waiters as the hint rotates underneath them.
    using Bar = ReactiveBarrier<NativePlatform, StayPolicy,
                                CentralTreeBarrierSet<NativePlatform>,
                                ParkWaiting, CyclingWaitPolicy>;
    const std::uint32_t threads = 4;
    Bar bar(threads);
    constexpr int kEpisodes = 150;
    std::atomic<int> arrived{0};
    std::atomic<int> violations{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            typename Bar::Node node;
            for (int e = 0; e < kEpisodes; ++e) {
                arrived.fetch_add(1);
                bar.arrive(node);
                if (arrived.load() < (e + 1) * static_cast<int>(threads))
                    violations.fetch_add(1);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace reactive
