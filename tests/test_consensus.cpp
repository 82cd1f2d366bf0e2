// ConsensusPoint call-sequence tests (src/core/consensus_point.hpp),
// driven through the primitives that own one on the simulated
// multiprocessor: which slow-path wins carry a cost sample (the
// clean-sample rule), the socket-of-previous-holder bit across fast,
// try and slow wins, one on_switch / on_switch_cycles pair per protocol
// change, the out-of-range decision clamp, and the wait-mode change
// count every primitive now keeps.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "barrier/reactive_barrier.hpp"
#include "core/reactive_lock.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"

namespace reactive {
namespace {

using sim::SimPlatform;

/// One call a consensus point made into the policy.
struct Call {
    enum Kind { kObserve, kSwitch, kSwitchCycles, kFast } kind;
    Observation obs{};                    ///< as shown (kObserve)
    std::uint32_t next = 0;               ///< the answer (kObserve)
    std::optional<std::uint64_t> cycles;  ///< the span (kSwitchCycles)
};

/**
 * Recording SelectPolicy. Answers "switch" on every @p period-th
 * observation (0 = never), or always @p fixed when one is given (an
 * out-of-range answer exercises the clamp). The calibrating variant
 * also hears switch spans, which makes its observations carry cycle
 * samples and the socket bit.
 */
template <bool kCalibrating>
class RecordingSelect {
  public:
    explicit RecordingSelect(std::uint32_t period = 0,
                             std::optional<std::uint32_t> fixed = {})
        : period_(period), fixed_(fixed)
    {
    }

    std::uint32_t next_protocol(const Observation& o)
    {
        std::uint32_t next = o.protocol;
        if (fixed_)
            next = *fixed_;
        else if (period_ != 0 && ++n_ % period_ == 0)
            next = o.protocol ^ 1u;
        calls.push_back({Call::kObserve, o, next, {}});
        return next;
    }

    void on_switch() { calls.push_back({Call::kSwitch, {}, 0, {}}); }

    void on_switch_cycles(std::uint64_t c)
        requires kCalibrating
    {
        calls.push_back({Call::kSwitchCycles, {}, 0, c});
    }

    void on_tts_fast_acquire() { calls.push_back({Call::kFast, {}, 0, {}}); }

    std::vector<Call> observations() const
    {
        std::vector<Call> out;
        for (const Call& c : calls)
            if (c.kind == Call::kObserve)
                out.push_back(c);
        return out;
    }

    std::size_t count(Call::Kind k) const
    {
        std::size_t n = 0;
        for (const Call& c : calls)
            n += c.kind == k;
        return n;
    }

    std::vector<Call> calls;

  private:
    std::uint32_t period_;
    std::optional<std::uint32_t> fixed_;
    std::uint64_t n_ = 0;
};

using CalRecorder = RecordingSelect<true>;
using PlainRecorder = RecordingSelect<false>;
static_assert(CalibratingSelectPolicy<CalRecorder>);
static_assert(SelectPolicy<PlainRecorder>);
static_assert(!CalibratingSelectPolicy<PlainRecorder>);

/// Runs @p f on processor @p proc of a fresh 2-socket, 4-processor
/// machine (processors 0-1 on socket 0, 2-3 on socket 1).
template <typename F>
void run_on(std::uint32_t proc, F f)
{
    sim::Machine m(4, sim::Topology{2, 2}, sim::CostModel::alewife(), 1);
    m.spawn(proc, f);
    m.run();
}

/// @p procs processors each take @p lock @p iters times with a short
/// critical section: enough contention for immediate, mid-spin and
/// past-the-retry-limit wins.
template <typename L>
void contend(const std::shared_ptr<L>& lock, std::uint32_t procs,
             int iters, std::uint64_t seed = 1)
{
    sim::Machine m(procs, {}, sim::CostModel::alewife(), seed);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < iters; ++i) {
                typename L::Node n;
                const auto rm = lock->acquire(n);
                sim::delay(150);
                lock->release(n, rm);
                sim::delay(sim::random_below(400));
            }
        });
    }
    m.run();
}

ReactiveLockParams observed_lock_params()
{
    ReactiveLockParams p;
    p.optimistic_tts = false;  // every acquisition takes the slow path
    p.tts_retry_limit = 0;     // one lost exchange marks it contended
    return p;
}

// ---- try_lock_write holder bookkeeping (regression) -------------------

TEST(ConsensusPointTest, RwTryLockWriteNotesTheWritersSocket)
{
    using RW = ReactiveRwLock<SimPlatform, CalRecorder>;
    ReactiveRwLockParams params;
    params.optimistic_simple = false;
    auto rw = std::make_shared<RW>(params);
    // A slow writer on socket 0, then a try-writer on socket 1 whose
    // next write takes the slow path. The try win made socket 1 the
    // previous writer's socket, so that slow write did not cross.
    run_on(0, [&] {
        RW::Node n;
        rw->lock_write(n);
        rw->unlock_write(n);
    });
    run_on(2, [&] {
        RW::Node n;
        ASSERT_TRUE(rw->try_lock_write(n));
        rw->unlock_write(n);
        rw->lock_write(n);
        rw->unlock_write(n);
    });
    const std::vector<Call> obs = rw->policy().observations();
    ASSERT_EQ(obs.size(), 2u);
    ASSERT_TRUE(obs[1].obs.cycles.has_value());
    EXPECT_FALSE(obs[1].obs.cross)
        << "the try win must record its writer's socket";
    EXPECT_EQ(rw->policy().count(Call::kFast), 1u);
}

TEST(ConsensusPointTest, LockTryAcquireNotesTheHoldersSocket)
{
    using Lock = ReactiveLock<SimPlatform, CalRecorder>;
    auto lock = std::make_shared<Lock>(observed_lock_params());
    run_on(0, [&] {
        Lock::Node n;
        lock->release(n, lock->acquire(n));
    });
    run_on(2, [&] {
        Lock::Node n;
        const auto rm = lock->try_acquire(n);
        ASSERT_TRUE(rm.has_value());
        lock->release(n, *rm);
        lock->release(n, lock->acquire(n));
    });
    const std::vector<Call> obs = lock->policy().observations();
    ASSERT_EQ(obs.size(), 2u);
    ASSERT_TRUE(obs[1].obs.cycles.has_value());
    EXPECT_FALSE(obs[1].obs.cross);
    EXPECT_EQ(lock->policy().count(Call::kFast), 1u);
}

// ---- the clean-sample rule --------------------------------------------

TEST(ConsensusPointTest, OnlyCleanTtsWinsCarryACycleSample)
{
    using Lock = ReactiveLock<SimPlatform, CalRecorder>;
    auto lock = std::make_shared<Lock>(observed_lock_params());
    contend(lock, 6, 25);
    std::size_t immediate = 0, mid_spin = 0, contended = 0;
    for (const Call& c : lock->policy().observations()) {
        ASSERT_EQ(c.obs.protocol, 0u) << "a non-switching policy stays TTS";
        if (c.obs.drift > 0) {
            EXPECT_TRUE(c.obs.cycles.has_value())
                << "a win past the retry limit is a clean sample";
            ++contended;
        } else if (c.obs.cycles) {
            ++immediate;
        } else {
            ++mid_spin;  // spun, never lost an exchange: waiting, no sample
        }
    }
    EXPECT_GT(immediate, 0u);
    EXPECT_GT(mid_spin, 0u);
    EXPECT_GT(contended, 0u);
    EXPECT_EQ(immediate + mid_spin + contended, 6u * 25u);
}

TEST(ConsensusPointTest, QueueWinsAlwaysCarryACycleSample)
{
    // Always answer "queue": the first holder switches, everyone after
    // acquires through the queue.
    using Lock = ReactiveLock<SimPlatform, CalRecorder>;
    auto lock = std::make_shared<Lock>(observed_lock_params(),
                                       CalRecorder(0, 1u));
    contend(lock, 4, 20);
    ASSERT_EQ(lock->protocol_index(), 1u);
    std::size_t tts = 0, empty = 0, waited = 0;
    for (const Call& c : lock->policy().observations()) {
        EXPECT_TRUE(c.obs.cycles.has_value());
        if (c.obs.protocol == 0)
            ++tts;
        else
            (c.obs.drift < 0 ? empty : waited) += 1;
    }
    EXPECT_EQ(tts, 1u);
    EXPECT_GT(empty, 0u);
    EXPECT_GT(waited, 0u);
}

TEST(ConsensusPointTest, NonCalibratingPolicyNeverSeesCycles)
{
    using Lock = ReactiveLock<SimPlatform, PlainRecorder>;
    auto lock = std::make_shared<Lock>(observed_lock_params());
    contend(lock, 6, 25);
    const std::vector<Call> obs = lock->policy().observations();
    EXPECT_EQ(obs.size(), 6u * 25u);
    for (const Call& c : obs) {
        EXPECT_FALSE(c.obs.cycles.has_value());
        EXPECT_FALSE(c.obs.cross);
    }
}

// ---- protocol changes -------------------------------------------------

/// Every change is one on_switch immediately followed by its
/// on_switch_cycles (calibrating policies), one per decided change and
/// one per counted change.
template <bool kCalibrating>
void expect_switch_pairs(const RecordingSelect<kCalibrating>& pol,
                         std::uint64_t changes)
{
    ASSERT_GT(changes, 0u);
    std::size_t decided = 0;
    for (const Call& c : pol.observations())
        decided += c.next != c.obs.protocol;
    EXPECT_EQ(decided, changes);
    EXPECT_EQ(pol.count(Call::kSwitch), changes);
    EXPECT_EQ(pol.count(Call::kSwitchCycles), kCalibrating ? changes : 0u);
    if constexpr (kCalibrating) {
        for (std::size_t i = 0; i < pol.calls.size(); ++i) {
            if (pol.calls[i].kind != Call::kSwitch)
                continue;
            ASSERT_LT(i + 1, pol.calls.size());
            EXPECT_EQ(pol.calls[i + 1].kind, Call::kSwitchCycles);
        }
    }
}

TEST(ConsensusPointTest, LockSwitchesPairTheirNotifications)
{
    auto lock = std::make_shared<ReactiveLock<SimPlatform, CalRecorder>>(
        observed_lock_params(), CalRecorder(3));
    contend(lock, 4, 30);
    expect_switch_pairs(lock->policy(), lock->protocol_changes());

    auto plain = std::make_shared<ReactiveLock<SimPlatform, PlainRecorder>>(
        observed_lock_params(), PlainRecorder(3));
    contend(plain, 4, 30);
    expect_switch_pairs(plain->policy(), plain->protocol_changes());
}

TEST(ConsensusPointTest, RwLockSwitchesPairTheirNotifications)
{
    using RW = ReactiveRwLock<SimPlatform, CalRecorder>;
    ReactiveRwLockParams params;
    params.optimistic_simple = false;
    auto rw = std::make_shared<RW>(params, CalRecorder(3));
    sim::Machine m(4, {}, sim::CostModel::alewife(), 2);
    for (std::uint32_t p = 0; p < 4; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 30; ++i) {
                RW::Node n;
                if ((i + static_cast<int>(p)) % 3 == 0) {
                    rw->lock_read(n);
                    sim::delay(100);
                    rw->unlock_read(n);
                } else {
                    rw->lock_write(n);
                    sim::delay(100);
                    rw->unlock_write(n);
                }
                sim::delay(sim::random_below(300));
            }
        });
    }
    m.run();
    expect_switch_pairs(rw->policy(), rw->protocol_changes());
    // Readers never reach the consensus point: one observation per
    // slow-path write.
    EXPECT_EQ(rw->policy().observations().size(), 4u * 20u);
}

// ---- the decision clamp -----------------------------------------------

TEST(ConsensusPointTest, OutOfRangeDecisionsAreClampedToStay)
{
    auto bar = std::make_shared<ReactiveBarrier<SimPlatform, CalRecorder>>(
        4, ReactiveBarrierParams{}, CalRecorder(0, 7u));
    sim::Machine m(4);
    for (std::uint32_t p = 0; p < 4; ++p) {
        m.spawn(p, [=] {
            typename ReactiveBarrier<SimPlatform, CalRecorder>::Node n;
            for (int e = 0; e < 20; ++e) {
                sim::delay(sim::random_below(200));
                bar->arrive(n);
            }
        });
    }
    m.run();
    EXPECT_EQ(bar->policy().observations().size(), 20u);
    EXPECT_EQ(bar->protocol_changes(), 0u);
    EXPECT_EQ(bar->protocol_index(), 0u);
    EXPECT_EQ(bar->policy().count(Call::kSwitch), 0u);

    // The locks share the clamp.
    auto lock = std::make_shared<ReactiveLock<SimPlatform, CalRecorder>>(
        observed_lock_params(), CalRecorder(0, 7u));
    contend(lock, 2, 10);
    EXPECT_EQ(lock->protocol_changes(), 0u);
    EXPECT_EQ(lock->protocol_index(), 0u);
}

// ---- wait-mode change count -------------------------------------------

/// Wait policy that alternates spin and two-phase at every release.
class FlipWaitPolicy {
  public:
    std::uint32_t on_release(const WaitSignal&)
    {
        spin_ = !spin_;
        return hint();
    }
    void note_wake_latency(std::uint64_t) {}
    std::uint32_t hint() const
    {
        WaitHint h;
        h.mode = spin_ ? WaitMode::kSpin : WaitMode::kTwoPhase;
        h.poll_limit = 1024;
        return pack_wait_hint(h);
    }

  private:
    bool spin_ = true;
};
static_assert(WaitSelectPolicy<FlipWaitPolicy>);

TEST(ConsensusPointTest, EveryPrimitiveCountsWaitModeChanges)
{
    using Lock = ReactiveLock<SimPlatform, AlwaysSwitchPolicy,
                              ReactiveQueue<SimPlatform>, ParkWaiting,
                              FlipWaitPolicy>;
    using RW = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy, ParkWaiting,
                              FlipWaitPolicy>;
    using Bar = ReactiveBarrier<SimPlatform, AlwaysSwitchPolicy,
                                CentralTreeBarrierSet<SimPlatform>,
                                ParkWaiting, FlipWaitPolicy>;
    Lock lock;
    RW rw;
    Bar bar(1);
    sim::Machine m(1);
    m.spawn(0, [&] {
        for (int i = 0; i < 5; ++i) {
            Lock::Node ln;
            lock.release(ln, lock.acquire(ln));
            RW::Node rn;
            rw.lock_write(rn);
            rw.unlock_write(rn);
            rw.lock_read(rn);  // readers publish nothing
            rw.unlock_read(rn);
            Bar::Node bn;
            bar.arrive(bn);
        }
    });
    m.run();
    EXPECT_EQ(lock.wait_mode_changes(), 5u);
    EXPECT_EQ(rw.wait_mode_changes(), 5u);
    EXPECT_EQ(bar.wait_mode_changes(), 5u);
}

}  // namespace
}  // namespace reactive
