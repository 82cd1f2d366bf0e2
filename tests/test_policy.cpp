// Unit tests for the protocol-switching policies (src/core/policy.hpp):
// the distinguishing property of the 3-competitive policy is that its
// cumulative residual survives breaks in the signal streak, while
// hysteresis resets on any break; and on_switch() must clear the
// decision state of every policy.

#include <gtest/gtest.h>

#include "core/policy.hpp"
#include "core/protocol_set.hpp"

namespace reactive {
namespace {

// ---- Competitive3Policy ----------------------------------------------

TEST(Competitive3Test, AccumulatesResidualAcrossStreakBreaks)
{
    Competitive3Policy::Params params;
    params.residual_tts_contended = 150;
    params.residual_queue_empty = 15;
    params.switch_round_trip = 8800;
    Competitive3Policy p(params);

    // 30 contended acquisitions: residual builds but stays below the
    // switch threshold.
    for (int i = 0; i < 30; ++i)
        EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_EQ(p.cumulative_residual(), 30u * 150u);

    // A long run of uncontended acquisitions breaks the streak but must
    // NOT reset the accumulated residual (this is what separates the
    // competitive policy from hysteresis and yields the 3x bound).
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(p.on_tts_acquire(false));
    EXPECT_EQ(p.cumulative_residual(), 30u * 150u);

    // Resuming contended acquisitions continues from the old total:
    // ceil(8800/150) = 59 contended acquisitions trigger the switch.
    int trues = 30;
    bool switched = false;
    for (int i = 0; i < 40 && !switched; ++i) {
        switched = p.on_tts_acquire(true);
        ++trues;
    }
    EXPECT_TRUE(switched);
    EXPECT_EQ(trues, 59);
}

TEST(Competitive3Test, QueueResidualAccumulatesAcrossBreaks)
{
    Competitive3Policy::Params params;
    params.residual_queue_empty = 15;
    params.switch_round_trip = 8800;
    Competitive3Policy p(params);

    for (int i = 0; i < 200; ++i)
        EXPECT_FALSE(p.on_queue_acquire(true));
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(p.on_queue_acquire(false));  // break: no reset
    EXPECT_EQ(p.cumulative_residual(), 200u * 15u);

    // ceil(8800/15) = 587 empty acquisitions in total.
    int empties = 200;
    bool switched = false;
    while (!switched && empties < 1000) {
        switched = p.on_queue_acquire(true);
        ++empties;
    }
    EXPECT_TRUE(switched);
    EXPECT_EQ(empties, 587);
}

TEST(Competitive3Test, OnSwitchClearsResidual)
{
    Competitive3Policy p;
    for (int i = 0; i < 20; ++i)
        (void)p.on_tts_acquire(true);
    ASSERT_GT(p.cumulative_residual(), 0u);
    p.on_switch();
    EXPECT_EQ(p.cumulative_residual(), 0u);
    // Post-switch accounting starts from zero.
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_EQ(p.cumulative_residual(), 150u);
}

// ---- HysteresisPolicy ------------------------------------------------

TEST(HysteresisTest, AnyBreakResetsTheStreak)
{
    HysteresisPolicy p(/*to_queue_streak=*/3, /*to_tts_streak=*/2);

    // Two contended, a break, then two more: no switch (unlike the
    // competitive policy, the break discards all prior evidence).
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_FALSE(p.on_tts_acquire(false));
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_FALSE(p.on_tts_acquire(true));
    // The third consecutive contended acquisition completes the streak.
    EXPECT_TRUE(p.on_tts_acquire(true));
}

TEST(HysteresisTest, QueueStreakResetsOnNonEmpty)
{
    HysteresisPolicy p(/*to_queue_streak=*/3, /*to_tts_streak=*/2);
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(false));  // break
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_TRUE(p.on_queue_acquire(true));    // 2 consecutive empties
}

TEST(HysteresisTest, OnSwitchClearsBothStreaks)
{
    HysteresisPolicy p(/*to_queue_streak=*/2, /*to_tts_streak=*/2);
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(true));
    p.on_switch();
    // Both streaks must restart from zero.
    EXPECT_FALSE(p.on_tts_acquire(true));
    EXPECT_TRUE(p.on_tts_acquire(true));
    p.on_switch();
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_TRUE(p.on_queue_acquire(true));
}

// ---- AlwaysSwitchPolicy ----------------------------------------------

TEST(AlwaysSwitchTest, TtsSignalSwitchesImmediately)
{
    AlwaysSwitchPolicy p;
    EXPECT_FALSE(p.on_tts_acquire(false));
    EXPECT_TRUE(p.on_tts_acquire(true));
}

TEST(AlwaysSwitchTest, EmptyStreakGuardsQueueSignal)
{
    AlwaysSwitchPolicy p(/*empty_streak_limit=*/4);
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(false));  // break resets
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_TRUE(p.on_queue_acquire(true));
}

TEST(AlwaysSwitchTest, OnSwitchClearsEmptyStreak)
{
    AlwaysSwitchPolicy p(/*empty_streak_limit=*/2);
    EXPECT_FALSE(p.on_queue_acquire(true));
    p.on_switch();
    EXPECT_FALSE(p.on_queue_acquire(true));
    EXPECT_TRUE(p.on_queue_acquire(true));
}

// ---- SelectAdapter: binary policies as the two-protocol case ----------

TEST(SelectAdapterTest, MapsSignalsToHistoricalCallsAndFlipsIndex)
{
    // The adapter must reproduce Competitive3Policy's decision shape
    // through the index interface: ceil(8800/150) = 59 contended
    // protocol-0 observations switch to protocol 1, and drift-free
    // observations accumulate nothing.
    SelectAdapter<Competitive3Policy> a{Competitive3Policy{}};
    for (int i = 0; i < 58; ++i)
        EXPECT_EQ(a.next_protocol({0, +1}), 0u) << i;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_protocol({0, 0}), 0u);  // break: no reset
    EXPECT_EQ(a.next_protocol({0, +1}), 1u);
    a.on_switch();
    EXPECT_EQ(a.underlying().cumulative_residual(), 0u);
    // Queue-side: drift -1 maps to on_queue_acquire(empty=true).
    for (int i = 0; i < 586; ++i)
        EXPECT_EQ(a.next_protocol({1, -1}), 1u) << i;
    EXPECT_EQ(a.next_protocol({1, -1}), 0u);
}

// ---- LadderCompetitivePolicy ------------------------------------------

LadderCompetitivePolicy::Params ladder3(std::uint64_t residual,
                                        std::uint64_t round_trip)
{
    LadderCompetitivePolicy::Params p;
    p.protocols = 3;
    p.residual_up = residual;
    p.residual_down = residual;
    p.switch_round_trip = round_trip;
    return p;
}

TEST(LadderCompetitiveTest, AccountsSurviveRoundTripThroughThirdProtocol)
{
    // The N-ary accumulate-across-breaks property: evidence toward
    // protocol B gathered while running A must survive an A -> C -> A
    // round trip through a third protocol C. Here A = 1 (middle rung),
    // B = 0, C = 2.
    LadderCompetitivePolicy p(ladder3(/*residual=*/100, /*round_trip=*/1000));

    // Half an account of evidence toward B = 0.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(p.next_protocol({1, -1}), 1u);
    EXPECT_EQ(p.account(0), 500u);

    // Up-drift drives A -> C; C's account is consumed by the move.
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(p.next_protocol({1, +1}), 1u);
    EXPECT_EQ(p.next_protocol({1, +1}), 2u);
    p.on_switch();
    EXPECT_EQ(p.account(2), 0u);

    // Down-drift at C drives C -> A (credits the adjacent rung 1).
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(p.next_protocol({2, -1}), 2u);
    EXPECT_EQ(p.next_protocol({2, -1}), 1u);
    p.on_switch();

    // B's account survived the round trip through C ...
    EXPECT_EQ(p.account(0), 500u);
    // ... so completing it needs only the other half, not a restart.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(p.next_protocol({1, -1}), 1u);
    EXPECT_EQ(p.next_protocol({1, -1}), 0u);
}

TEST(LadderCompetitiveTest, DriftAtLadderEndsAccumulatesNothing)
{
    LadderCompetitivePolicy p(ladder3(100, 300));
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(p.next_protocol({0, -1}), 0u);  // no rung below 0
        EXPECT_EQ(p.next_protocol({2, +1}), 2u);  // no rung above top
    }
    EXPECT_EQ(p.account(0), 0u);
    EXPECT_EQ(p.account(1), 0u);
    EXPECT_EQ(p.account(2), 0u);
}

TEST(LadderCompetitiveTest, TwoProtocolLadderMirrorsCompetitive3Shape)
{
    // With N = 2 and the thesis constants, the ladder reproduces the
    // 3-competitive switch points through the index interface.
    LadderCompetitivePolicy::Params params;
    params.protocols = 2;
    params.residual_up = 150;
    params.residual_down = 15;
    params.switch_round_trip = 8800;
    LadderCompetitivePolicy p(params);
    int ups = 0;
    while (p.next_protocol({0, +1}) == 0 && ups < 100)
        ++ups;
    EXPECT_EQ(ups + 1, 59);  // ceil(8800/150)
    p.on_switch();
    int downs = 0;
    while (p.next_protocol({1, -1}) == 1 && downs < 1000)
        ++downs;
    EXPECT_EQ(downs + 1, 587);  // ceil(8800/15)
}

// ---- CalibratedLadderPolicy -------------------------------------------

CalibratedLadderPolicy::Params measured3()
{
    CalibratedLadderPolicy::Params p;
    p.protocols = 3;
    p.probe_period = 0;  // isolate the drift-triggered mechanics
    p.probe_len = 2;
    p.drift_residual = 150;
    p.drift_round_trip = 300;
    p.adopt_margin_pct = 5;
    return p;
}

TEST(CalibratedLadderTest, DriftProbeAdoptsOnMeasuredTie)
{
    // Sustained drift triggers an excursion; on a measurement tie the
    // drift evidence wins and the probed rung is adopted (the skewed
    // regime's period is the straggle window on every rung — the
    // signal is the only discriminator).
    CalibratedLadderPolicy p(measured3());
    EXPECT_EQ(p.next_protocol({0, +1, 1000}), 0u);
    EXPECT_EQ(p.next_protocol({0, +1, 1000}), 1u);  // account full: probe
    p.on_switch();
    EXPECT_TRUE(p.probing());
    EXPECT_EQ(p.next_protocol({1, 0, 5000}), 1u);  // discarded cold sample
    EXPECT_EQ(p.next_protocol({1, 0, 1010}), 1u);  // tie within margin
    EXPECT_FALSE(p.probing());
    EXPECT_EQ(p.home(), 1u);
    EXPECT_EQ(p.adoptions(), 1u);
}

TEST(CalibratedLadderTest, DriftProbeReturnsHomeWhenMeasuredWorse)
{
    CalibratedLadderPolicy p(measured3());
    EXPECT_EQ(p.next_protocol({0, +1, 1000}), 0u);
    EXPECT_EQ(p.next_protocol({0, +1, 1000}), 1u);
    p.on_switch();
    EXPECT_EQ(p.next_protocol({1, 0, 9000}), 1u);   // discarded
    EXPECT_EQ(p.next_protocol({1, 0, 2000}), 0u);   // worse: go home
    p.on_switch();
    EXPECT_EQ(p.home(), 0u);
    EXPECT_EQ(p.adoptions(), 0u);
    // The failed excursion doubled the destination's evidence bar:
    // the same two drifting observations no longer trigger a probe.
    EXPECT_EQ(p.next_protocol({0, +1, 1000}), 0u);
    EXPECT_EQ(p.next_protocol({0, +1, 1000}), 0u);
}

TEST(CalibratedLadderTest, FirstSampleAfterSwitchIsDiscarded)
{
    CalibratedLadderPolicy::Params params = measured3();
    CalibratedLadderPolicy p(params);
    EXPECT_EQ(p.next_protocol({0, 0, 700}), 0u);
    EXPECT_EQ(p.latency(0), 700u);
    p.on_switch();  // e.g. an external mode change
    // A sample-less observation does not consume the discard: only a
    // sample can be the cold one.
    EXPECT_EQ(p.next_protocol({0, 0}), 0u);
    EXPECT_EQ(p.next_protocol({0, 0, 100000}), 0u);  // cold: discarded
    EXPECT_EQ(p.latency(0), 700u);
    EXPECT_EQ(p.next_protocol({0, 0, 700}), 0u);
    EXPECT_EQ(p.latency(0), 700u);
}

}  // namespace
}  // namespace reactive
