/**
 * @file
 * Runtime cost calibration for the switching policies (the "measured
 * constants" follow-on to thesis Section 3.4).
 *
 * The 3-competitive and hysteresis policies are parameterized by cost
 * constants — the residual cost of servicing a request with the
 * sub-optimal protocol and the round-trip cost of switching — which the
 * thesis measured once, by hand, on Alewife (~150/~15/~8800 cycles).
 * On any other machine those constants are guesses, and a mis-guessed
 * constant makes the reactive primitives switch too early, too late, or
 * oscillate. This header replaces the guesses with *per-object runtime
 * measurement*:
 *
 *  - `CostEstimator` keeps EWMAs of the observed acquisition latency of
 *    each protocol (split by the contention class the policies already
 *    distinguish) and of the observed switch cost. It is written only
 *    by in-consensus processes — the lock holder, the writing holder of
 *    the rwlock, the barrier's last arriver — exactly the processes
 *    that already mutate policy state race-free. The samples are cycle
 *    counts the holder already has in registers (the protocols time
 *    their own slow paths), so calibration adds **zero shared-memory
 *    traffic**: no new atomic is read or written anywhere, and the
 *    uncontended fast path is untouched (it performs no monitoring at
 *    all, see reactive_lock.hpp).
 *  - `CalibratedCompetitive3Policy` is the 3-competitive policy with
 *    its constants re-derived from the estimator on every decision,
 *    plus epsilon-greedy *re-probing*: a bounded fraction of
 *    acquisitions runs the dormant protocol so its estimate stays
 *    fresh. A probe costs at most one switch round trip plus
 *    `probe_len` residuals per `probe_period` acquisitions, so the
 *    regret it adds is bounded by a constant fraction — the same
 *    structure as the paper's 3-competitive argument, with the probe
 *    fraction playing the role of the competitive constant's slack.
 *  - `CalibratedHysteresisPolicy` derives the streak thresholds x and y
 *    from the same estimator (x ~ switch round trip / TTS residual,
 *    y ~ switch round trip / queue residual — the proportionality the
 *    thesis used to pick Hysteresis(20, 55) in the first place). It
 *    never probes.
 *
 * Both calibrated policies are two-protocol `CalibratingSelectPolicy`s
 * (core/policy.hpp): protocol 0 is TTS, protocol 1 the queue, and each
 * `Observation` carries the acquisition's measured latency when it is a
 * clean sample; `on_switch_cycles` carries each switch's measured
 * duration. The decision logic is the same with or without a sample.
 * Plain policies compile to exactly the code they compiled to before —
 * no timestamps are taken for them.
 */
#pragma once

#include <cstdint>
#include <utility>

#include "core/policy.hpp"
#include "platform/cache_line.hpp"

namespace reactive {

/**
 * One EWMA'd cost statistic over in-consensus cycle samples — the unit
 * of measurement shared by `CostEstimator` (fixed two-protocol latency
 * classes) and the N-protocol selection policies (one account per
 * protocol index, core/protocol_set.hpp).
 *
 * Gain is 2^-shift with a *fast start*: the first few samples use gain
 * 1/2 so a wildly wrong seed is corrected within a handful of
 * observations instead of lingering for dozens. Updates move
 * monotonically toward the sample and converge to an exact constant
 * input (a +-1 nudge covers the sub-2^shift gap).
 */
struct EwmaStat {
    std::uint64_t value = 0;
    std::uint32_t count = 0;  ///< saturating; drives the fast start

    explicit EwmaStat(std::uint64_t seed) : value(seed) {}

    void update(std::uint64_t sample, std::uint32_t shift)
    {
        // First samples use gain 1/2; settle to 2^-shift. A wrong
        // seed carries weight (1/2)^4 * (1 - 2^-shift)^k after the
        // fast start — negligible after a handful of observations.
        const std::uint32_t s = count < kFastStartSamples ? 1 : shift;
        if (count < kFastStartSamples)
            ++count;
        const std::int64_t diff = static_cast<std::int64_t>(sample) -
                                  static_cast<std::int64_t>(value);
        std::int64_t step = diff >> s;
        if (step == 0 && diff != 0)
            step = diff > 0 ? 1 : -1;  // close the sub-2^shift gap
        value = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(value) + step);
    }

    /// update() for statistics whose seed is a placeholder rather than
    /// a measurement: the first observation *replaces* the seed
    /// outright (observations are rare for these — switch costs, a
    /// probed rung's first visit — and a wrong seed would otherwise
    /// bias decisions for the dozens of samples an EWMA needs to flush
    /// it).
    void observe(std::uint64_t sample, std::uint32_t shift)
    {
        if (count == 0) {
            value = sample;
            count = 1;
            return;
        }
        update(sample, shift);
    }

    static constexpr std::uint32_t kFastStartSamples = 4;
};

/**
 * One latency class split by a socket-of-previous-holder bit (the
 * NUMA two-level estimator terms): on a multi-socket host the same
 * class has two populations — the handoff stayed on the holder's
 * socket, or it crossed — and a single EWMA sits between them,
 * tracking neither. The split keeps one EWMA per population plus an
 * EWMA of the cross fraction, and reports the fraction-weighted blend:
 * the *expected* cost of the next acquisition under the observed
 * traffic mix, which is exactly what the switch-threshold arithmetic
 * wants. The caller provides the bit for free — the holder knows its
 * own socket, and the previous holder's socket is holder-only state.
 *
 * Until a cross-socket sample arrives (always, on flat hosts) the
 * blend *is* the local EWMA, updated with the identical sequence a
 * plain EwmaStat would see — flat behavior is bit-identical.
 */
struct SocketSplitStat {
    EwmaStat local;   ///< previous holder on the caller's socket
    EwmaStat remote;  ///< previous holder on another socket
    /// EWMA of the cross indicator, scaled by 256 (gain 1/8).
    std::uint32_t cross_frac = 0;

    explicit SocketSplitStat(std::uint64_t seed) : local(seed), remote(seed)
    {
    }

    void update(std::uint64_t sample, std::uint32_t shift, bool cross)
    {
        (cross ? remote : local).update(sample, shift);
        update_frac(cross);
    }

    /// Placeholder-seed intake (EwmaStat::observe): the population's
    /// first observation replaces its seed outright.
    void observe(std::uint64_t sample, std::uint32_t shift, bool cross)
    {
        (cross ? remote : local).observe(sample, shift);
        update_frac(cross);
    }

  private:
    void update_frac(bool cross)
    {
        const std::int32_t diff =
            (cross ? 256 : 0) - static_cast<std::int32_t>(cross_frac);
        std::int32_t step = diff >> 3;
        if (step == 0 && diff != 0)
            step = diff > 0 ? 1 : -1;
        cross_frac = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(cross_frac) + step);
    }

  public:
    /// Fraction-weighted blend of the two populations (or whichever
    /// one has been observed).
    std::uint64_t value() const
    {
        if (remote.count == 0)
            return local.value;
        if (local.count == 0)
            return remote.value;
        return (local.value * (256 - cross_frac) +
                remote.value * cross_frac) >>
               8;
    }

    std::uint32_t count() const { return local.count + remote.count; }
};

/**
 * One waiting-axis observation, assembled for free by the departing
 * holder at release (src/waiting/reactive/): the span it held the
 * object and the advisory count of parked/queued waiters it saw.
 * Consumed by WaitSelectPolicy (waiting/reactive/wait_select.hpp) to
 * pick spin / two-phase / park. Single-writer under the same
 * in-consensus serialization as every other estimator lane.
 */
struct WaitSignal {
    std::uint64_t hold_cycles = 0;  ///< acquisition -> release span
    std::uint32_t queue_depth = 0;  ///< waiters observed at release
    /// Release timestamp (P::now() at signal assembly). Lets the policy
    /// measure release-to-release intervals — the object's end-to-end
    /// service rate, the quantity mode probing compares. 0 = caller
    /// does not supply timestamps (interval probing disabled).
    std::uint64_t now_cycles = 0;
};

/**
 * Per-object estimator of the cost quantities the switching policies
 * need, as EWMAs over in-consensus cycle samples.
 *
 * Single-writer by construction (only in-consensus processes call the
 * sample methods — the same serialization that protects policy state),
 * so the fields are plain integers: no atomics, no fences, no shared
 * traffic. The whole estimator is cache-line-aligned so that embedding
 * it in a lock cannot false-share with the lock words.
 *
 * EWMA details: gain is 2^-kEwmaShift, with a *fast start* — the first
 * few samples of each statistic use gain 1/2 so a wildly wrong seed is
 * corrected within a handful of observations instead of lingering for
 * dozens. Updates move monotonically toward the sample and converge to
 * an exact constant input (a +-1 nudge covers the sub-2^shift gap).
 */
class alignas(kCacheLineSize) CostEstimator {
  public:
    /// The holder-measurable span of a protocol change covers only its
    /// local work (validate/retire words, flip the hint, dismantle the
    /// queue); the systemic cost — every waiter re-routing through the
    /// dispatcher, the invalidation storms their retries cause, the
    /// re-steadying of the new protocol — lands on *other* processes
    /// and is well over an order of magnitude larger: the thesis
    /// measured ~8800 cycles for the round trip where the holder-local
    /// span is ~100 (one validate RMW plus the hint store, or a short
    /// queue dismantle). The ratio is roughly machine-independent (both
    /// sides are a handful of remote operations each, multiplied by the
    /// same coherence costs), which is what makes the span a usable
    /// runtime proxy: round trip = 2 * multiplier * measured span.
    static constexpr std::uint32_t kSwitchCostMultiplier = 44;
    /// Steady-state gain 2^-shift.
    static constexpr std::uint32_t kEwmaShift = 3;

    /**
     * Seed values, in cycles. The defaults encode the same Alewife
     * measurements as `Competitive3Policy::Params`: the derived
     * residuals start at 250-100 = 150 (contended TTS) and 65-50 = 15
     * (empty queue), and the derived round trip at
     * 2 * kSwitchCostMultiplier * 100 = 8800.
     */
    struct Params {
        std::uint64_t tts_uncontended = 50;  ///< immediate slow-path TTS win
        std::uint64_t tts_contended = 250;   ///< TTS past the retry limit
        std::uint64_t queue_empty = 65;      ///< queue acquisition, queue empty
        std::uint64_t queue_waited = 100;    ///< queue acquisition after a wait
        std::uint64_t switch_one_way = 100;  ///< holder-local span of one change

        /// Seeds scaled by num/den — the "deliberately wrong constants"
        /// hook for tests and the calibration benchmark.
        constexpr Params scaled(std::uint64_t num, std::uint64_t den) const
        {
            Params p = *this;
            p.tts_uncontended = p.tts_uncontended * num / den;
            p.tts_contended = p.tts_contended * num / den;
            p.queue_empty = p.queue_empty * num / den;
            p.queue_waited = p.queue_waited * num / den;
            p.switch_one_way = p.switch_one_way * num / den;
            return p;
        }

        /// Reluctant mis-tuning preset: switch cost seeded 10x high,
        /// residual seeds collapsed to near zero — a policy that
        /// "knows" switching never pays. Shared by the calibration
        /// benchmark and the test envelope so both validate the same
        /// wrong configuration.
        static constexpr Params mis_tuned_reluctant()
        {
            Params p;
            p.switch_one_way *= 10;
            p.tts_contended = p.queue_waited + 2;
            p.queue_empty = p.tts_uncontended + 2;
            return p;
        }

        /// Trigger-happy mis-tuning preset: switch cost seeded 10x
        /// low, residual seeds inflated 10x — a policy that "knows"
        /// switching is nearly free.
        static constexpr Params mis_tuned_eager()
        {
            Params p;
            p.switch_one_way /= 10;
            p.tts_contended = p.queue_waited + 1500;
            p.queue_empty = p.tts_uncontended + 150;
            return p;
        }
    };

    CostEstimator() : CostEstimator(Params{}) {}

    explicit CostEstimator(Params p)
        : tts_uncontended_(p.tts_uncontended),
          tts_contended_(p.tts_contended),
          queue_empty_(p.queue_empty),
          queue_waited_(p.queue_waited),
          switch_one_way_(p.switch_one_way),
          tts_overall_(p.tts_uncontended),
          queue_overall_(p.queue_waited)
    {
    }

    // ---- sample intake (in-consensus callers only) -------------------
    //
    // The optional @p cross bit names the socket-of-previous-holder
    // population the sample belongs to (SocketSplitStat); callers
    // without topology knowledge omit it and feed the local class —
    // the exact pre-split behavior.

    void sample_tts(bool contended, std::uint64_t cycles, bool cross = false)
    {
        Stat& s = contended ? tts_contended_ : tts_uncontended_;
        s.update(cycles, kEwmaShift, cross);
        tts_overall_.update(cycles, kEwmaShift);
    }

    void sample_queue(bool empty, std::uint64_t cycles, bool cross = false)
    {
        Stat& s = empty ? queue_empty_ : queue_waited_;
        s.update(cycles, kEwmaShift, cross);
        queue_overall_.update(cycles, kEwmaShift);
    }

    /// One observation's cycle sample (@p o.cycles must be set), routed
    /// by protocol (0 = TTS, otherwise the queue) and contention class.
    void sample(const Observation& o)
    {
        if (o.protocol == 0)
            sample_tts(o.drift > 0, *o.cycles, o.cross);
        else
            sample_queue(o.drift < 0, *o.cycles, o.cross);
    }

    /// One measured protocol change. The first sample *replaces* the
    /// seed (EwmaStat::observe): switches are rare, a wrong seed would
    /// otherwise bias the threshold for the dozens of changes an EWMA
    /// needs to flush it.
    void sample_switch(std::uint64_t cycles)
    {
        switch_one_way_.observe(cycles, kEwmaShift);
    }

    // ---- derived policy constants ------------------------------------

    /// Measured residual of servicing a contended request under TTS
    /// instead of the queue protocol. Floored at 1 so streak/threshold
    /// arithmetic stays well-defined when the estimates cross.
    std::uint64_t residual_tts_contended() const
    {
        return diff_or_one(tts_contended_.value(), queue_waited_.value());
    }

    /// Measured residual of an empty-queue acquisition vs. TTS.
    std::uint64_t residual_queue_empty() const
    {
        return diff_or_one(queue_empty_.value(), tts_uncontended_.value());
    }

    /// Measured residual of a *loaded* queue acquisition vs. a
    /// fast-path TTS win — the counterfactual cost of a request the
    /// fast path absorbed while the queue protocol was the (busy)
    /// home. Used as per-request adoption evidence during probes.
    std::uint64_t residual_queue_waited() const
    {
        return diff_or_one(queue_waited_.value(), tts_uncontended_.value());
    }

    /// Estimated switch round trip (there and back again), scaled from
    /// the holder-local span to the systemic cost (see
    /// kSwitchCostMultiplier).
    std::uint64_t switch_round_trip() const
    {
        return 2 * kSwitchCostMultiplier * switch_one_way_.value;
    }

    /// Overall per-protocol latency estimates (probe vote baselines).
    std::uint64_t tts_latency() const { return tts_overall_.value; }
    std::uint64_t queue_latency() const { return queue_overall_.value; }

    // ---- raw estimates (tests, diagnostics) --------------------------

    std::uint64_t tts_uncontended() const { return tts_uncontended_.value(); }
    std::uint64_t tts_contended() const { return tts_contended_.value(); }
    std::uint64_t queue_empty() const { return queue_empty_.value(); }
    std::uint64_t queue_waited() const { return queue_waited_.value(); }
    std::uint64_t switch_one_way() const { return switch_one_way_.value; }
    std::uint64_t samples() const
    {
        return tts_uncontended_.count() + tts_contended_.count() +
               queue_empty_.count() + queue_waited_.count() +
               switch_one_way_.count;
    }

    /// Split-population views (tests, diagnostics).
    const SocketSplitStat& split_tts_contended() const
    {
        return tts_contended_;
    }
    const SocketSplitStat& split_tts_uncontended() const
    {
        return tts_uncontended_;
    }
    const SocketSplitStat& split_queue_empty() const { return queue_empty_; }
    const SocketSplitStat& split_queue_waited() const
    {
        return queue_waited_;
    }

  private:
    /// The four latency classes are socket-split; the switch cost and
    /// the overall probe baselines stay single-population (a switch is
    /// not a handoff, and the baselines average the traffic mix by
    /// construction).
    using Stat = SocketSplitStat;

    static std::uint64_t diff_or_one(std::uint64_t a, std::uint64_t b)
    {
        return a > b ? a - b : 1;
    }

    Stat tts_uncontended_;
    Stat tts_contended_;
    Stat queue_empty_;
    Stat queue_waited_;
    EwmaStat switch_one_way_;
    EwmaStat tts_overall_;
    EwmaStat queue_overall_;
};

/**
 * The 3-competitive policy with runtime-calibrated constants and
 * epsilon-greedy re-probing of the dormant protocol.
 *
 * Decision rule (identical structure to `Competitive3Policy`): each
 * request serviced by the sub-optimal protocol adds its *measured*
 * residual; switch when the accumulated residual exceeds the *measured*
 * switch round trip. Switching remains purely signal-driven — the
 * estimator sizes the constants, it never overrides the signals (the
 * thesis' signals encode information no latency average captures, e.g.
 * "contended acquisitions are rare" is exactly why TTS wins a
 * convoying hot loop).
 *
 * Re-probing: after `probe_period` *observed* acquisitions in the
 * current protocol, the policy forces a *probe*: it switches to the
 * dormant protocol for `probe_len` observed acquisitions purely to
 * refresh that protocol's latency estimates (and, since both probe
 * switches are measured, the switch-cost estimate), then switches
 * straight back. The cadence deliberately counts observed (slow-path)
 * acquisitions, not wall time: a quiescent object observes nothing and
 * never probes, a fast-path-dominated object observes little and
 * rarely probes, while a busy protocol with stale dormant estimates —
 * precisely the object that can sit in the wrong protocol with no
 * signal ever firing (a convoying hot loop keeps the queue nonempty
 * forever) — probes once per period at a cost bounded by one round
 * trip plus probe_len residuals.
 *
 * The period backs off exponentially while probes keep confirming the
 * status quo (each probe doubles the next period, capped at 64x) and
 * snaps back to the base period whenever the *signals* drive a real
 * switch — a steady regime pays O(log) probes total, a shifting regime
 * keeps fresh estimates at the base cadence.
 *
 * One emergent subtlety worth knowing: a probe *into* the TTS protocol
 * at low contention can park there indefinitely, because uncontended
 * acquisitions ride the optimistic fast path, which performs no
 * monitoring — the probe counter only advances on observed (slow-path)
 * acquisitions. That is adoption by construction: the probe fails to
 * end exactly when the probed protocol is absorbing every acquisition
 * at fast-path cost, i.e. when staying is the right answer. The first
 * burst of contention produces observed acquisitions, finishes the
 * probe, and restores normal signal-driven operation.
 *
 * Regret bound: a probe costs at most one switch round trip plus
 * probe_len residuals per probe_period signalled acquisitions, so
 * calibration inflates the 3-competitive bound by the probe fraction
 * (~1% at the defaults) while removing the unbounded cost of operating
 * on wrong constants. One caveat for primitives with operations that
 * never feed the policy: those operations run the dormant protocol for
 * the probe's *duration*, which only observed acquisitions bound — an
 * rwlock probe parked in the queue protocol makes intervening readers
 * pay the queue read path's constant overhead until probe_len further
 * writes arrive (see reactive_rw_lock.hpp). The per-operation overhead
 * is a small constant (both protocols serve every operation in O(1)
 * remote references); only its duration is workload-dependent.
 */
class CalibratedCompetitive3Policy {
  public:
    struct Params {
        CostEstimator::Params costs{};
        /// Base count of observed acquisitions between probes of the
        /// dormant protocol (0 disables probing); doubles after each
        /// status-quo-confirming probe, up to 64x.
        std::uint32_t probe_period = 128;
        /// Observed acquisitions sampled in the dormant protocol per
        /// probe.
        std::uint32_t probe_len = 2;
    };

    /// Two-protocol policy: protocol 0 is TTS, protocol 1 the queue.
    static constexpr std::uint32_t kProtocols = 2;

    CalibratedCompetitive3Policy() : CalibratedCompetitive3Policy(Params{})
    {
    }

    explicit CalibratedCompetitive3Policy(Params p)
        : params_(p), est_(p.costs)
    {
        // The first dormant observation of every probe is the
        // discarded cold one (see on_switch); a probe must observe at
        // least one more to refresh anything.
        if (params_.probe_len < 2)
            params_.probe_len = 2;
    }

    /**
     * One observation: drift > 0 on protocol 0 is a contended TTS
     * acquisition, drift < 0 on protocol 1 an empty-queue one. Callers
     * attach a cycle sample only when its class is unambiguous (the
     * reactive lock omits it for slow-path wins that spun below the
     * retry limit — their latency is waiting, not protocol cost, and
     * feeding it to the "uncontended" class would poison the
     * residuals); the decision logic is identical with or without a
     * sample. The first sample after any protocol change is discarded:
     * it pays the switch disruption (cold lines, re-routing waiters),
     * which belongs to the switch cost, not to the protocol's steady
     * class. The socket bit routes the sample into the split latency
     * classes; decisions use the blended estimates either way.
     */
    std::uint32_t next_protocol(const Observation& o)
    {
        if (o.cycles && !std::exchange(skip_next_sample_, false))
            est_.sample(o);
        const bool sw = o.protocol == 0 ? tts_step(o.drift > 0)
                                        : queue_step(o.drift < 0);
        return sw ? o.protocol ^ 1u : o.protocol;
    }

    void on_switch()
    {
        // A probe transition is a measurement break, not evidence: the
        // cumulative residual must survive it (accumulation across
        // breaks is what yields the competitive bound). Only a
        // signal-driven switch starts a fresh account.
        if (probe_ == Probe::kNone && !probe_returning_) {
            cumulative_ = 0;
            fast_home_ = 0;
            observed_home_ = 0;
        }
        probe_returning_ = false;
        acq_since_probe_ = 0;
        probe_acqs_ = 0;
        probe_ = probe_ == Probe::kPending ? Probe::kProbing : Probe::kNone;
        skip_next_sample_ = true;
    }

    /**
     * Optimistic-fast-path win notification (reactive lock / rwlock
     * writer path; the winner holds the lock, so this private counter
     * increment is in-consensus, traffic-free, and timestamp-free).
     *
     * In the TTS home protocol, fast-path requests pay no residual and
     * would pay the queue protocol's full acquisition cost after a
     * switch, so the effective switch round trip scales by the
     * fraction of requests the policy actually observes — without
     * this, a convoying hot loop (whose observed slow-path tail
     * latencies look terrible but whose throughput is excellent) reads
     * as a switch opportunity.
     *
     * During a probe *into* TTS from the queue home, each fast win is
     * adoption evidence instead: a request served at fast-path cost
     * that the loaded queue protocol would have charged its full
     * waited acquisition for (the queue is the home because it is
     * busy), i.e. one waited-queue residual toward switching home to
     * TTS. This self-discriminates — a probe only parks in TTS long
     * enough to accumulate a switch-worth of evidence when the fast
     * path is genuinely absorbing the load (the probe counter, which
     * ends the probe, only advances on slow-path acquisitions).
     */
    void on_tts_fast_acquire()
    {
        if (probe_ == Probe::kProbing && home_is_queue_) {
            cumulative_ += est_.residual_queue_waited();
            return;
        }
        if (!home_is_queue_ && fast_home_ < kFastWinCap)
            ++fast_home_;
    }

    /// Recent fast-wins-per-observed-acquisition ratio. The
    /// denominator is the observed count since the last signal-driven
    /// switch, saturating at the window size: immediately after a
    /// switch the factor tracks the raw ratio (a handful of fast wins
    /// per observed acquisition must count at once, or every
    /// post-switch period would re-enter the queue before the evidence
    /// bar recovers), while at steady state it is the sliding-window
    /// ratio whose staleness effective_round_trip bounds.
    std::uint64_t fast_factor() const
    {
        std::uint64_t denom = observed_home_ < kFastWindow
                                  ? observed_home_
                                  : kFastWindow;
        if (denom == 0)
            denom = 1;
        const std::uint64_t f = 1 + fast_home_ / denom;
        return f > kMaxFastFactor ? kMaxFastFactor : f;
    }

    void on_switch_cycles(std::uint64_t cycles)
    {
        est_.sample_switch(cycles);
    }

    // ---- monitoring (tests, experiments) -----------------------------

    const CostEstimator& estimator() const { return est_; }
    CostEstimator& estimator() { return est_; }
    std::uint64_t cumulative_residual() const { return cumulative_; }
    std::uint64_t probes_started() const { return probes_started_; }
    bool probing() const { return probe_ != Probe::kNone; }

  private:
    enum class Probe : std::uint8_t {
        kNone,     ///< normal operation in the home protocol
        kPending,  ///< probe switch requested, waiting for on_switch()
        kProbing,  ///< sampling the dormant protocol
    };

    bool tts_step(bool contended)
    {
        if (probe_ == Probe::kProbing && home_is_queue_)
            return probe_step();
        probe_ = Probe::kNone;  // home-mode callback ends any stale probe
        home_is_queue_ = false;
        ++acq_since_probe_;
        ++observed_home_;
        fast_home_ -= fast_home_ >> kFastDecayShift;  // age the window
        if (contended)
            cumulative_ += est_.residual_tts_contended();
        if (cumulative_ >= effective_round_trip()) {
            probe_backoff_ = 0;  // the signals moved: regime shift
            return true;
        }
        if (probe_due()) {
            probe_ = Probe::kPending;
            if (probe_backoff_ < kProbeBackoffCap)
                ++probe_backoff_;
            ++probes_started_;
            return true;
        }
        return false;
    }

    bool queue_step(bool empty)
    {
        if (probe_ == Probe::kProbing && !home_is_queue_)
            return probe_step();
        probe_ = Probe::kNone;
        home_is_queue_ = true;
        ++acq_since_probe_;
        ++observed_home_;
        fast_home_ = 0;  // the fast path cannot win in queue mode
        if (empty)
            cumulative_ += est_.residual_queue_empty();
        if (cumulative_ >= effective_round_trip()) {
            probe_backoff_ = 0;  // the signals moved: regime shift
            return true;
        }
        if (probe_due()) {
            probe_ = Probe::kPending;
            if (probe_backoff_ < kProbeBackoffCap)
                ++probe_backoff_;
            ++probes_started_;
            return true;
        }
        return false;
    }

    /// One observed acquisition executed in the dormant protocol during
    /// a probe. Probes only refresh estimates (the sample was already
    /// taken by the caller): after probe_len observations the policy
    /// switches straight back home. No residual accumulates during a
    /// probe — it is a measurement episode, not evidence.
    bool probe_step()
    {
        if (++probe_acqs_ < params_.probe_len)
            return false;
        probe_ = Probe::kNone;
        probe_returning_ = true;  // preserve the cumulative account
        return true;              // switch back home
    }

    bool probe_due() const
    {
        return params_.probe_period != 0 &&
               acq_since_probe_ >=
                   (static_cast<std::uint64_t>(params_.probe_period)
                    << probe_backoff_);
    }

    /// Switch round trip scaled by the *recent* observed-request
    /// fraction: if F fast-path wins ride along with each observed
    /// acquisition, a switch re-routes F+1 requests' worth of service
    /// into the queue protocol for every observed residual collected,
    /// so the evidence bar rises proportionally. The fast-win counter
    /// ages by 1/2^kFastDecayShift per observed acquisition, so the
    /// factor tracks a sliding ~kFastWindow-observation window — a
    /// long-gone fast-path era cannot inflate the bar after the regime
    /// changes. Factor is 1 whenever the fast path is idle (queue
    /// home, genuinely contended TTS, any rwlock/barrier configuration
    /// without the hook).
    std::uint64_t effective_round_trip() const
    {
        return est_.switch_round_trip() * fast_factor();
    }

    static constexpr std::uint32_t kProbeBackoffCap = 6;
    /// ~1024-observation sliding window: long enough that sparse
    /// observed acquisitions in a convoying hot loop sustain the
    /// factor, short enough that once a regime shift makes every
    /// acquisition observed, a stale fast-path era decays away within
    /// a few thousand observed acquisitions (factor halves every ~710
    /// at the cap below).
    static constexpr std::uint32_t kFastDecayShift = 10;
    static constexpr std::uint64_t kFastWindow = std::uint64_t{1}
                                                << kFastDecayShift;
    static constexpr std::uint64_t kMaxFastFactor = 256;
    static constexpr std::uint64_t kFastWinCap =
        kMaxFastFactor * kFastWindow;

    Params params_;
    CostEstimator est_;
    std::uint64_t cumulative_ = 0;
    std::uint64_t acq_since_probe_ = 0;
    std::uint64_t observed_home_ = 0;
    std::uint64_t fast_home_ = 0;
    std::uint32_t probe_backoff_ = 0;
    std::uint32_t probe_acqs_ = 0;
    std::uint64_t probes_started_ = 0;
    Probe probe_ = Probe::kNone;
    bool home_is_queue_ = false;  ///< inferred from the callbacks
    bool probe_returning_ = false;
    bool skip_next_sample_ = false;
};

/**
 * Hysteresis with runtime-calibrated streak thresholds.
 *
 * The thesis picked Hysteresis(20, 55) "to mirror the 3-competitive
 * policy's thresholds": a streak of x contended TTS acquisitions is
 * evidence worth x * residual cycles, so the mirror of "switch when the
 * residual exceeds the round trip" is x = round_trip / residual (and
 * likewise y). This class recomputes x and y from the estimator on
 * every decision, clamped to [kMinStreak, kMaxStreak] so a degenerate
 * estimate can neither pin the policy open nor slam it shut.
 *
 * It never probes, so its dormant estimates refresh only while the
 * protocols genuinely alternate: a workload that settles into one
 * protocol for good leaves the dormant residual — and the streak
 * threshold guarding the switch toward that protocol — at whatever the
 * estimator last saw, arbitrarily stale.
 */
class CalibratedHysteresisPolicy {
  public:
    struct Params {
        CostEstimator::Params costs{};
    };

    /// Two-protocol policy: protocol 0 is TTS, protocol 1 the queue.
    static constexpr std::uint32_t kProtocols = 2;
    /// Bounds on the derived streak thresholds.
    static constexpr std::uint32_t kMinStreak = 2;
    static constexpr std::uint32_t kMaxStreak = 4096;

    CalibratedHysteresisPolicy() = default;
    explicit CalibratedHysteresisPolicy(Params p) : est_(p.costs) {}

    /// One observation, mapped and sampled as in
    /// CalibratedCompetitive3Policy (the first sample after a protocol
    /// change is discarded); x contended TTS or y empty-queue
    /// acquisitions in a row switch, any break resets the streak.
    std::uint32_t next_protocol(const Observation& o)
    {
        if (o.cycles && !std::exchange(skip_next_sample_, false))
            est_.sample(o);
        const bool sw =
            o.protocol == 0
                ? streak(contended_streak_, o.drift > 0, to_queue_streak())
                : streak(empty_streak_, o.drift < 0, to_tts_streak());
        return sw ? o.protocol ^ 1u : o.protocol;
    }

    void on_switch()
    {
        contended_streak_ = 0;
        empty_streak_ = 0;
        skip_next_sample_ = true;
    }

    void on_switch_cycles(std::uint64_t cycles)
    {
        est_.sample_switch(cycles);
    }

    // ---- derived thresholds (tests, diagnostics) ---------------------

    std::uint32_t to_queue_streak() const
    {
        return derive(est_.residual_tts_contended());
    }

    std::uint32_t to_tts_streak() const
    {
        return derive(est_.residual_queue_empty());
    }

    const CostEstimator& estimator() const { return est_; }
    CostEstimator& estimator() { return est_; }

  private:
    /// Extends (on @p hit) or breaks streak @p n; true once it reaches
    /// @p limit.
    static bool streak(std::uint32_t& n, bool hit, std::uint32_t limit)
    {
        if (!hit) {
            n = 0;
            return false;
        }
        return ++n >= limit;
    }

    std::uint32_t derive(std::uint64_t residual) const
    {
        const std::uint64_t x = est_.switch_round_trip() / residual;
        if (x < kMinStreak)
            return kMinStreak;
        if (x > kMaxStreak)
            return kMaxStreak;
        return static_cast<std::uint32_t>(x);
    }

    CostEstimator est_;
    std::uint32_t contended_streak_ = 0;
    std::uint32_t empty_streak_ = 0;
    bool skip_next_sample_ = false;
};

static_assert(CalibratingSelectPolicy<CalibratedCompetitive3Policy>);
static_assert(CalibratingSelectPolicy<CalibratedHysteresisPolicy>);

}  // namespace reactive
