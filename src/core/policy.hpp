/**
 * @file
 * Protocol-switching policies (thesis Section 3.4) and the three policy
 * concepts.
 *
 * The reactive algorithms monitor run-time contention while executing a
 * protocol (failed test&set attempts in TTS mode; empty-queue
 * acquisitions in queue mode) and feed each acquisition's observation to
 * a *policy*, which decides whether to switch protocols on the upcoming
 * release. The thesis evaluates three policies:
 *
 *  - **always-switch** (the default in Section 3.3): switch as soon as
 *    the monitored signal says the current protocol is sub-optimal; a
 *    small signal-reliability streak (e.g. 4 consecutive empty-queue
 *    acquisitions, Section 3.7.1) guards against one-off noise.
 *  - **3-competitive** (Section 3.4.1): accumulate the residual cost of
 *    servicing requests with the sub-optimal protocol — *across* breaks
 *    in the streak — and switch when the cumulative residual exceeds the
 *    round-trip cost of switching protocols. Derived from Borodin,
 *    Linial & Saks' nearly-oblivious algorithm; worst case 3x optimal.
 *  - **hysteresis(x, y)** (Section 3.5.5): switch only after x
 *    consecutive high-contention TTS acquisitions (TTS->queue) or y
 *    consecutive empty-queue acquisitions (queue->TTS); any break
 *    resets the streak.
 *
 * These three are binary `SwitchPolicy`s, kept in the thesis' own terms.
 * Every reactive primitive talks to its policy through `SelectPolicy`
 * instead: one `Observation` per in-consensus acquisition or episode,
 * answered with the protocol index to run next. `SelectAdapter`
 * (core/protocol_set.hpp) embeds a binary policy as the two-protocol
 * case. A `CalibratingSelectPolicy` adds only `on_switch_cycles`; for it
 * alone the primitives read the clock, so only it ever sees a cost
 * sample or the socket bit in its observations.
 *
 * A policy's methods are invoked only by the process currently holding
 * the lock (in-consensus), so policy state needs no synchronization of
 * its own — that is part of the consensus-object design.
 */
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>

namespace reactive {

/**
 * The one thing a selection policy is shown per decision: which protocol
 * serviced the request, which direction along the set's scalability
 * order its contention evidence points, and — for calibrating policies
 * only — its measured cost and handoff locality.
 */
struct Observation {
    std::uint32_t protocol = 0;  ///< index of the protocol that executed
    int drift = 0;  ///< +1 under-provisioned, -1 over-provisioned, 0 content
    /// Measured cost in cycles. Present only for a clean sample (one that
    /// measures protocol cost, not waiting) shown to a calibrating policy.
    std::optional<std::uint64_t> cycles{};
    /// The handoff crossed a socket boundary (calibrating policies only).
    bool cross = false;
};

// clang-format off
/// Binary policy concept: per-acquisition observations in either protocol.
template <typename P>
concept SwitchPolicy = requires(P p, bool b) {
    /// Observation in TTS mode; `contended` = this acquisition's failed
    /// test&set count exceeded the retry limit. Returns "switch now".
    { p.on_tts_acquire(b) } -> std::same_as<bool>;
    /// Observation in queue mode; `empty` = the queue was empty at this
    /// acquisition. Returns "switch now".
    { p.on_queue_acquire(b) } -> std::same_as<bool>;
    /// Notification that a protocol change was performed.
    { p.on_switch() } -> std::same_as<void>;
};

/**
 * Selection policy: `next_protocol` returns the index the object should
 * run next (== o.protocol means stay); `on_switch` notifies that a
 * protocol change was performed.
 */
template <typename Pol>
concept SelectPolicy = requires(Pol p, const Observation& o) {
    { p.next_protocol(o) } -> std::same_as<std::uint32_t>;
    { p.on_switch() } -> std::same_as<void>;
};

/**
 * A selection policy that consumes runtime cost samples: it also hears
 * the measured in-consensus span of each change (called after
 * on_switch(), still in consensus). Only for these policies is the clock
 * read and are `Observation::cycles` and `cross` filled.
 */
template <typename Pol>
concept CalibratingSelectPolicy =
    SelectPolicy<Pol> && requires(Pol p, std::uint64_t c) {
        { p.on_switch_cycles(c) } -> std::same_as<void>;
    };
// clang-format on

/**
 * Default policy: switch immediately on a reliable signal.
 *
 * "Reliable" = one contended TTS acquisition (the retry limit already
 * filters noise within an acquisition), or `empty_streak_limit`
 * consecutive empty-queue acquisitions (thesis Section 3.7.1 uses 4).
 */
class AlwaysSwitchPolicy {
  public:
    explicit AlwaysSwitchPolicy(std::uint32_t empty_streak_limit = 4)
        : empty_limit_(empty_streak_limit)
    {
    }

    bool on_tts_acquire(bool contended) { return contended; }

    bool on_queue_acquire(bool empty)
    {
        if (!empty) {
            empty_streak_ = 0;
            return false;
        }
        return ++empty_streak_ >= empty_limit_;
    }

    void on_switch() { empty_streak_ = 0; }

  private:
    std::uint32_t empty_limit_;
    std::uint32_t empty_streak_ = 0;
};

/**
 * The 3-competitive policy of Section 3.4.1.
 *
 * Each request serviced by the sub-optimal protocol adds its residual
 * cost (the thesis measures ~150 cycles for a high-contention request
 * under TTS and ~15 cycles for a low-contention request under the MCS
 * protocol); the protocol is switched when the accumulated residual
 * exceeds the round-trip switching cost (~8000 + 800 cycles measured on
 * Alewife). The cumulative residual survives breaks in the streak —
 * the property that distinguishes it from hysteresis and yields the
 * competitive bound.
 */
class Competitive3Policy {
  public:
    struct Params {
        std::uint32_t residual_tts_contended = 150;
        std::uint32_t residual_queue_empty = 15;
        std::uint32_t switch_round_trip = 8800;
    };

    Competitive3Policy() = default;
    explicit Competitive3Policy(Params p) : params_(p) {}

    bool on_tts_acquire(bool contended)
    {
        if (contended)
            cumulative_ += params_.residual_tts_contended;
        return cumulative_ >= params_.switch_round_trip;
    }

    bool on_queue_acquire(bool empty)
    {
        if (empty)
            cumulative_ += params_.residual_queue_empty;
        return cumulative_ >= params_.switch_round_trip;
    }

    void on_switch() { cumulative_ = 0; }

    std::uint64_t cumulative_residual() const { return cumulative_; }

  private:
    Params params_;
    std::uint64_t cumulative_ = 0;
};

/**
 * Hysteresis(x, y) policy of Section 3.5.5: x consecutive contended
 * TTS acquisitions switch to the queue protocol; y consecutive
 * empty-queue acquisitions switch back; any break resets the streak.
 */
class HysteresisPolicy {
  public:
    /// Defaults match the thesis' Hysteresis(20, 55) configuration,
    /// chosen there to mirror the 3-competitive policy's thresholds.
    explicit HysteresisPolicy(std::uint32_t to_queue_streak = 20,
                              std::uint32_t to_tts_streak = 55)
        : x_(to_queue_streak), y_(to_tts_streak)
    {
    }

    bool on_tts_acquire(bool contended)
    {
        if (!contended) {
            contended_streak_ = 0;
            return false;
        }
        return ++contended_streak_ >= x_;
    }

    bool on_queue_acquire(bool empty)
    {
        if (!empty) {
            empty_streak_ = 0;
            return false;
        }
        return ++empty_streak_ >= y_;
    }

    void on_switch()
    {
        contended_streak_ = 0;
        empty_streak_ = 0;
    }

  private:
    std::uint32_t x_;
    std::uint32_t y_;
    std::uint32_t contended_streak_ = 0;
    std::uint32_t empty_streak_ = 0;
};

static_assert(SwitchPolicy<AlwaysSwitchPolicy>);
static_assert(SwitchPolicy<Competitive3Policy>);
static_assert(SwitchPolicy<HysteresisPolicy>);

}  // namespace reactive
