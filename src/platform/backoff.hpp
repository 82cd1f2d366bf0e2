/**
 * @file
 * Randomized exponential backoff (Anderson [5]; thesis Section 3.1.1).
 *
 * The mean delay doubles after each failed acquisition attempt and is
 * capped at a maximum proportional to the expected worst-case number of
 * contenders. The thesis notes two load-bearing details that this
 * implementation preserves:
 *
 *  - the delay is *randomized* around the current mean ("probabilistic
 *    queuing" of waiters), and
 *  - the cap matters: too large a cap makes lock handoff sluggish at low
 *    contention (this is exactly why test-and-set with backoff loses to
 *    test-and-test-and-set at low contention in Figure 3.2).
 */
#pragma once

#include <cstdint>

namespace reactive {

/// Tunable limits for exponential backoff, in platform delay units.
struct BackoffParams {
    std::uint32_t initial = 16;   ///< mean delay after the first failure
    std::uint32_t maximum = 8192; ///< cap on the mean delay

    /// Cap sized to accommodate @p max_contenders processors, as the
    /// thesis prescribes (Section 3.1.1): each doubling roughly absorbs a
    /// doubling of the contender population.
    static constexpr BackoffParams for_contenders(std::uint32_t max_contenders,
                                                  std::uint32_t per_contender = 128)
    {
        BackoffParams p;
        p.initial = 16;
        std::uint32_t cap = per_contender;
        while (cap < per_contender * max_contenders && cap < (1u << 24))
            cap <<= 1;
        p.maximum = cap;
        return p;
    }
};

/**
 * Stateful randomized exponential backoff.
 *
 * @tparam Platform supplies delay(cycles) and random_below(bound).
 */
template <typename Platform>
class ExpBackoff {
  public:
    explicit ExpBackoff(BackoffParams params = {}) : params_(params), mean_(params.initial)
    {
    }

    /// Waits a random interval in [0, mean), doubles the mean (capped),
    /// and returns the interval drawn: a caller that times its polls
    /// can then tell its own pause from time it spent descheduled.
    std::uint32_t pause()
    {
        const std::uint32_t d = Platform::random_below(mean_);
        Platform::delay(d);
        if (mean_ < params_.maximum)
            mean_ <<= 1;
        return d;
    }

    /// Halves the mean after a success, per Anderson's best-performing
    /// variant (double on failure, halve on success).
    void succeed()
    {
        mean_ = mean_ > params_.initial ? mean_ >> 1 : params_.initial;
    }

    /// Restores the initial mean.
    void reset() { mean_ = params_.initial; }

    std::uint32_t mean() const { return mean_; }

  private:
    BackoffParams params_;
    std::uint32_t mean_;
};

}  // namespace reactive
