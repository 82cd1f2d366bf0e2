/**
 * @file
 * Log-linear latency histogram and percentile helpers.
 *
 * Values below 128 get a bucket each; above that every power of two is
 * split into 64 equal buckets (1.6% resolution). Percentiles interpolate
 * linearly inside the bucket, so a reported latency moves with the
 * sample counts instead of snapping to bucket edges.
 */
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace e2e {

class Histogram {
  public:
    void add(std::uint64_t v)
    {
        ++buckets_[index(v)];
        ++count_;
        sum_ += v;
    }

    void merge(const Histogram& o)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            buckets_[i] += o.buckets_[i];
        count_ += o.count_;
        sum_ += o.sum_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }

    /// Value at quantile @p q in [0, 1]; 0 for an empty histogram.
    double percentile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        const double target = q * static_cast<double>(count_);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            const std::uint64_t c = buckets_[i];
            if (c == 0)
                continue;
            if (static_cast<double>(cum + c) >= target) {
                const double frac = (target - static_cast<double>(cum)) /
                                    static_cast<double>(c);
                return static_cast<double>(low(i)) +
                       frac * static_cast<double>(width(i));
            }
            cum += c;
        }
        return static_cast<double>(low(kBuckets - 1));
    }

  private:
    static constexpr unsigned kSubBits = 6;
    static constexpr std::uint64_t kLinear = 2u << kSubBits;  // 128
    static constexpr unsigned kMaxMsb = 44;  // clamp: ~9.8 h of 1 GHz ticks
    static constexpr std::size_t kBuckets =
        kLinear + (kMaxMsb - kSubBits) * (1u << kSubBits);

    static std::size_t index(std::uint64_t v)
    {
        if (v < kLinear)
            return static_cast<std::size_t>(v);
        unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
        if (msb > kMaxMsb) {
            msb = kMaxMsb;
            v = (std::uint64_t{2} << kMaxMsb) - 1;
        }
        const unsigned shift = msb - kSubBits;
        const std::uint64_t sub = (v >> shift) & ((1u << kSubBits) - 1);
        return kLinear + (msb - kSubBits - 1) * (1u << kSubBits) + sub;
    }

    static std::uint64_t low(std::size_t i)
    {
        if (i < kLinear)
            return i;
        const std::size_t k = i - kLinear;
        const unsigned shift = static_cast<unsigned>(k >> kSubBits) + 1;
        const std::uint64_t sub = k & ((1u << kSubBits) - 1);
        return ((std::uint64_t{1} << kSubBits) + sub) << shift;
    }

    static std::uint64_t width(std::size_t i)
    {
        return i < kLinear ? 1
                           : std::uint64_t{1}
                                 << (((i - kLinear) >> kSubBits) + 1);
    }

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/// Exact quantile of a sample (nearest rank); 0 for an empty sample.
inline double exact_percentile(std::vector<std::uint64_t> v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t k = std::min(
        v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return static_cast<double>(v[k]);
}

/// Median of a small set of per-trial figures.
inline double median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace e2e
