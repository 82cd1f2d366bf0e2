/**
 * @file
 * Spans of the traced run.
 *
 * Every call the benchmark makes into a layer's public function is one
 * span: a name, a start, an end and the operation it belongs to. The
 * benchmark's own operation is the parent span (`bench.op`); the layer
 * calls inside it are its children and share its id. Every call is
 * counted, summed and put into a histogram per span name; the full spans
 * of a seeded 1-in-64 sample of operations are kept in a buffer each
 * thread reserves before it starts, and written out as Chrome
 * trace-event JSON when the run ends.
 *
 * Native spans are in TSC ticks; simulated spans are in simulated cycles
 * read with sim::now(), which charges nothing, so tracing cannot move
 * the simulated schedule.
 */
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "histogram.hpp"

namespace e2e {

enum SpanId : std::uint8_t {
    kSpanOp,
    kSpanAcquire,
    kSpanRelease,
    kSpanReadAcquire,
    kSpanReadRelease,
    kSpanWriteAcquire,
    kSpanWriteRelease,
    kSpanArrive,
    kSpanCount,
};

/// Span names; the part before the dot is the layer (the src/ module).
inline constexpr const char* kSpanNames[kSpanCount] = {
    "bench.op",         "core.acquire",     "core.release",
    "rw.read_acquire",  "rw.read_release",  "rw.write_acquire",
    "rw.write_release", "barrier.arrive",
};

using SpanStats = std::array<Histogram, kSpanCount>;

struct SpanRecord {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t op = 0;  ///< operation id shared by a parent and its children
    std::uint32_t tid = 0;
    SpanId span = kSpanOp;
};

/// splitmix64 step: the benchmark's only source of randomness.
inline std::uint64_t splitmix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Seed of stream @p stream derived from the run seed.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t s = seed ^ (0xd1b54a32d192ed03ull * (stream + 1));
    return splitmix64(s);
}

/// One thread's (or one simulated processor's) spans.
class SpanLog {
  public:
    static constexpr std::size_t kMaxSpansPerOp = 4;

    SpanLog(std::uint64_t seed, std::uint32_t tid, std::size_t sampled_ops)
        : rng_(seed), tid_(tid)
    {
        records_.reserve(sampled_ops * kMaxSpansPerOp);
    }

    /// Starts the next operation and draws whether its spans are kept.
    void begin_op()
    {
        ++op_;
        keep_ = (splitmix64(rng_) & 63) == 0 &&
                records_.size() + kMaxSpansPerOp <= records_.capacity();
    }

    void record(SpanId s, std::uint64_t t0, std::uint64_t t1)
    {
        stats_[s].add(t1 - t0);
        if (keep_)
            records_.push_back({t0, t1, (std::uint64_t{tid_} << 40) | op_,
                                tid_, s});
    }

    const SpanStats& stats() const { return stats_; }
    const std::vector<SpanRecord>& records() const { return records_; }

  private:
    std::uint64_t rng_;
    std::uint32_t tid_;
    std::uint64_t op_ = 0;
    bool keep_ = false;
    SpanStats stats_{};
    std::vector<SpanRecord> records_;
};

inline void merge_stats(SpanStats& into, const SpanStats& from)
{
    for (std::size_t i = 0; i < kSpanCount; ++i)
        into[i].merge(from[i]);
}

/// Self time per span name: a span's total minus the part its children
/// cover. Every layer call is a direct child of a `bench.op` span.
inline std::array<double, kSpanCount> self_time(const SpanStats& s)
{
    std::array<double, kSpanCount> self{};
    double children = 0;
    for (std::size_t i = 1; i < kSpanCount; ++i) {
        self[i] = static_cast<double>(s[i].sum());
        children += self[i];
    }
    self[kSpanOp] = static_cast<double>(s[kSpanOp].sum()) - children;
    return self;
}

/// One process of the trace file: its logs and how to turn their
/// timestamps into microseconds.
struct TraceProcess {
    const char* name;
    std::vector<const SpanLog*> logs;
    std::uint64_t base = 0;  ///< timestamp shown as 0
    double us_per_unit = 1.0;
};

/// Writes the sampled spans as Chrome trace-event JSON (Perfetto and
/// chrome://tracing load it). Returns false when the file cannot be
/// written.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<TraceProcess>& procs,
                               const std::string& workload,
                               std::uint64_t seed)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    auto sep = [&] {
        if (!first)
            std::fputs(",\n", f);
        first = false;
    };
    for (std::size_t p = 0; p < procs.size(); ++p) {
        sep();
        std::fprintf(f,
                     "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
                     "%zu, \"args\": {\"name\": \"%s\"}}",
                     p + 1, procs[p].name);
        for (const SpanLog* log : procs[p].logs) {
            for (const SpanRecord& r : log->records()) {
                const std::string name = kSpanNames[r.span];
                sep();
                std::fprintf(
                    f,
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.4f, \"dur\": %.4f, \"pid\": %zu, \"tid\": %u, "
                    "\"args\": {\"op\": %llu}}",
                    name.c_str(), name.substr(0, name.find('.')).c_str(),
                    static_cast<double>(r.start - procs[p].base) *
                        procs[p].us_per_unit,
                    static_cast<double>(r.end - r.start) *
                        procs[p].us_per_unit,
                    p + 1, r.tid, static_cast<unsigned long long>(r.op));
            }
        }
    }
    std::fprintf(f,
                 "\n],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": "
                 "{\"workload\": \"%s\", \"seed\": %llu}\n}\n",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    return std::fclose(f) == 0;
}

}  // namespace e2e
