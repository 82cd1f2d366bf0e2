/**
 * @file
 * Prometheus-style text exporter for the decision audit.
 *
 * Writes the process-wide audit snapshot (and, when given, the merged
 * trace MetricsRegistry) in the Prometheus text exposition format:
 * `# HELP` / `# TYPE` headers followed by `name{labels} value` lines.
 * Every fig binary exposes this behind `--metrics <file>`
 * (bench/bench_common.hpp), so a sweep can be scraped without loading
 * the Chrome trace. Values are platform cycles / plain counts; there
 * is no wall-clock timestamp — the sim clock is the only meaningful
 * time base and it is already in the trace.
 */
#pragma once

#include <cstdint>
#include <ostream>

#include "audit/audit.hpp"
#include "trace/metrics.hpp"

namespace reactive::audit {

/**
 * Writes @p snap (plus per-class trace counters and latency quantiles
 * from @p metrics when non-null) as Prometheus text. @p top_objects
 * bounds the per-object regret series (worst offenders first) so
 * object-heavy sweeps don't explode the scrape.
 */
inline void write_prometheus(std::ostream& os, const Snapshot& snap,
                             const trace::MetricsRegistry* metrics = nullptr,
                             std::size_t top_objects = 8)
{
    os << "# HELP reactive_regret_samples_total consensus points with a "
          "counterfactual account\n"
          "# TYPE reactive_regret_samples_total counter\n";
    for (std::size_t c = 1; c < trace::kClassCount; ++c) {
        const ClassRegret& r = snap.classes[c];
        if (r.samples == 0)
            continue;
        const char* cls = trace::class_name(
            static_cast<trace::ObjectClass>(c));
        os << "reactive_regret_samples_total{class=\"" << cls << "\"} "
           << r.samples << "\n";
    }
    os << "# HELP reactive_regret_cycles_total accumulated regret "
          "(realized minus best-alternative, clamped at 0), cycles\n"
          "# TYPE reactive_regret_cycles_total counter\n";
    for (std::size_t c = 1; c < trace::kClassCount; ++c) {
        const ClassRegret& r = snap.classes[c];
        if (r.samples == 0)
            continue;
        const char* cls = trace::class_name(
            static_cast<trace::ObjectClass>(c));
        os << "reactive_regret_cycles_total{class=\"" << cls << "\"} "
           << r.regret << "\n"
           << "reactive_regret_realized_cycles_total{class=\"" << cls
           << "\"} " << r.realized << "\n"
           << "reactive_regret_best_cycles_total{class=\"" << cls
           << "\"} " << r.best << "\n";
        if (r.overflow_objects > 0)
            os << "reactive_regret_overflow_objects{class=\"" << cls
               << "\"} " << r.overflow_objects << "\n";
    }

    if (!snap.objects.empty()) {
        os << "# HELP reactive_object_regret_cycles per-object regret, "
              "worst offenders\n"
              "# TYPE reactive_object_regret_cycles gauge\n";
        std::size_t emitted = 0;
        for (const ObjectRegret& o : snap.objects) {
            if (emitted >= top_objects)
                break;
            os << "reactive_object_regret_cycles{class=\""
               << trace::class_name(o.cls) << "\", object=\"" << o.object
               << "\"} " << o.regret << "\n";
            ++emitted;
        }
    }

    if (metrics == nullptr)
        return;
    os << "# HELP reactive_trace_events_total exact per-class decision "
          "counters (drop-immune)\n"
          "# TYPE reactive_trace_events_total counter\n";
    static constexpr const char* kMetricNames[] = {
        "acquisitions",   "fast_path_wins", "switches",
        "probes_started", "probes_won",     "probes_lost",
        "episodes",       "handoffs",       "aborts",
        "regret_samples", "parks",          "wakes",
        "wait_mode_switches",
    };
    // A missing name streams a null pointer, which fails the stream.
    static_assert(sizeof(kMetricNames) / sizeof(kMetricNames[0]) ==
                  trace::kMetricCount);
    for (std::size_t c = 1; c < trace::kClassCount; ++c) {
        const auto cls = static_cast<trace::ObjectClass>(c);
        const auto& row = metrics->row(cls);
        std::uint64_t any = row.dropped;
        for (std::uint64_t v : row.counters)
            any += v;
        if (any == 0)
            continue;
        for (std::size_t m = 0; m < trace::kMetricCount; ++m)
            os << "reactive_trace_events_total{class=\""
               << trace::class_name(cls) << "\", metric=\""
               << kMetricNames[m] << "\"} " << row.counters[m] << "\n";
        os << "reactive_trace_dropped_total{class=\""
           << trace::class_name(cls) << "\"} " << row.dropped << "\n";
        if (row.latency.stats().count() > 0) {
            os << "# TYPE reactive_latency_cycles summary\n";
            for (double q : {0.50, 0.90, 0.99})
                os << "reactive_latency_cycles{class=\""
                   << trace::class_name(cls) << "\", quantile=\"" << q
                   << "\"} " << row.latency.percentile(q) << "\n";
            os << "reactive_latency_cycles_count{class=\""
               << trace::class_name(cls) << "\"} "
               << row.latency.stats().count() << "\n";
        }
    }
}

}  // namespace reactive::audit
