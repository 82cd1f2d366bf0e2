/**
 * @file
 * Trace exporters: Chrome trace-event JSON and the switch-audit dump.
 *
 * capture() drains every ring into one time-sorted event list plus a
 * merged MetricsRegistry; write_chrome_json() emits the Chrome
 * trace-event format (loadable in Perfetto / chrome://tracing — every
 * decision is an instant event whose tid is the recording ring, with
 * the decoded payload in args), and write_switch_audit() emits the
 * compact one-line-per-switch text form the audit tests diff against
 * policy ground truth. Timestamps are platform cycles, not wall time;
 * the JSON says so in otherData.time_unit.
 *
 * Payload conventions (shared with the instrumentation sites):
 *   kSwitch     a0 = (signal.protocol << 8) | (drift + 1)
 *               a1 = (estimator latency A << 32) | estimator latency B
 *                    (A/B: tts/queue for locks, simple/queue for rw,
 *                     from-rung/to-rung for ladder barriers; 0 = none)
 *               a2 = measured switch duration, cycles (0 = unmeasured)
 *   kProbeBegin a0 = probes started so far
 *   kProbeEnd   a0 = outcome (1 adopted, 0 rejected, 2 unknown)
 *   kAcqSample  a0 = acquisition latency, a1 = packed signal as above
 *   kEpisode    a0 = episode cost sample, a1 = arrivals m
 *   kCohort*    a0 = cohort passes at the edge
 *   kRegret     a0 = realized cost, a1 = estimator's best-alternative
 *               cost, a2 = regret (max(0, a0 - a1)); from = protocol
 *               that paid, to = policy's next protocol
 *   kPark       a0 = wait cycles, a1 = measured wake latency (0 = not
 *               chained to a stamped release); from = WaitMode waited
 *               under (waiter-local, emitted after the wait ends)
 *   kWake       a0 = advisory parked-waiter count of the woken lane,
 *               a1 = the lane (0 = group lane, 1..15 = queue lanes)
 *   kWaitModeSwitch
 *               from/to = old/new WaitMode; a0 = (releases since the
 *               last deschedule report << 32) | packed new hint
 *               (wait_select.hpp layout). The high half is >= 1 for
 *               a gated policy (it counts its own release; 0xffffffff =
 *               no report yet) and 0 for a policy without the gate,
 *               a1 = (hold EWMA << 32) | (block-cost EWMA & 0xffffffff),
 *               a2 = expected wait — the estimator snapshot behind the
 *               decision
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace reactive::trace {

struct CapturedEvent {
    Event e;
    std::uint32_t ring = 0;
    std::uint64_t index = 0;  ///< publish order within the ring
};

struct Capture {
    std::vector<CapturedEvent> events;  ///< time-sorted, ties in ring order
    MetricsRegistry metrics;            ///< counters cumulative over drains
    std::uint64_t total_dropped = 0;
};

/// Drains all rings (consuming their unread events) into one capture.
inline Capture capture()
{
    Capture cap;
    if constexpr (!kCompiled)
        return cap;
    detail::Registry::instance().for_each_ring([&](TraceRing& r) {
        cap.metrics.merge_shard(r);
        cap.total_dropped += r.total_drops();
        std::uint64_t idx = 0;
        r.drain([&](const Event& e) {
            cap.metrics.observe(e);
            cap.events.push_back(CapturedEvent{e, r.id(), idx++});
        });
    });
    std::stable_sort(cap.events.begin(), cap.events.end(),
                     [](const CapturedEvent& a, const CapturedEvent& b) {
                         return a.e.ts < b.e.ts;
                     });
    return cap;
}

/// Chrome trace-event / Perfetto-loadable JSON.
inline void write_chrome_json(std::ostream& os, const Capture& cap)
{
    os << "{\n\"traceEvents\": [\n";
    bool first = true;
    for (const CapturedEvent& ce : cap.events) {
        const Event& e = ce.e;
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\": \"" << type_name(e.type) << "\", \"cat\": \""
           << class_name(e.cls) << "\", \"ph\": \"i\", \"s\": \"t\", "
           << "\"pid\": 1, \"tid\": " << ce.ring << ", \"ts\": " << e.ts
           << ", \"args\": {\"object\": " << e.object
           << ", \"from\": " << static_cast<unsigned>(e.from)
           << ", \"to\": " << static_cast<unsigned>(e.to);
        switch (e.type) {
        case EventType::kSwitch:
            os << ", \"signal_protocol\": " << (e.a0 >> 8)
               << ", \"drift\": " << (static_cast<int>(e.a0 & 0xff) - 1)
               << ", \"est_a\": " << (e.a1 >> 32)
               << ", \"est_b\": " << (e.a1 & 0xffffffffu)
               << ", \"duration\": " << e.a2;
            break;
        case EventType::kAcqSample:
            os << ", \"cycles\": " << e.a0
               << ", \"signal_protocol\": " << (e.a1 >> 8)
               << ", \"drift\": " << (static_cast<int>(e.a1 & 0xff) - 1);
            break;
        case EventType::kEpisode:
            os << ", \"cost\": " << e.a0 << ", \"arrivals\": " << e.a1;
            break;
        case EventType::kProbeBegin:
        case EventType::kProbeEnd:
            os << ", \"outcome\": " << e.a0 << ", \"probes\": " << e.a1;
            break;
        case EventType::kRegret:
            os << ", \"realized\": " << e.a0 << ", \"best\": " << e.a1
               << ", \"regret\": " << e.a2;
            break;
        case EventType::kPark:
            os << ", \"wait_cycles\": " << e.a0
               << ", \"wake_latency\": " << e.a1;
            break;
        case EventType::kWake:
            os << ", \"woken\": " << e.a0 << ", \"lane\": " << e.a1;
            break;
        case EventType::kWaitModeSwitch:
            os << ", \"hint\": " << (e.a0 & 0xffffffffu)
               << ", \"since_deschedule\": " << (e.a0 >> 32)
               << ", \"hold_est\": " << (e.a1 >> 32)
               << ", \"block_est\": " << (e.a1 & 0xffffffffu)
               << ", \"expected_wait\": " << e.a2;
            break;
        default:
            os << ", \"a0\": " << e.a0;
            break;
        }
        os << "}}";
    }
    os << "\n],\n";
    os << "\"otherData\": {\"time_unit\": \"cycles\", \"dropped_total\": \""
       << cap.total_dropped << "\", \"event_count\": \""
       << cap.events.size() << "\", \"dropped_by_class\": {";
    bool firstd = true;
    for (std::size_t c = 1; c < kClassCount; ++c) {
        const auto cls = static_cast<ObjectClass>(c);
        if (!firstd)
            os << ", ";
        firstd = false;
        os << "\"" << class_name(cls) << "\": \""
           << cap.metrics.row(cls).dropped << "\"";
    }
    os << "}},\n";
    os << "\"reactiveMetrics\": {";
    bool firstc = true;
    for (std::size_t c = 1; c < kClassCount; ++c) {
        const auto cls = static_cast<ObjectClass>(c);
        const auto& r = cap.metrics.row(cls);
        if (!firstc)
            os << ", ";
        firstc = false;
        os << "\"" << class_name(cls) << "\": {\"acquisitions\": "
           << r.counters[0] << ", \"fast_path_wins\": " << r.counters[1]
           << ", \"switches\": " << r.counters[2]
           << ", \"probes_started\": " << r.counters[3]
           << ", \"probes_won\": " << r.counters[4]
           << ", \"probes_lost\": " << r.counters[5]
           << ", \"episodes\": " << r.counters[6]
           << ", \"handoffs\": " << r.counters[7]
           << ", \"aborts\": " << r.counters[8]
           << ", \"regret_samples\": " << r.counters[9]
           << ", \"parks\": " << r.counters[10]
           << ", \"wakes\": " << r.counters[11]
           << ", \"wait_mode_switches\": " << r.counters[12]
           << ", \"regret_cycles\": " << r.regret_cycles
           << ", \"regret_realized\": " << r.regret_realized
           << ", \"regret_best\": " << r.regret_best
           << ", \"dropped\": " << r.dropped << "}";
    }
    os << "},\n\"displayTimeUnit\": \"ms\"\n}\n";
}

/// Compact switch-audit dump: one line per protocol change, in time
/// order — the replayable decision record the audit tests diff.
/// Footer lines are `#`-prefixed comments (percentile summaries per
/// class, and a drop summary whenever any ring lost events) so line
/// diffs against policy ground truth can filter on the `t=` prefix.
inline void write_switch_audit(std::ostream& os, const Capture& cap)
{
    for (const CapturedEvent& ce : cap.events) {
        const Event& e = ce.e;
        if (e.type != EventType::kSwitch)
            continue;
        os << "t=" << e.ts << " obj=" << e.object << " "
           << class_name(e.cls) << " " << static_cast<unsigned>(e.from)
           << "->" << static_cast<unsigned>(e.to)
           << " sig=" << (e.a0 >> 8)
           << " drift=" << (static_cast<int>(e.a0 & 0xff) - 1)
           << " est=" << (e.a1 >> 32) << "/" << (e.a1 & 0xffffffffu)
           << " dur=" << e.a2 << "\n";
    }
    for (std::size_t c = 1; c < kClassCount; ++c) {
        const auto cls = static_cast<ObjectClass>(c);
        const auto& r = cap.metrics.row(cls);
        if (r.latency.stats().count() > 0)
            os << "# " << class_name(cls)
               << " latency p50=" << r.latency.percentile(0.50)
               << " p90=" << r.latency.percentile(0.90)
               << " p99=" << r.latency.percentile(0.99) << " (cycles, "
               << r.latency.stats().count() << " delivered samples)\n";
        if (r.counters[9] > 0)
            os << "# " << class_name(cls) << " regret samples="
               << r.counters[9] << " cycles=" << r.regret_cycles
               << " realized=" << r.regret_realized
               << " best=" << r.regret_best << "\n";
    }
    if (cap.total_dropped > 0) {
        os << "# dropped " << cap.total_dropped << " events:";
        for (std::size_t c = 1; c < kClassCount; ++c) {
            const auto cls = static_cast<ObjectClass>(c);
            if (cap.metrics.row(cls).dropped > 0)
                os << " " << class_name(cls) << "="
                   << cap.metrics.row(cls).dropped;
        }
        os << " (timeline is incomplete)\n";
    }
}

/**
 * Drains everything and writes the Chrome JSON to @p json_path (and,
 * when non-empty, the switch audit to @p audit_path). With tracing
 * compiled out this still writes a valid empty trace, so `--trace` on
 * an untraced build produces a parseable artifact rather than nothing.
 * Returns false on I/O failure.
 */
inline bool drain_to_json(const std::string& json_path,
                          const std::string& audit_path = "")
{
    Capture cap = capture();
    std::ofstream out(json_path);
    if (!out)
        return false;
    write_chrome_json(out, cap);
    if (!out)
        return false;
    if (!audit_path.empty()) {
        std::ofstream audit(audit_path);
        if (!audit)
            return false;
        write_switch_audit(audit, cap);
        if (!audit)
            return false;
    }
    return true;
}

}  // namespace reactive::trace
