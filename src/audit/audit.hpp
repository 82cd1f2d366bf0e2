/**
 * @file
 * Decision audit: online counterfactual-regret accounting.
 *
 * The paper's headline claim is competitiveness — the reactive
 * algorithm stays within a constant factor of the best static protocol
 * choice. The trace layer (src/trace/) records *what* was decided; this
 * layer accounts *what the decisions cost* relative to the calibrated
 * policy's own best alternative: at every consensus point where a
 * policy holds per-protocol cost estimates, the realized episode or
 * acquisition cost minus the estimator's cheapest-alternative estimate
 * is accumulated per object as counterfactual regret.
 *
 * Safety argument (same as the barrier's traffic-free monitoring and
 * the trace layer's in-consensus emission discipline): regret is
 * recorded only by the process in consensus on the object (lock
 * holder, barrier completer), reuses cost samples and timestamps the
 * caller already took, and touches only host memory — never a
 * simulated memory operation, never a policy input. A sim run with audit off is byte-identical to one
 * that never compiled this header (proven in-binary by
 * tests/test_audit.cpp and the CI trace job's cmp step).
 *
 * Counterfactual validity (see DESIGN.md): regret compares the
 * *realized* cost under the protocol actually run against the
 * estimator's EWMA for the alternatives. Both are acquisition/episode
 * latencies in platform cycles measured at the same consensus points,
 * so the difference is sound per class; it is NOT sound to compare
 * regret across classes (lock acquisitions vs barrier episodes) or to
 * read it as the clairvoyant gap — the estimator's alternative is
 * itself a lagging estimate. The clairvoyant account lives in the
 * offline oracle replay (src/audit/oracle.hpp, bench/fig_regret.cpp).
 *
 * Concurrency: one fixed open-addressed table of per-object cells.
 * A cell is claimed once by CAS and thereafter has a single writer at
 * a time (the process in consensus; handoffs are ordered by the
 * primitive's own synchronization), so updates use the same relaxed
 * load+store idiom as the TraceRing counter shards. snapshot() may run
 * concurrently from any thread and is TSan-clean; like any monitoring
 * read it may observe a torn multi-counter view (sample counts and
 * cycle totals from adjacent instants), never torn words.
 */
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "trace/trace.hpp"

namespace reactive::audit {

/// Audit rides the trace layer's compile-time gate: no trace, no audit.
inline constexpr bool kCompiled = trace::kCompiled;

/// Per-object regret account (snapshot form).
struct ObjectRegret {
    std::uint32_t object = 0;  ///< trace object id (trace::new_object)
    trace::ObjectClass cls = trace::ObjectClass::kNone;
    std::uint64_t samples = 0;   ///< consensus points accounted
    std::uint64_t realized = 0;  ///< Σ realized cost, cycles
    std::uint64_t best = 0;      ///< Σ best-alternative estimate, cycles
    std::uint64_t regret = 0;    ///< Σ max(0, realized - best), cycles
};

/// Per-class rollup (exact, drop-immune — unlike the trace ring's
/// delivered-event view these counters never wrap).
struct ClassRegret {
    std::uint64_t samples = 0;
    std::uint64_t realized = 0;
    std::uint64_t best = 0;
    std::uint64_t regret = 0;
    std::uint64_t overflow_objects = 0;  ///< objects folded into the
                                         ///< class row (table full)
};

/// Process-wide audit snapshot: per-class totals plus the per-object
/// accounts sorted by regret (worst offender first).
struct Snapshot {
    std::array<ClassRegret, trace::kClassCount> classes{};
    std::vector<ObjectRegret> objects;  ///< regret-descending

    std::uint64_t total_samples() const
    {
        std::uint64_t n = 0;
        for (const auto& c : classes)
            n += c.samples;
        return n;
    }
    std::uint64_t total_regret() const
    {
        std::uint64_t n = 0;
        for (const auto& c : classes)
            n += c.regret;
        return n;
    }
    std::uint64_t total_realized() const
    {
        std::uint64_t n = 0;
        for (const auto& c : classes)
            n += c.realized;
        return n;
    }
};

namespace detail {

/// Fixed cell count; sweeps here run thousands of objects at most, and
/// overflow degrades to exact per-class accounting, never data loss.
inline constexpr std::size_t kTableSize = 1024;

struct ObjectCell {
    std::atomic<std::uint32_t> object{0};  ///< 0 = free; CAS-claimed
    std::atomic<std::uint8_t> cls{0};
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> realized{0};
    std::atomic<std::uint64_t> best{0};
    std::atomic<std::uint64_t> regret{0};
};

struct Table {
    std::array<ObjectCell, kTableSize> cells{};
    /// Objects that found the table full: accounted per class only.
    std::array<std::atomic<std::uint64_t>, trace::kClassCount>
        overflow_samples{};
    std::array<std::atomic<std::uint64_t>, trace::kClassCount>
        overflow_realized{};
    std::array<std::atomic<std::uint64_t>, trace::kClassCount>
        overflow_best{};
    std::array<std::atomic<std::uint64_t>, trace::kClassCount>
        overflow_regret{};
    std::array<std::atomic<std::uint64_t>, trace::kClassCount>
        overflow_objects{};

    static Table& instance()
    {
        static Table t;
        return t;
    }
};

/// Single-writer bump (writer is the process in consensus on the cell's
/// object; see file comment). Readers tolerate cross-counter tearing.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t by)
{
    c.store(c.load(std::memory_order_relaxed) + by,
            std::memory_order_relaxed);
}

/// Finds (or claims) the cell for @p object. Returns nullptr when the
/// probe window is exhausted — caller falls back to overflow counters.
inline ObjectCell* find_cell(std::uint32_t object, trace::ObjectClass cls)
{
    Table& t = Table::instance();
    const std::size_t mask = kTableSize - 1;
    std::size_t idx = (object * 0x9e3779b9u) & mask;
    for (std::size_t probe = 0; probe < kTableSize; ++probe) {
        ObjectCell& cell = t.cells[idx];
        std::uint32_t cur = cell.object.load(std::memory_order_acquire);
        if (cur == object)
            return &cell;
        if (cur == 0) {
            if (cell.object.compare_exchange_strong(
                    cur, object, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                cell.cls.store(static_cast<std::uint8_t>(cls),
                               std::memory_order_relaxed);
                return &cell;
            }
            if (cur == object)
                return &cell;  // lost the race to ourselves (reentry)
        }
        idx = (idx + 1) & mask;
    }
    return nullptr;
}

}  // namespace detail

/**
 * Accounts one consensus point: @p realized cost against the policy's
 * @p best alternative estimate (both platform cycles). Returns the
 * clamped regret max(0, realized - best) so the caller can also emit
 * it as a kRegret trace event. Call only from consensus (and, by
 * convention, only inside `if (trace::enabled())` blocks, which keeps
 * the audit-off schedule untouched).
 */
inline std::uint64_t record(trace::ObjectClass cls, std::uint32_t object,
                            std::uint64_t realized, std::uint64_t best)
{
    const std::uint64_t regret = realized > best ? realized - best : 0;
    if constexpr (!kCompiled)
        return regret;
    detail::Table& t = detail::Table::instance();
    const auto c = static_cast<std::size_t>(cls) % trace::kClassCount;
    if (detail::ObjectCell* cell = detail::find_cell(object, cls)) {
        detail::bump(cell->samples, 1);
        detail::bump(cell->realized, realized);
        detail::bump(cell->best, best);
        detail::bump(cell->regret, regret);
    } else {
        // Table full: exact class totals still hold, object resolution
        // is lost. fetch_add — overflow has no single-writer guarantee.
        t.overflow_samples[c].fetch_add(1, std::memory_order_relaxed);
        t.overflow_realized[c].fetch_add(realized,
                                         std::memory_order_relaxed);
        t.overflow_best[c].fetch_add(best, std::memory_order_relaxed);
        t.overflow_regret[c].fetch_add(regret, std::memory_order_relaxed);
        t.overflow_objects[c].fetch_add(1, std::memory_order_relaxed);
    }
    return regret;
}

/// Zeroes every account. Quiesced-only (tests), like trace::reset().
inline void reset()
{
    if constexpr (!kCompiled)
        return;
    detail::Table& t = detail::Table::instance();
    for (auto& cell : t.cells) {
        cell.object.store(0, std::memory_order_relaxed);
        cell.cls.store(0, std::memory_order_relaxed);
        cell.samples.store(0, std::memory_order_relaxed);
        cell.realized.store(0, std::memory_order_relaxed);
        cell.best.store(0, std::memory_order_relaxed);
        cell.regret.store(0, std::memory_order_relaxed);
    }
    for (std::size_t c = 0; c < trace::kClassCount; ++c) {
        t.overflow_samples[c].store(0, std::memory_order_relaxed);
        t.overflow_realized[c].store(0, std::memory_order_relaxed);
        t.overflow_best[c].store(0, std::memory_order_relaxed);
        t.overflow_regret[c].store(0, std::memory_order_relaxed);
        t.overflow_objects[c].store(0, std::memory_order_relaxed);
    }
}

/// Reads the whole account. Safe concurrently with writers (relaxed
/// monitoring read — see file comment on tearing).
inline Snapshot snapshot()
{
    Snapshot s;
    if constexpr (!kCompiled)
        return s;
    detail::Table& t = detail::Table::instance();
    for (const auto& cell : t.cells) {
        const std::uint32_t obj =
            cell.object.load(std::memory_order_acquire);
        if (obj == 0)
            continue;
        ObjectRegret r;
        r.object = obj;
        r.cls = static_cast<trace::ObjectClass>(
            cell.cls.load(std::memory_order_relaxed) %
            trace::kClassCount);
        r.samples = cell.samples.load(std::memory_order_relaxed);
        r.realized = cell.realized.load(std::memory_order_relaxed);
        r.best = cell.best.load(std::memory_order_relaxed);
        r.regret = cell.regret.load(std::memory_order_relaxed);
        if (r.samples == 0)
            continue;  // claimed but not yet accounted
        auto& row = s.classes[static_cast<std::size_t>(r.cls)];
        row.samples += r.samples;
        row.realized += r.realized;
        row.best += r.best;
        row.regret += r.regret;
        s.objects.push_back(r);
    }
    for (std::size_t c = 0; c < trace::kClassCount; ++c) {
        s.classes[c].samples +=
            t.overflow_samples[c].load(std::memory_order_relaxed);
        s.classes[c].realized +=
            t.overflow_realized[c].load(std::memory_order_relaxed);
        s.classes[c].best +=
            t.overflow_best[c].load(std::memory_order_relaxed);
        s.classes[c].regret +=
            t.overflow_regret[c].load(std::memory_order_relaxed);
        s.classes[c].overflow_objects +=
            t.overflow_objects[c].load(std::memory_order_relaxed);
    }
    std::sort(s.objects.begin(), s.objects.end(),
              [](const ObjectRegret& a, const ObjectRegret& b) {
                  if (a.regret != b.regret)
                      return a.regret > b.regret;
                  return a.object < b.object;
              });
    return s;
}

namespace detail {
inline std::uint64_t to_cycles(double v)
{
    if (v <= 0)
        return 0;
    if (v >= 18446744073709549568.0)
        return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(v);
}
}  // namespace detail

/**
 * The policy's cheapest-alternative estimate at this consensus point,
 * in cycles — the counterfactual baseline for record(). Mirrors
 * trace::estimator_pair's dispatch: calibrated binary policies expose
 * a CostEstimator (tts/queue EWMAs), ladder policies expose per-rung
 * latencies with a measured() validity bit. Returns nullopt for
 * policies without estimates (static / uncalibrated) — no estimate, no
 * counterfactual, no regret sample.
 */
template <typename Select>
std::optional<std::uint64_t> best_alternative(const Select& s,
                                              std::uint32_t protocols)
{
    if constexpr (requires(const Select& q) {
                      q.estimator().tts_latency();
                      q.estimator().queue_latency();
                  }) {
        (void)protocols;
        const std::uint64_t a =
            detail::to_cycles(s.estimator().tts_latency());
        const std::uint64_t b =
            detail::to_cycles(s.estimator().queue_latency());
        return std::min(a, b);
    } else if constexpr (requires(const Select& q) {
                             q.latency(std::uint32_t{0});
                             q.measured(std::uint32_t{0});
                         }) {
        std::optional<std::uint64_t> min;
        for (std::uint32_t j = 0; j < protocols; ++j) {
            if (!s.measured(j))
                continue;
            const std::uint64_t v = detail::to_cycles(s.latency(j));
            if (!min || v < *min)
                min = v;
        }
        return min;
    } else {
        (void)s;
        (void)protocols;
        return std::nullopt;
    }
}

}  // namespace reactive::audit

namespace reactive {

/// Process-wide decision-audit introspection: per-class and per-object
/// counterfactual-regret accounts since start (or audit::reset()).
inline audit::Snapshot audit_snapshot()
{
    return audit::snapshot();
}

}  // namespace reactive
