/**
 * @file
 * bench_e2e: the end-to-end benchmark of the reactive mutex, rwlock and
 * barrier.
 *
 *   bench_e2e --workload=<name> --seed=<n> [--seconds=<s>] [--trace=<file>]
 *   bench_e2e --smoke        all four workloads, small, in a few seconds
 *   bench_e2e --self-test    the checks must catch a lock that does not
 *                            exclude (exits 1 when they do)
 *
 * A run has a native half (T = min(3, nproc - 1) pinned worker threads
 * on real hardware, trials of 0.5 s, each on a fresh object after a
 * fixed warm-up) and a simulated half (the same operation pattern on a
 * 16-processor sim::Machine, fixed operation counts, exactly repeatable
 * for a seed). It prints one `name value unit` line per end-to-end
 * metric and, as its last line, one JSON object with the same metrics.
 * `--trace` runs the traced variant instead: per-layer metrics, layer
 * self times and a Chrome trace-event file. Every failed correctness
 * check makes the exit code nonzero.
 *
 * See bench/e2e/README.md for the metric dictionary.
 */
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "histogram.hpp"
#include "host.hpp"
#include "pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

// ---- run shape -------------------------------------------------------------

struct RunShape {
    unsigned trials = 20;
    double trial_s = 0.5;
    std::uint32_t rw_phases = 2;             ///< per trial
    std::uint32_t rw_phase_ops = kPhaseOps;  ///< per thread
    std::uint32_t barrier_episodes = 40000;  ///< per trial
    std::uint32_t warm_mutex = 20000;        ///< per thread, per trial
    std::uint32_t warm_rw = 2000;
    std::uint32_t warm_barrier = 1000;
    unsigned solo_reps = 3;  ///< before every trial
    unsigned solo_calls = 20000;
    unsigned sim_divisor = 1;  ///< shortens the simulated runs

    static RunShape for_seconds(double seconds)
    {
        RunShape s;
        s.trials = static_cast<unsigned>(
            std::max(1.0, std::round(seconds / s.trial_s)));
        return s;
    }

    static RunShape smoke()
    {
        RunShape s;
        s.trials = 2;
        s.trial_s = 0.05;
        s.rw_phase_ops = kPhaseOps / 10;
        s.barrier_episodes = 2 * kBarrierBlock;
        s.warm_mutex = 2000;
        s.warm_rw = 200;
        s.warm_barrier = 100;
        s.solo_calls = 5000;
        s.sim_divisor = 4;
        return s;
    }
};

/// Trials of the traced run: this many untraced and this many traced,
/// alternating, so the overhead ratio compares neighbours.
constexpr unsigned kTracedTrials = 4;
/// Full spans kept per thread (a 1-in-64 sample of operations).
constexpr std::size_t kSampledOpsPerThread = 8192;

// ---- output ------------------------------------------------------------

std::string num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void print_metrics(const std::vector<Metric>& ms)
{
    for (const Metric& m : ms)
        std::printf("%s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                    m.unit.c_str());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& ms)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i != 0)
            s += ", ";
        s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
             ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

double per_kop(double n, double ops) { return ops > 0 ? 1000.0 * n / ops : 0; }
double ratio(double n, double d) { return d > 0 ? n / d : 0; }

// ---- native half ---------------------------------------------------------

/// Everything the native half sets up once per run.
struct Native {
    TickClock clk;
    std::vector<int> cpus;
    unsigned threads = 1;
    std::unique_ptr<Pool> pool;
    std::vector<std::unique_ptr<ThreadStats>> stats;
    std::vector<std::unique_ptr<SpanLog>> span_logs;  ///< traced runs
    double setup_s = 0;  ///< calibration, pool spawn and pin

    Native()
    {
        const auto t0 = Clock::now();
        clk = TickClock::calibrate();
        cpus = allowed_cpus();
        const unsigned n = static_cast<unsigned>(cpus.size());
        // One CPU stays free for the OS and the timing thread; a host
        // with fewer than three CPUs still gets two contenders.
        threads = std::min(n, std::max(2u, std::min(3u, n - 1)));
        pool = std::make_unique<Pool>(threads, cpus);
        for (unsigned t = 0; t < threads; ++t)
            stats.push_back(std::make_unique<ThreadStats>());
        setup_s = seconds_since(t0);
    }
};

/// One trial, summed over the workers.
struct Trial {
    double ops_per_s = 0;
    double p50_ns = 0;
    double p99_ns = 0;
    std::uint64_t samples = 0;
    std::uint64_t ops = 0;    ///< operations (barrier: episodes)
    std::uint64_t calls = 0;  ///< per-thread calls (barrier: T x episodes)
    std::uint64_t attempted = 0;
    std::uint64_t fails = 0;
    std::uint64_t protocol_changes = 0;
    double setup_s = 0;  ///< fresh object, warm-up, gate
    double warmup_s = 0;
};

/// Everything the traced trials add up.
struct TracedTotals {
    SpanStats spans{};
    std::uint64_t ops = 0, calls = 0, protocol_changes = 0;
    std::uint64_t alt_protocol_ops = 0, park_hint_ops = 0, hint_changes = 0;
    std::uint64_t slow_acquires = 0;
    ThreadUsage usage;
    std::vector<std::uint64_t> switch_lags;
    std::vector<std::uint64_t> completer_ticks, release_lag_ticks;

    void add(const Trial& t, const std::vector<std::unique_ptr<ThreadStats>>& st)
    {
        ops += t.ops;
        calls += t.calls;
        protocol_changes += t.protocol_changes;
        for (const auto& s : st) {
            merge_stats(spans, s->spans->stats());
            alt_protocol_ops += s->alt_protocol_ops;
            park_hint_ops += s->park_hint_ops;
            hint_changes += s->hint_changes;
            slow_acquires += s->slow_acquires;
            usage += s->usage;
            switch_lags.insert(switch_lags.end(), s->switch_lags.begin(),
                               s->switch_lags.end());
        }
        // Barrier episodes: the completer is the last participant to
        // enter; release lag runs from its entry to each return.
        const std::size_t episodes = st[0]->episodes.size();
        for (std::size_t e = 0; e < episodes; ++e) {
            std::size_t last = 0;
            for (std::size_t p = 1; p < st.size(); ++p)
                if (st[p]->episodes[e][0] > st[last]->episodes[e][0])
                    last = p;
            const auto& c = st[last]->episodes[e];
            completer_ticks.push_back(c[1] - c[0]);
            for (const auto& s : st) {
                const std::uint64_t out = s->episodes[e][1];
                release_lag_ticks.push_back(out > c[0] ? out - c[0] : 0);
            }
        }
    }
};

/// What one worker of a trial is handed.
struct WorkerArgs {
    const RunShape& shape;
    const ThreadPlan& plan;
    unsigned tid;
    unsigned threads;
    Gate& gate;
    ThreadStats& st;
    const TraceKnobs& knobs;
};

/// What the workers of a trial counted, for the final checks.
struct TrialCounts {
    std::uint64_t fails = 0;     ///< failed checks seen by the workers
    std::uint64_t sections = 0;  ///< lock sections, warm-up included
    std::uint64_t writes = 0;    ///< rw write sections, warm-up included
    std::uint64_t episodes = 0;  ///< barrier episodes, warm-up included
};

template <class T>
std::uint64_t protocol_changes_of(T& obj)
{
    if constexpr (requires { reactive_of(obj).protocol_changes(); })
        return reactive_of(obj).protocol_changes();
    else
        return 0;
}

/// The objects and data of one trial: built fresh for every trial, run
/// by every worker, and checked once the workers are done.
template <class M>
struct MutexWorld {
    M m;
    CounterPair<NativePlatform> data;

    explicit MutexWorld(unsigned) {}
    std::uint64_t protocol_changes() { return protocol_changes_of(m); }

    template <bool kTraced>
    void work(const WorkerArgs& a)
    {
        mutex_worker<kTraced>(m, data, a.plan, a.shape.warm_mutex, a.gate,
                              a.st, a.knobs);
    }

    /// Failed operations: a check failed or an increment was lost.
    std::uint64_t failed(const TrialCounts& c) const
    {
        return std::max(c.fails, data.lost(c.sections));
    }
};

template <class L>
struct RwWorld {
    L l;
    Record<NativePlatform> rec;
    PhaseGate pg;

    explicit RwWorld(unsigned) {}
    std::uint64_t protocol_changes() { return protocol_changes_of(l); }

    template <bool kTraced>
    void work(const WorkerArgs& a)
    {
        rw_worker<kTraced>(l, rec, pg, a.plan, a.threads, a.shape.warm_rw,
                           a.shape.rw_phases, a.shape.rw_phase_ops, a.gate,
                           a.st);
    }

    /// Failed operations: a reader saw a torn record, or the final
    /// record does not count every write.
    std::uint64_t failed(const TrialCounts& c) const
    {
        return std::max(c.fails, rec.mismatches(c.writes));
    }
};

template <class B>
struct BarrierWorld {
    B bar;
    std::vector<EpisodeCounter> cnt;

    explicit BarrierWorld(unsigned threads) : bar(threads), cnt(threads) {}
    std::uint64_t protocol_changes() { return protocol_changes_of(bar); }

    template <bool kTraced>
    void work(const WorkerArgs& a)
    {
        barrier_worker<kTraced>(bar, cnt, a.plan, a.tid, a.shape.warm_barrier,
                                a.shape.barrier_episodes, a.gate, a.st);
    }

    /// Failed episode checks, plus participants that did not finish
    /// every episode.
    std::uint64_t failed(const TrialCounts& c) const
    {
        std::uint64_t bad = c.fails;
        for (const auto& e : cnt)
            bad += e.v.load() != c.episodes;
        return bad;
    }
};

/// Runs one trial of workload @p w on a fresh World.
template <bool kTraced, class World>
Trial run_trial(Native& nat, const Workload& w, const RunShape& shape,
                const std::vector<ThreadPlan>& plans, const TraceKnobs& knobs,
                std::uint64_t seed)
{
    const unsigned nt = nat.threads;
    const auto t0 = Clock::now();
    auto world = std::make_unique<World>(nt);
    Gate gate;
    for (unsigned t = 0; t < nt; ++t) {
        ThreadStats& st = *nat.stats[t];
        st.reset();
        if constexpr (kTraced) {
            if (st.spans == nullptr) {
                nat.span_logs.push_back(std::make_unique<SpanLog>(
                    derive(seed, 500 + t), t, kSampledOpsPerThread));
                st.spans = nat.span_logs.back().get();
            }
            if (w.kind == Kind::kBarrier)
                st.episodes.resize(shape.barrier_episodes);
        }
    }
    nat.pool->start([&](unsigned t) {
        world->template work<kTraced>(
            WorkerArgs{shape, plans[t], t, nt, gate, *nat.stats[t], knobs});
    });
    // Warm-ups done: the measured window opens here.
    while (gate.ready.load(std::memory_order_acquire) < nt) {
        if (seconds_since(t0) > 60) {
            std::fprintf(stderr, "bench_e2e: watchdog: warm-up stuck\n");
            std::_Exit(3);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    Trial tr;
    tr.setup_s = seconds_since(t0);
    const std::uint64_t changes0 = world->protocol_changes();
    const std::uint64_t go = ticks();
    gate.go.store(true, std::memory_order_release);
    if (w.kind == Kind::kMutex) {
        std::this_thread::sleep_for(std::chrono::duration<double>(shape.trial_s));
        gate.stop.store(true, std::memory_order_relaxed);
    }
    nat.pool->wait();

    std::uint64_t end = go;
    std::uint64_t warm = 0;
    TrialCounts counts;
    Histogram lat;
    for (const auto& st : nat.stats) {
        end = std::max(end, st->finish);
        lat.merge(st->lat);
        tr.calls += st->ops;
        counts.fails += st->fails;
        counts.writes += st->writes;
        warm += st->warm_ops;
        tr.warmup_s = std::max(tr.warmup_s, st->warmup_s);
    }
    // A barrier operation is one episode, which every participant calls.
    const bool episodes = w.kind == Kind::kBarrier;
    tr.ops = episodes ? nat.stats[0]->ops : tr.calls;
    tr.attempted = tr.ops + (episodes ? warm / nt : warm);
    counts.sections = tr.calls + warm;
    counts.episodes = tr.attempted;
    tr.fails = world->failed(counts);
    tr.protocol_changes = world->protocol_changes() - changes0;
    const double window_ns = nat.clk.to_ns(static_cast<double>(end - go));
    tr.ops_per_s = window_ns > 0 ? tr.ops * 1e9 / window_ns : 0;
    tr.p50_ns = nat.clk.to_ns(lat.percentile(0.50));
    tr.p99_ns = nat.clk.to_ns(lat.percentile(0.99));
    tr.samples = lat.count();
    return tr;
}

/// Runs @p fn on pinned worker 0 alone and returns its result. Solo
/// figures and the simulated half run there: pinned, and away from the
/// first CPU, which takes most of the host's interrupts.
template <class Fn>
auto on_worker0(Native& nat, Fn&& fn)
{
    using R = std::invoke_result_t<Fn&>;
    if constexpr (std::is_void_v<R>) {
        nat.pool->run(
            [&](unsigned t) {
                if (t == 0)
                    fn();
            },
            Pool::kNoWatchdog);
    } else {
        R r{};
        nat.pool->run(
            [&](unsigned t) {
                if (t == 0)
                    r = fn();
            },
            Pool::kNoWatchdog);
        return r;
    }
}

/// Median over reps of the mean cost of @p n back-to-back calls, in ns.
template <class Fn>
double solo_ns(const Native& nat, const RunShape& shape, Fn&& fn)
{
    std::vector<double> per_call;
    for (unsigned r = 0; r < shape.solo_reps; ++r) {
        const std::uint64_t t0 = ticks();
        for (unsigned i = 0; i < shape.solo_calls; ++i)
            fn();
        const std::uint64_t t1 = ticks();
        per_call.push_back(nat.clk.to_ns(static_cast<double>(t1 - t0)) /
                           shape.solo_calls);
    }
    return median(per_call);
}

template <class L>
double solo_exclusive(const Native& nat, const RunShape& shape)
{
    L l;
    std::uint64_t marks[2];
    return solo_ns(nat, shape,
                   [&] { exclusive<false, NativeClock>(l, [] {}, marks); });
}

template <bool kWrite, class L>
double solo_rw(const Native& nat, const RunShape& shape)
{
    L l;
    std::uint64_t marks[2];
    return solo_ns(nat, shape, [&] {
        rw_section<kWrite, false, NativeClock>(l, [] {}, marks);
    });
}

template <class B>
double solo_barrier(const Native& nat, const RunShape& shape)
{
    B bar(1);
    typename B::Node node{};
    return solo_ns(nat, shape, [&] { bar.arrive(node); });
}

/// Uncontended cost of the workload's own object: one acquire/release
/// pair (rw: the mean of a read and a write pair; barrier: one episode
/// of a one-participant barrier).
double solo_op_ns(Native& nat, const Workload& w, const RunShape& shape)
{
    double v = 0;
    on_worker0(nat, [&] {
        switch (w.kind) {
        case Kind::kMutex:
            v = solo_exclusive<Mutex<NativePlatform>>(nat, shape);
            break;
        case Kind::kRw:
            v = 0.5 * (solo_rw<false, RwLock<NativePlatform>>(nat, shape) +
                       solo_rw<true, RwLock<NativePlatform>>(nat, shape));
            break;
        case Kind::kBarrier:
            v = solo_barrier<Barrier<NativePlatform>>(nat, shape);
            break;
        }
    });
    return v;
}

/// Solo figures of the traced run: every reactive object, per call, and
/// every static base protocol, per pair.
struct SoloLedger {
    SpanStats spans{};  ///< per-call solo spans of the reactive objects
    double mutex = 0, tts = 0, mcs = 0;
    double rw_read = 0, rw_write = 0, simple_read = 0, simple_write = 0,
           queue_read = 0, queue_write = 0;
    double barrier = 0, central = 0, tree = 0;
};

SoloLedger solo_ledger(Native& nat, RunShape shape)
{
    shape.solo_reps *= 5;
    SoloLedger s;
    on_worker0(nat, [&] {
        using N = NativePlatform;
        s.mutex = solo_exclusive<Mutex<N>>(nat, shape);
        s.tts = solo_exclusive<std::tuple_element_t<0, MutexBases<N>>>(nat, shape);
        s.mcs = solo_exclusive<std::tuple_element_t<1, MutexBases<N>>>(nat, shape);
        s.rw_read = solo_rw<false, RwLock<N>>(nat, shape);
        s.rw_write = solo_rw<true, RwLock<N>>(nat, shape);
        s.simple_read = solo_rw<false, std::tuple_element_t<0, RwBases<N>>>(nat, shape);
        s.simple_write = solo_rw<true, std::tuple_element_t<0, RwBases<N>>>(nat, shape);
        s.queue_read = solo_rw<false, std::tuple_element_t<1, RwBases<N>>>(nat, shape);
        s.queue_write = solo_rw<true, std::tuple_element_t<1, RwBases<N>>>(nat, shape);
        s.barrier = solo_barrier<Barrier<N>>(nat, shape);
        s.central = solo_barrier<std::tuple_element_t<0, BarrierBases<N>>>(nat, shape);
        s.tree = solo_barrier<std::tuple_element_t<1, BarrierBases<N>>>(nat, shape);

        // Per-call spans, for the slow-acquire threshold and for the
        // layers a workload does not exercise.
        const unsigned n = shape.solo_calls;
        std::uint64_t marks[2];
        Mutex<N> m;
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t t0 = ticks();
            exclusive<true, NativeClock>(m, [] {}, marks);
            const std::uint64_t t1 = ticks();
            s.spans[kSpanAcquire].add(marks[0] - t0);
            s.spans[kSpanRelease].add(t1 - marks[1]);
        }
        RwLock<N> l;
        for (unsigned i = 0; i < n; ++i) {
            std::uint64_t t0 = ticks();
            rw_section<false, true, NativeClock>(l, [] {}, marks);
            std::uint64_t t1 = ticks();
            s.spans[kSpanReadAcquire].add(marks[0] - t0);
            s.spans[kSpanReadRelease].add(t1 - marks[1]);
            t0 = ticks();
            rw_section<true, true, NativeClock>(l, [] {}, marks);
            t1 = ticks();
            s.spans[kSpanWriteAcquire].add(marks[0] - t0);
            s.spans[kSpanWriteRelease].add(t1 - marks[1]);
        }
        Barrier<N> bar(1);
        typename Barrier<N>::Node node{};
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t t0 = ticks();
            bar.arrive(node);
            s.spans[kSpanArrive].add(ticks() - t0);
        }
    });
    return s;
}

// ---- simulated half --------------------------------------------------------

/// The simulated half of @p w, run on whichever of the three object
/// types the workload uses.
template <bool kTraced, class MutexT, class RwT, class BarrierT>
SimRun sim_half(const Workload& w, const RunShape& shape, std::uint64_t seed)
{
    const std::uint32_t n = std::max(1u, w.sim_count / shape.sim_divisor);
    switch (w.kind) {
    case Kind::kMutex:
        return sim_mutex<kTraced, MutexT>(w, n, seed);
    case Kind::kRw:
        return sim_rw<kTraced, RwT>(n, seed);
    case Kind::kBarrier:
    default:
        return sim_barrier<kTraced, BarrierT>(w, n, seed);
    }
}

template <bool kTraced>
SimRun sim_reactive(const Workload& w, const RunShape& shape,
                    std::uint64_t seed)
{
    return sim_half<kTraced, Mutex<SimPlatform>, RwLock<SimPlatform>,
                    Barrier<SimPlatform>>(w, shape, seed);
}

/// The workload's static base protocol @p I on the simulated half.
template <std::size_t I>
SimRun sim_base(const Workload& w, const RunShape& shape, std::uint64_t seed)
{
    return sim_half<false, std::tuple_element_t<I, MutexBases<SimPlatform>>,
                    std::tuple_element_t<I, RwBases<SimPlatform>>,
                    std::tuple_element_t<I, BarrierBases<SimPlatform>>>(
        w, shape, seed);
}

// ---- one run -----------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string trace;
    bool smoke = false;
    bool self_test = false;
};

const Workload* find_workload(const std::string& name)
{
    for (const Workload& w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::vector<ThreadPlan> make_plans(const Native& nat, const Workload& w,
                                   std::uint64_t seed)
{
    std::vector<ThreadPlan> plans;
    for (unsigned t = 0; t < nat.threads; ++t)
        plans.push_back(make_plan(w, nat.clk, seed, t, nat.threads));
    return plans;
}

/// One trial of @p w on the workload's reactive object.
template <bool kTraced>
Trial reactive_trial(Native& nat, const Workload& w, const RunShape& shape,
                     const std::vector<ThreadPlan>& plans,
                     const TraceKnobs& knobs, std::uint64_t seed)
{
    using N = NativePlatform;
    switch (w.kind) {
    case Kind::kMutex:
        return run_trial<kTraced, MutexWorld<Mutex<N>>>(nat, w, shape, plans,
                                                        knobs, seed);
    case Kind::kRw:
        return run_trial<kTraced, RwWorld<RwLock<N>>>(nat, w, shape, plans,
                                                      knobs, seed);
    case Kind::kBarrier:
    default:
        return run_trial<kTraced, BarrierWorld<Barrier<N>>>(nat, w, shape,
                                                            plans, knobs, seed);
    }
}

void print_header(const Native& nat, const Args& a, const char* workload,
                  const char* mode)
{
#ifdef NDEBUG
    const int ndebug = 1;
#else
    const int ndebug = 0;
#endif
    std::printf("# bench_e2e workload=%s seed=%llu mode=%s\n", workload,
                static_cast<unsigned long long>(a.seed), mode);
    std::printf("# env nproc=%zu cpu=\"%s\" threads=%u build=%s ndebug=%d "
                "pin_failures=%u sim_procs=%u\n",
                nat.cpus.size(), cpu_model().c_str(), nat.threads,
                E2E_BUILD_TYPE, ndebug, nat.pool->pin_failures(), kSimProcs);
}

/// What one run reports: the metrics of its JSON line, and figures it
/// prints without gating them.
struct Outcome {
    std::vector<Metric> shown;
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

Outcome untraced_run(Native& nat, const Workload& w, const RunShape& shape,
                     std::uint64_t seed)
{
    Outcome out;
    const auto p0 = Clock::now();
    const auto plans = make_plans(nat, w, seed);
    const double plan_s = seconds_since(p0);

    // Solo figures are taken before every trial: the host's speed
    // drifts, and a median over the whole run follows it best.
    std::vector<double> solo, ops_s, p50, p99, setup;
    std::uint64_t samples = 0;
    const auto n0 = Clock::now();
    for (unsigned i = 0; i < shape.trials; ++i) {
        solo.push_back(solo_op_ns(nat, w, shape));
        const Trial tr =
            reactive_trial<false>(nat, w, shape, plans, TraceKnobs{}, seed);
        ops_s.push_back(tr.ops_per_s);
        p50.push_back(tr.p50_ns);
        p99.push_back(tr.p99_ns);
        setup.push_back(tr.setup_s);
        samples += tr.samples;
        out.attempted += tr.attempted;
        out.failed += tr.fails;
    }
    const auto m0 = Clock::now();
    const SimRun sr =
        on_worker0(nat, [&] { return sim_reactive<false>(w, shape, seed); });
    out.attempted += sr.ops;
    out.failed += sr.fails;
    std::printf("# phases native_s=%.3f sim_s=%.3f\n",
                std::chrono::duration<double>(m0 - n0).count(),
                seconds_since(m0));

    const double setup_s = nat.setup_s + plan_s + median(setup) + sr.setup_s;
    // The native figures and the simulator's host speed follow the
    // host's speed, which on a shared machine drifts by more than their
    // 0.10 bound from run to run, so they are printed but not gated;
    // the traced run reports them among the per-layer metrics.
    out.shown = {
        {"ops_per_s", median(ops_s), "ops/s"},
        {"op_p50_ns", median(p50), "ns"},
        {"op_p99_ns", median(p99), "ns"},
        {"op_samples", static_cast<double>(samples), "count"},
        {"solo_op_ns", median(solo), "ns"},
        {"fail_frac", ratio(out.failed, out.attempted), "ratio"},
        {"sim_mem_ops_per_s", sr.mem_ops_per_s(), "ops/s"},
    };
    out.metrics = {
        {"sim_cycles_per_op", sr.cycles_per_op(), "cycles"},
        {"sim_op_p99_cycles", sr.p99(), "cycles"},
        {"setup_s", setup_s, "s"},
        {"max_rss_mb", max_rss_mb(), "MB"},
    };
    return out;
}

/// Picks the contended figure when the workload runs the layer, the solo
/// one otherwise.
double span_pct(const SpanStats& cont, const SpanStats& solo, SpanId id,
                bool exercised, double q, const TickClock& clk)
{
    const Histogram& h = exercised ? cont[id] : solo[id];
    return clk.to_ns(h.percentile(q));
}

double ticks_pct_ns(const std::vector<std::uint64_t>& v, double q,
                    const TickClock& clk)
{
    return clk.to_ns(exact_percentile(v, q));
}

/// The traced run of one workload: per-layer metrics and the trace file.
Outcome traced_run(Native& nat, const Workload& w, const RunShape& shape,
                   std::uint64_t seed, const std::string& trace_path)
{
    Outcome out;
    const auto plans = make_plans(nat, w, seed);
    const SoloLedger solo = solo_ledger(nat, shape);
    const TickClock& clk = nat.clk;

    TraceKnobs knobs;
    knobs.slow_acquire_ticks =
        static_cast<std::uint64_t>(2 * solo.spans[kSpanAcquire].percentile(0.5));

    std::vector<double> plain_ops_s, plain_p50, plain_p99, traced_ops_s, warm;
    TracedTotals tot;
    const std::uint64_t trace_base = ticks();
    for (unsigned i = 0; i < kTracedTrials; ++i) {
        const Trial plain =
            reactive_trial<false>(nat, w, shape, plans, knobs, seed);
        const Trial traced =
            reactive_trial<true>(nat, w, shape, plans, knobs, seed);
        plain_ops_s.push_back(plain.ops_per_s);
        plain_p50.push_back(plain.p50_ns);
        plain_p99.push_back(plain.p99_ns);
        traced_ops_s.push_back(traced.ops_per_s);
        warm.push_back(plain.warmup_s);
        warm.push_back(traced.warmup_s);
        tot.add(traced, nat.stats);
        out.attempted += plain.attempted + traced.attempted;
        out.failed += plain.fails + traced.fails;
    }

    // Simulated half, untraced and traced: they must agree exactly.
    const SimRun su =
        on_worker0(nat, [&] { return sim_reactive<false>(w, shape, seed); });
    const SimRun st =
        on_worker0(nat, [&] { return sim_reactive<true>(w, shape, seed); });
    const SimRun b0 =
        on_worker0(nat, [&] { return sim_base<0>(w, shape, seed); });
    const SimRun b1 =
        on_worker0(nat, [&] { return sim_base<1>(w, shape, seed); });
    for (const SimRun* r : {&su, &st, &b0, &b1}) {
        out.attempted += r->ops;
        out.failed += r->fails;
    }
    const bool same = su.cycles_per_op() == st.cycles_per_op() &&
                      su.p99() == st.p99() && su.elapsed == st.elapsed &&
                      stat_fields(su.stats) == stat_fields(st.stats);
    std::printf("sim_trace_identical %d bool\n", same ? 1 : 0);
    if (!same) {
        std::printf("# tracing moved the simulated half: cycles/op %s vs %s\n",
                    num(su.cycles_per_op()).c_str(),
                    num(st.cycles_per_op()).c_str());
        ++out.failed;
    }

    SpanStats sim_spans{};
    for (const SpanLog& log : st.spans)
        merge_stats(sim_spans, log.stats());

    const bool is_mutex = w.kind == Kind::kMutex;
    const bool is_rw = w.kind == Kind::kRw;
    const bool is_bar = w.kind == Kind::kBarrier;
    const SpanStats& c = tot.spans;
    const SpanStats& s = solo.spans;
    const double ops = static_cast<double>(tot.ops);
    const double calls = static_cast<double>(tot.calls);
    auto own = [&](bool mine, double v) { return mine ? v : 0.0; };

    Histogram sim_acq, sim_rel;
    for (SpanId id : {kSpanAcquire, kSpanReadAcquire, kSpanWriteAcquire,
                      kSpanArrive})
        sim_acq.merge(sim_spans[id]);
    for (SpanId id : {kSpanRelease, kSpanReadRelease, kSpanWriteRelease})
        sim_rel.merge(sim_spans[id]);
    const double sim_rel_p50 =
        is_bar ? exact_percentile(st.release_lag, 0.5) : sim_rel.percentile(0.5);
    const double sim_ops = static_cast<double>(su.ops);
    const double best_static = std::min(b0.cycles_per_op(), b1.cycles_per_op());

    const double barrier_completer =
        is_bar ? ticks_pct_ns(tot.completer_ticks, 0.5, clk)
               : clk.to_ns(s[kSpanArrive].percentile(0.5));
    const double barrier_lag50 =
        is_bar ? ticks_pct_ns(tot.release_lag_ticks, 0.5, clk)
               : clk.to_ns(s[kSpanArrive].percentile(0.5));
    const double barrier_lag99 =
        is_bar ? ticks_pct_ns(tot.release_lag_ticks, 0.99, clk)
               : clk.to_ns(s[kSpanArrive].percentile(0.99));

    const double solo_op = is_mutex ? solo.mutex
                           : is_rw  ? 0.5 * (solo.rw_read + solo.rw_write)
                                    : solo.barrier;
    out.metrics = {
        {"native.ops_per_s", median(plain_ops_s), "ops/s"},
        {"native.op_p50_ns", median(plain_p50), "ns"},
        {"native.op_p99_ns", median(plain_p99), "ns"},
        {"native.solo_op_ns", solo_op, "ns"},
        {"core.acquire_ns.p50", span_pct(c, s, kSpanAcquire, is_mutex, 0.5, clk), "ns"},
        {"core.acquire_ns.p99", span_pct(c, s, kSpanAcquire, is_mutex, 0.99, clk), "ns"},
        {"core.release_ns.p50", span_pct(c, s, kSpanRelease, is_mutex, 0.5, clk), "ns"},
        {"core.slow_frac", own(is_mutex, ratio(tot.slow_acquires, calls)), "ratio"},
        {"core.tax_ns", solo.mutex - solo.tts, "ns"},
        {"core.protocol_changes_per_kop", own(is_mutex, per_kop(tot.protocol_changes, ops)), "1/kop"},
        {"core.queue_frac", own(is_mutex, ratio(tot.alt_protocol_ops, calls)), "ratio"},
        {"rw.read_acquire_ns.p50", span_pct(c, s, kSpanReadAcquire, is_rw, 0.5, clk), "ns"},
        {"rw.read_acquire_ns.p99", span_pct(c, s, kSpanReadAcquire, is_rw, 0.99, clk), "ns"},
        {"rw.write_acquire_ns.p50", span_pct(c, s, kSpanWriteAcquire, is_rw, 0.5, clk), "ns"},
        {"rw.write_acquire_ns.p99", span_pct(c, s, kSpanWriteAcquire, is_rw, 0.99, clk), "ns"},
        {"rw.read_release_ns.p50", span_pct(c, s, kSpanReadRelease, is_rw, 0.5, clk), "ns"},
        {"rw.write_release_ns.p50", span_pct(c, s, kSpanWriteRelease, is_rw, 0.5, clk), "ns"},
        {"rw.tax_read_ns", solo.rw_read - solo.simple_read, "ns"},
        {"rw.tax_write_ns", solo.rw_write - solo.simple_write, "ns"},
        {"rw.protocol_changes_per_kop", own(is_rw, per_kop(tot.protocol_changes, ops)), "1/kop"},
        {"rw.queue_frac", own(is_rw, ratio(tot.alt_protocol_ops, calls)), "ratio"},
        {"rw.switch_lag_ops.p50", exact_percentile(tot.switch_lags, 0.5), "ops"},
        {"barrier.arrive_ns.p50", span_pct(c, s, kSpanArrive, is_bar, 0.5, clk), "ns"},
        {"barrier.arrive_ns.p99", span_pct(c, s, kSpanArrive, is_bar, 0.99, clk), "ns"},
        {"barrier.completer_ns.p50", barrier_completer, "ns"},
        {"barrier.release_lag_ns.p50", barrier_lag50, "ns"},
        {"barrier.release_lag_ns.p99", barrier_lag99, "ns"},
        {"barrier.protocol_changes_per_kop", own(is_bar, per_kop(tot.protocol_changes, ops)), "1/kop"},
        {"barrier.tree_frac", own(is_bar, ratio(tot.alt_protocol_ops, calls)), "ratio"},
        {"waiting.vcsw_per_kop", per_kop(tot.usage.vcsw, calls), "1/kop"},
        {"waiting.ivcsw_per_kop", per_kop(tot.usage.ivcsw, calls), "1/kop"},
        {"waiting.park_hint_frac", ratio(tot.park_hint_ops, calls), "ratio"},
        {"waiting.mode_changes_per_kop", per_kop(tot.hint_changes, calls), "1/kop"},
        {"waiting.cpu_ns_per_op", ratio(tot.usage.cpu_ns, calls), "ns"},
        {"locks.tts_solo_ns", solo.tts, "ns"},
        {"locks.mcs_solo_ns", solo.mcs, "ns"},
        {"rw.simple_read_solo_ns", solo.simple_read, "ns"},
        {"rw.simple_write_solo_ns", solo.simple_write, "ns"},
        {"rw.queue_read_solo_ns", solo.queue_read, "ns"},
        {"rw.queue_write_solo_ns", solo.queue_write, "ns"},
        {"barrier.central_solo_ns", solo.central, "ns"},
        {"barrier.tree_solo_ns", solo.tree, "ns"},
        {"sim.mem_ops_per_op", ratio(su.stats.mem_ops, sim_ops), "count"},
        {"sim.remote_misses_per_op", ratio(su.stats.remote_misses, sim_ops), "count"},
        {"sim.invalidations_per_op", ratio(su.stats.invalidations, sim_ops), "count"},
        {"sim.acquire_cycles.p50", sim_acq.percentile(0.5), "cycles"},
        {"sim.acquire_cycles.p99", sim_acq.percentile(0.99), "cycles"},
        {"sim.release_cycles.p50", sim_rel_p50, "cycles"},
        {"sim.blocks_per_kop", per_kop(su.stats.blocks, sim_ops), "1/kop"},
        {"sim.wakes_per_kop", per_kop(su.stats.wakes, sim_ops), "1/kop"},
        {"sim.context_switches_per_kop", per_kop(su.stats.context_switches, sim_ops), "1/kop"},
        {"sim.proto0.cycles_per_op", b0.cycles_per_op(), "cycles"},
        {"sim.proto1.cycles_per_op", b1.cycles_per_op(), "cycles"},
        {"sim.vs_best_static", ratio(su.cycles_per_op(), best_static), "ratio"},
        {"sim.host_ns_per_mem_op", ratio(su.host_s * 1e9, su.stats.mem_ops), "ns"},
        {"bench.trace_overhead_frac", 1 - ratio(median(traced_ops_s), median(plain_ops_s)), "ratio"},
        {"bench.pin_failures", static_cast<double>(nat.pool->pin_failures()), "count"},
        {"bench.warmup_s", median(warm), "s"},
    };

    // Layer self times: a span's time minus its children's, per op.
    auto print_self = [](const char* prefix, const SpanStats& sp, double scale,
                         const char* unit) {
        const auto self = self_time(sp);
        const double n = static_cast<double>(sp[kSpanOp].count());
        std::vector<std::pair<std::string, double>> layers;
        for (std::size_t i = 0; i < kSpanCount; ++i) {
            if (sp[i].count() == 0)
                continue;
            const std::string name = kSpanNames[i];
            const std::string layer = name.substr(0, name.find('.'));
            auto it = std::find_if(layers.begin(), layers.end(),
                                   [&](const auto& l) { return l.first == layer; });
            if (it == layers.end())
                layers.emplace_back(layer, self[i]);
            else
                it->second += self[i];
        }
        for (const auto& [layer, t] : layers)
            std::printf("self.%s%s %s %s\n", prefix, layer.c_str(),
                        num(n > 0 ? t * scale / n : 0).c_str(), unit);
    };
    print_self("", c, clk.ns_per_tick, "ns/op");
    print_self("sim.", sim_spans, 1.0, "cycles/op");

    std::vector<const SpanLog*> native_logs, sim_logs;
    for (const auto& log : nat.span_logs)
        native_logs.push_back(log.get());
    for (const SpanLog& log : st.spans)
        sim_logs.push_back(&log);
    const std::vector<TraceProcess> procs = {
        {"native", native_logs, trace_base,
         clk.ns_per_tick / 1000.0},
        {"sim (1 us shown = 1 simulated cycle)", sim_logs, 0, 1.0},
    };
    if (!write_chrome_trace(trace_path, procs, w.name, seed)) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_path.c_str());
        ++out.failed;
    } else {
        std::printf("# trace written to %s\n", trace_path.c_str());
    }
    return out;
}

/// --self-test: the native and simulated halves of mutex_hot and
/// rw_phases against locks that do not exclude. Returns the exit code:
/// 1 when every canary run failed its checks, 2 when one passed.
int self_test(Native& nat, const Args& a)
{
    const RunShape shape = RunShape::smoke();
    bool all_caught = true;
    for (const char* name : {"mutex_hot", "rw_phases"}) {
        const Workload& w = *find_workload(name);
        const auto plans = make_plans(nat, w, a.seed);
        std::uint64_t attempted = 0, failed = 0;
        for (unsigned i = 0; i < shape.trials; ++i) {
            const Trial tr =
                w.kind == Kind::kMutex
                    ? run_trial<false, MutexWorld<BrokenMutex>>(
                          nat, w, shape, plans, TraceKnobs{}, a.seed)
                    : run_trial<false, RwWorld<BrokenRwLock>>(
                          nat, w, shape, plans, TraceKnobs{}, a.seed);
            attempted += tr.attempted;
            failed += tr.fails;
        }
        const SimRun sr = on_worker0(nat, [&] {
            return sim_half<false, BrokenMutex, BrokenRwLock,
                            Barrier<SimPlatform>>(w, shape, a.seed);
        });
        const bool caught = failed > 0 && sr.fails > 0;
        all_caught &= caught;
        std::printf("[self-test %s] fail_frac %s ratio (sim failed checks %llu)"
                    " -> %s\n",
                    name, num(ratio(failed, attempted)).c_str(),
                    static_cast<unsigned long long>(sr.fails),
                    caught ? "caught" : "NOT CAUGHT");
    }
    std::printf("self-test: %s\n", all_caught
                                        ? "the checks catch a lock that does "
                                          "not exclude"
                                        : "a broken lock went unnoticed");
    return all_caught ? 1 : 2;
}

bool parse(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string s = argv[i];
        auto value = [&](const char* key, std::string& out) {
            const std::string k = std::string(key) + "=";
            if (s.rfind(k, 0) != 0)
                return false;
            out = s.substr(k.size());
            return true;
        };
        std::string v;
        try {
            if (value("--workload", v))
                a.workload = v;
            else if (value("--seed", v))
                a.seed = std::stoull(v);
            else if (value("--seconds", v))
                a.seconds = std::stod(v);
            else if (value("--trace", v))
                a.trace = v;
            else if (s == "--smoke")
                a.smoke = true;
            else if (s == "--self-test")
                a.self_test = true;
            else
                return false;
        } catch (const std::exception&) {
            return false;
        }
    }
    return a.seconds > 0 && a.seconds <= 600 &&
           (a.smoke || a.self_test || find_workload(a.workload) != nullptr);
}

int run(int argc, char** argv)
{
    Args a;
    if (!parse(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: bench_e2e --workload=<mutex_hot|mutex_light|"
                     "rw_phases|barrier_phases> --seed=<n> [--seconds=<s>] "
                     "[--trace=<file>]\n"
                     "       bench_e2e --smoke | --self-test\n");
        return 2;
    }
    Native nat;
    if (a.self_test) {
        print_header(nat, a, "mutex_hot,rw_phases", "self-test");
        return self_test(nat, a);
    }
    if (a.smoke) {
        const auto t0 = Clock::now();
        bool ok = true;
        for (const Workload& w : kWorkloads) {
            print_header(nat, a, w.name, "smoke");
            const Outcome o = untraced_run(nat, w, RunShape::smoke(), a.seed);
            print_metrics(o.shown);
            print_metrics(o.metrics);
            ok &= o.failed == 0;
        }
        std::printf("smoke: %s in %s s\n", ok ? "ok" : "FAILED",
                    num(seconds_since(t0)).c_str());
        return ok ? 0 : 1;
    }
    const Workload& w = *find_workload(a.workload);
    const bool traced = !a.trace.empty();
    print_header(nat, a, w.name, traced ? "traced" : "untraced");
    const Outcome o =
        traced ? traced_run(nat, w, RunShape::for_seconds(a.seconds), a.seed,
                            a.trace)
               : untraced_run(nat, w, RunShape::for_seconds(a.seconds), a.seed);
    print_metrics(o.shown);
    print_metrics(o.metrics);
    print_json(o.failed == 0, o.attempted, o.failed, o.metrics);
    return o.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv)
{
    try {
        return e2e::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 1;
    }
}
