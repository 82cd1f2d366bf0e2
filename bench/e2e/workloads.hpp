/**
 * @file
 * The four workloads of bench_e2e: the objects they drive, the data the
 * objects protect, and the per-thread loops of the native half and the
 * per-processor kernels of the simulated half.
 *
 * Both halves are closed loops: a client issues its next operation only
 * after the previous one returned. Every random choice (think times,
 * read/write mix, the straggler) is drawn from the run seed before the
 * start gate, so a measured loop only indexes arrays.
 *
 * The benchmark reaches the library only through public headers and
 * public functions; the traced variants (kTraced) time each of those
 * calls and read the objects' public accessors.
 */
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "barrier/central_barrier.hpp"
#include "barrier/combining_tree_barrier.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/reactive_mutex.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/tts_lock.hpp"
#include "platform/native_platform.hpp"
#include "rw/queue_rw_lock.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "rw/simple_rw_lock.hpp"
#include "sim/sim_platform.hpp"
#include "waiting/reactive/wait_select.hpp"

#include "histogram.hpp"
#include "host.hpp"
#include "spans.hpp"

namespace e2e {

namespace sim = reactive::sim;
using reactive::NativePlatform;
using SimPlatform = reactive::sim::SimPlatform;

// ---- the objects under test ------------------------------------------

/// mutex_hot, mutex_light: the default reactive mutex (always-switch
/// policy, spin waiting), used through its Guard.
template <class P>
using Mutex = reactive::ReactiveMutex<P>;
/// rw_phases: the reactive rwlock with the waiting axis on.
template <class P>
using RwLock = reactive::ReactiveRwLock<P, reactive::AlwaysSwitchPolicy,
                                        reactive::ParkWaiting>;
/// barrier_phases: the default reactive barrier (central <-> tree).
template <class P>
using Barrier = reactive::ReactiveBarrier<P>;

/// Static protocols each reactive object selects between, in protocol
/// index order; the denominators of the tax and vs-best-static figures.
template <class P>
using MutexBases = std::tuple<reactive::TtsLock<P>, reactive::McsLock<P>>;
template <class P>
using RwBases =
    std::tuple<reactive::SimpleRwLock<P>, reactive::QueueRwLock<P>>;
template <class P>
using BarrierBases = std::tuple<reactive::CentralBarrier<P>,
                                reactive::CombiningTreeBarrier<P>>;

/// Locks that do not exclude: the --self-test canary. A run against
/// them must fail its correctness checks.
struct BrokenMutex {
    struct Node {};
    void lock(Node&) {}
    void unlock(Node&) {}
};
struct BrokenRwLock {
    struct Node {};
    void lock_read(Node&) {}
    void unlock_read(Node&) {}
    void lock_write(Node&) {}
    void unlock_write(Node&) {}
};

// ---- workload shape ----------------------------------------------------

enum class Kind { kMutex, kRw, kBarrier };

struct Workload {
    const char* name;
    Kind kind;
    double think_lo_ns;  ///< native think (barrier: compute) time, uniform
    double think_hi_ns;
    std::uint32_t sim_think_lo;  ///< simulated think time, cycles
    std::uint32_t sim_think_hi;
    /// Simulated run length: operations per processor (mutex), phases
    /// (rw) or episodes (barrier).
    std::uint32_t sim_count;
};

// The simulated think time of mutex_light is far longer than the native
// one: 16 simulated processors must leave the lock as idle as 3 native
// threads do, or the "light" workload would saturate it.
inline constexpr Workload kWorkloads[] = {
    {"mutex_hot", Kind::kMutex, 0, 200, 0, 200, 1500},
    {"mutex_light", Kind::kMutex, 2000, 6000, 40000, 120000, 48000},
    {"rw_phases", Kind::kRw, 0, 0, 0, 0, 128},
    {"barrier_phases", Kind::kBarrier, 0, 200, 0, 200, 240},
};

inline constexpr std::size_t kSchedLen = 1u << 16;  ///< per-thread plan
inline constexpr std::size_t kSchedMask = kSchedLen - 1;

// rw_phases: every thread runs phases of kPhaseOps operations that
// alternate between these read shares, and all threads pass a gate
// between phases; a write rebuilds the record with ~2 us of hashing.
inline constexpr std::uint32_t kPhaseOps = 20000;
inline constexpr double kReadShare[2] = {0.95, 0.25};
inline constexpr std::uint32_t kHashRounds = 800;

// barrier_phases: blocks of kBarrierBlock episodes alternate between
// bunched arrivals and one straggler that computes kStraggleNs longer.
inline constexpr std::uint32_t kBarrierBlock = 2000;
inline constexpr double kStraggleNs = 20000;

// Simulated half: P = 16 processors, fixed operation counts.
inline constexpr std::uint32_t kSimProcs = 16;
inline constexpr std::uint32_t kSimCs = 100;          ///< mutex hold, cycles
inline constexpr std::uint32_t kSimWriteHold = 500;  ///< rw write hold
inline constexpr std::uint32_t kSimPhaseOps = 50;  ///< per processor
inline constexpr std::uint32_t kSimGatePoll = 50;  ///< cycles between polls
inline constexpr std::uint32_t kSimStraggle = 30000;
inline constexpr std::uint32_t kSimBlock = 40;  ///< episodes per block

inline bool straggle_block(std::uint64_t episode, std::uint32_t block)
{
    return (episode / block) % 2 == 1;
}

inline std::uint32_t uniform(std::uint64_t& rng, std::uint32_t lo,
                             std::uint32_t hi)
{
    return hi > lo ? lo + static_cast<std::uint32_t>(splitmix64(rng) %
                                                     (hi - lo))
                   : lo;
}

/// rw_phases: whether the next operation of phase @p ph is a write.
inline std::uint8_t draw_write(std::uint64_t& rng, int ph)
{
    return static_cast<double>(splitmix64(rng) >> 11) * 0x1.0p-53 >=
           kReadShare[ph];
}

// ---- clocks and access to the objects -----------------------------------

struct NativeClock {
    static std::uint64_t now() { return ticks(); }
};
struct SimClock {
    static std::uint64_t now() { return sim::now(); }
};

/// Runs cs() holding @p l exclusively. With kMark, marks[0] receives the
/// clock just after the acquire returned and marks[1] just before the
/// release starts, which splits the operation into its layer calls.
template <bool kMark, class Clock, class L, class Cs>
void exclusive(L& l, Cs&& cs, std::uint64_t* marks)
{
    if constexpr (requires { typename L::Guard; }) {
        typename L::Guard g(l);
        if constexpr (kMark)
            marks[0] = Clock::now();
        cs();
        if constexpr (kMark)
            marks[1] = Clock::now();
    } else {
        typename L::Node n;
        l.lock(n);
        if constexpr (kMark)
            marks[0] = Clock::now();
        cs();
        if constexpr (kMark)
            marks[1] = Clock::now();
        l.unlock(n);
    }
}

/// Runs cs() holding @p l for reading (kWrite false) or writing.
template <bool kWrite, bool kMark, class Clock, class L, class Cs>
void rw_section(L& l, Cs&& cs, std::uint64_t* marks)
{
    typename L::Node n;
    if constexpr (kWrite)
        l.lock_write(n);
    else
        l.lock_read(n);
    if constexpr (kMark)
        marks[0] = Clock::now();
    cs();
    if constexpr (kMark)
        marks[1] = Clock::now();
    if constexpr (kWrite)
        l.unlock_write(n);
    else
        l.unlock_read(n);
}

/// The reactive object behind @p obj, for its public accessors.
template <class T>
auto& reactive_of(T& obj)
{
    if constexpr (requires { obj.lock_object(); })
        return obj.lock_object();
    else
        return obj;
}

inline bool hint_may_park(std::uint32_t hint)
{
    return reactive::unpack_wait_hint(hint).mode != reactive::WaitMode::kSpin;
}

// ---- protected data --------------------------------------------------------

/// mutex workloads: two counters on separate cache lines, checked and
/// then incremented inside the critical section. Relaxed atomics keep
/// the canary run (which races on them) free of undefined behaviour.
template <class P>
struct CounterPair {
    alignas(64) typename P::template Atomic<std::uint64_t> a{0};
    alignas(64) typename P::template Atomic<std::uint64_t> b{0};

    /// False when the counters disagree: exclusion failed.
    bool check_and_bump()
    {
        const std::uint64_t va = a.load(std::memory_order_relaxed);
        const std::uint64_t vb = b.load(std::memory_order_relaxed);
        a.store(va + 1, std::memory_order_relaxed);
        b.store(vb + 1, std::memory_order_relaxed);
        return va == vb;
    }

    /// Sections whose increments were lost, after @p ops completed.
    std::uint64_t lost(std::uint64_t ops) const
    {
        const std::uint64_t v = std::min(a.load(std::memory_order_relaxed),
                                         b.load(std::memory_order_relaxed));
        return ops - std::min(ops, v);
    }
};

inline std::uint64_t hash_rounds(std::uint64_t x, std::uint32_t rounds)
{
    for (std::uint32_t r = 0; r < rounds; ++r) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/// rw_phases: an 8-slot record. A reader checks that all slots are
/// equal; a writer bumps slot 0, spends its hold, then copies slot 0
/// into the other seven, so a reader admitted during a write sees a
/// torn record.
template <class P>
struct Record {
    alignas(64) std::array<typename P::template Atomic<std::uint64_t>, 8> slot{};
    alignas(64) typename P::template Atomic<std::uint64_t> digest{0};

    bool check() const
    {
        const std::uint64_t v0 = slot[0].load(std::memory_order_relaxed);
        bool ok = true;
        for (std::size_t k = 1; k < slot.size(); ++k)
            ok &= slot[k].load(std::memory_order_relaxed) == v0;
        return ok;
    }

    template <class Hold>
    void rebuild(Hold&& hold)
    {
        const std::uint64_t c = slot[0].load(std::memory_order_relaxed) + 1;
        slot[0].store(c, std::memory_order_relaxed);
        digest.store(hold(c), std::memory_order_relaxed);
        for (std::size_t k = 1; k < slot.size(); ++k)
            slot[k].store(c, std::memory_order_relaxed);
    }

    /// Failed checks after @p writes completed writes.
    std::uint64_t mismatches(std::uint64_t writes) const
    {
        std::uint64_t bad = 0;
        for (const auto& s : slot)
            bad += s.load(std::memory_order_relaxed) != writes;
        return bad;
    }
};

// ---- native half -----------------------------------------------------------

/// One worker's operation schedule, drawn from the seed before the start
/// gate.
struct ThreadPlan {
    std::vector<std::uint64_t> think;  ///< ticks, indexed by op & kSchedMask
    std::array<std::vector<std::uint8_t>, 2> write;  ///< rw: per phase
    unsigned straggler = 0;                          ///< barrier
    std::uint64_t straggle_ticks = 0;
};

inline ThreadPlan make_plan(const Workload& w, const TickClock& clk,
                            std::uint64_t seed, unsigned tid, unsigned threads)
{
    ThreadPlan plan;
    std::uint64_t rng = derive(seed, 100 + tid);
    const std::uint32_t lo = static_cast<std::uint32_t>(w.think_lo_ns);
    const std::uint32_t hi = static_cast<std::uint32_t>(w.think_hi_ns);
    plan.think.resize(kSchedLen);
    for (auto& t : plan.think)
        t = clk.from_ns(uniform(rng, lo, hi));
    if (w.kind == Kind::kRw) {
        for (int ph = 0; ph < 2; ++ph) {
            plan.write[ph].resize(kSchedLen);
            for (auto& k : plan.write[ph])
                k = draw_write(rng, ph);
        }
    }
    std::uint64_t srng = derive(seed, 7);
    plan.straggler = static_cast<unsigned>(splitmix64(srng) % threads);
    plan.straggle_ticks = clk.from_ns(kStraggleNs);
    return plan;
}

/// Start gate and stop flag of one trial.
struct alignas(64) Gate {
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};

    void arrive_and_wait()
    {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) {
        }
    }
};

/// What one worker measured in one trial.
struct ThreadStats {
    std::uint64_t warm_ops = 0;
    std::uint64_t ops = 0;  ///< measured operations (barrier: episodes)
    std::uint64_t fails = 0;
    std::uint64_t writes = 0;
    Histogram lat;  ///< ticks per operation
    std::uint64_t finish = 0;
    double warmup_s = 0;
    ThreadUsage usage;  ///< over the measured loop

    // Traced runs only.
    std::uint64_t alt_protocol_ops = 0;  ///< ops under protocol index 1
    std::uint64_t park_hint_ops = 0;
    std::uint64_t hint_changes = 0;
    std::uint64_t slow_acquires = 0;
    std::vector<std::uint64_t> switch_lags;
    std::vector<std::array<std::uint64_t, 2>> episodes;  ///< entry, exit
    SpanLog* spans = nullptr;  ///< owned by the run; kept across trials

    void reset()
    {
        SpanLog* keep = spans;
        *this = ThreadStats{};
        spans = keep;
    }
};

/// Per-thread hint watcher for the waiting-layer figures.
struct HintWatch {
    std::uint32_t last_mode = 0;
    bool seen = false;

    void observe(std::uint32_t hint, ThreadStats& st)
    {
        const auto mode =
            static_cast<std::uint32_t>(reactive::unpack_wait_hint(hint).mode);
        st.park_hint_ops += hint_may_park(hint);
        st.hint_changes += seen && mode != last_mode;
        last_mode = mode;
        seen = true;
    }
};

/// Shared knobs the traced loops need.
struct TraceKnobs {
    std::uint64_t slow_acquire_ticks = ~std::uint64_t{0};
};

template <bool kTraced, class M>
void mutex_worker(M& m, CounterPair<NativePlatform>& data,
                  const ThreadPlan& plan, std::uint32_t warmup, Gate& gate,
                  ThreadStats& st, const TraceKnobs& knobs)
{
    std::uint64_t marks[2] = {0, 0};
    std::uint32_t proto = 0;
    std::uint32_t hint = 0;
    auto cs = [&] {
        st.fails += !data.check_and_bump();
        if constexpr (kTraced) {
            proto = reactive_of(m).protocol_index();
            hint = reactive_of(m).wait_hint();
        }
    };
    const auto w0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < warmup; ++i) {
        exclusive<false, NativeClock>(m, cs, marks);
        spin_ticks(plan.think[i & kSchedMask]);
    }
    st.warm_ops = warmup;
    st.warmup_s = seconds_since(w0);
    gate.arrive_and_wait();

    HintWatch watch;
    const ThreadUsage u0 = ThreadUsage::now();
    std::uint64_t i = 0;
    for (; !gate.stop.load(std::memory_order_relaxed); ++i) {
        if constexpr (kTraced)
            st.spans->begin_op();
        const std::uint64_t t0 = ticks();
        exclusive<kTraced, NativeClock>(m, cs, marks);
        const std::uint64_t t1 = ticks();
        st.lat.add(t1 - t0);
        if constexpr (kTraced) {
            st.spans->record(kSpanAcquire, t0, marks[0]);
            st.spans->record(kSpanRelease, marks[1], t1);
            st.spans->record(kSpanOp, t0, t1);
            st.slow_acquires += marks[0] - t0 > knobs.slow_acquire_ticks;
            st.alt_protocol_ops += proto == 1;
            watch.observe(hint, st);
        }
        spin_ticks(plan.think[i & kSchedMask]);
    }
    st.finish = ticks();
    st.usage = ThreadUsage::now() - u0;
    st.ops = i;
}

/// Phase gate of rw_phases: a thread that finished its share of phase
/// @p ph waits until every thread has, so a flip hits all of them
/// together.
struct alignas(64) PhaseGate {
    std::atomic<std::uint32_t> arrived{0};

    void pass(unsigned threads, std::uint32_t ph)
    {
        arrived.fetch_add(1, std::memory_order_acq_rel);
        while (arrived.load(std::memory_order_acquire) < threads * (ph + 1)) {
        }
    }
};

template <bool kTraced, class L>
void rw_worker(L& l, Record<NativePlatform>& rec, PhaseGate& pg,
               const ThreadPlan& plan, unsigned threads, std::uint32_t warmup,
               std::uint32_t phases, std::uint32_t phase_ops, Gate& gate,
               ThreadStats& st)
{
    std::uint64_t marks[2] = {0, 0};
    std::uint32_t proto = 0;
    std::uint32_t hint = 0;
    std::uint64_t changes = 0;
    auto observe = [&] {
        if constexpr (kTraced) {
            proto = l.protocol_index();
            hint = l.wait_hint();
            changes = l.protocol_changes();  // race-free: inside the lock
        }
    };
    auto read_cs = [&] {
        st.fails += !rec.check();
        observe();
    };
    auto write_cs = [&] {
        rec.rebuild([](std::uint64_t c) { return hash_rounds(c, kHashRounds); });
        observe();
    };
    auto op = [&](std::uint32_t phase, std::uint64_t i, auto mark) -> bool {
        constexpr bool kMark = decltype(mark)::value;
        const bool write = plan.write[phase][i & kSchedMask] != 0;
        if (write)
            rw_section<true, kMark, NativeClock>(l, write_cs, marks);
        else
            rw_section<false, kMark, NativeClock>(l, read_cs, marks);
        st.writes += write;
        return write;
    };

    const auto w0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < warmup; ++i)
        op(0, i, std::false_type{});
    st.warm_ops = warmup;
    st.warmup_s = seconds_since(w0);
    gate.arrive_and_wait();

    HintWatch watch;
    bool lag_open = false;
    std::uint64_t lag_ops = 0;
    std::uint64_t changes_at_flip = 0;
    const ThreadUsage u0 = ThreadUsage::now();
    std::uint64_t i = 0;
    for (std::uint32_t ph = 0; ph < phases; ++ph) {
        const std::uint32_t phase = ph & 1u;
        if constexpr (kTraced) {
            lag_open = ph > 0;
            lag_ops = 0;
            changes_at_flip = changes;
        }
        for (std::uint32_t j = 0; j < phase_ops; ++j, ++i) {
            if constexpr (kTraced)
                st.spans->begin_op();
            const std::uint64_t t0 = ticks();
            const bool write = op(phase, i, std::bool_constant<kTraced>{});
            const std::uint64_t t1 = ticks();
            st.lat.add(t1 - t0);
            if constexpr (kTraced) {
                st.spans->record(write ? kSpanWriteAcquire : kSpanReadAcquire,
                                 t0, marks[0]);
                st.spans->record(write ? kSpanWriteRelease : kSpanReadRelease,
                                 marks[1], t1);
                st.spans->record(kSpanOp, t0, t1);
                st.alt_protocol_ops += proto == 1;
                watch.observe(hint, st);
                ++lag_ops;
                if (lag_open && changes != changes_at_flip) {
                    st.switch_lags.push_back(lag_ops);
                    lag_open = false;
                }
            }
        }
        pg.pass(threads, ph);
    }
    st.finish = ticks();
    st.usage = ThreadUsage::now() - u0;
    st.ops = i;
}

/// Per-participant episode counters of barrier_phases, one line each.
struct alignas(64) EpisodeCounter {
    std::atomic<std::uint64_t> v{0};
};

template <bool kTraced, class B>
void barrier_worker(B& bar, std::vector<EpisodeCounter>& cnt,
                    const ThreadPlan& plan, unsigned tid,
                    std::uint32_t warmup, std::uint32_t episodes, Gate& gate,
                    ThreadStats& st)
{
    typename B::Node node{};
    std::uint64_t epi = 0;  // episodes this participant has entered
    // One episode: compute, announce, arrive, then check that every
    // participant has entered this episode and none is past the next.
    auto episode = [&](std::uint64_t think) {
        spin_ticks(think);
        ++epi;
        cnt[tid].v.store(epi, std::memory_order_relaxed);
        const std::uint64_t t0 = ticks();
        bar.arrive(node);
        const std::uint64_t t1 = ticks();
        for (const auto& c : cnt) {
            const std::uint64_t seen = c.v.load(std::memory_order_relaxed);
            st.fails += seen < epi || seen > epi + 1;
        }
        return std::array<std::uint64_t, 2>{t0, t1};
    };

    const auto w0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < warmup; ++i)
        episode(plan.think[i & kSchedMask]);
    st.warm_ops = warmup;
    st.warmup_s = seconds_since(w0);
    gate.arrive_and_wait();

    HintWatch watch;
    const ThreadUsage u0 = ThreadUsage::now();
    for (std::uint32_t e = 0; e < episodes; ++e) {
        std::uint64_t think = plan.think[e & kSchedMask];
        if (straggle_block(e, kBarrierBlock) && tid == plan.straggler)
            think += plan.straggle_ticks;
        std::uint32_t proto = 0;
        if constexpr (kTraced) {
            st.spans->begin_op();
            proto = bar.protocol_index();  // exact for a participant
        }
        const auto span = episode(think);
        st.lat.add(span[1] - span[0]);
        if constexpr (kTraced) {
            st.spans->record(kSpanArrive, span[0], span[1]);
            st.spans->record(kSpanOp, span[0], span[1]);
            st.episodes[e] = span;
            st.alt_protocol_ops += proto == 1;
            watch.observe(bar.wait_hint(), st);
        }
    }
    st.finish = ticks();
    st.usage = ThreadUsage::now() - u0;
    st.ops = episodes;
}

// ---- simulated half --------------------------------------------------------

/// One run of a simulated kernel.
struct SimRun {
    std::uint64_t ops = 0;  ///< operations run (barrier: episodes)
    std::uint64_t fails = 0;
    std::uint64_t elapsed = 0;
    std::uint64_t protocol_changes = 0;
    /// Cycles of every call after the warm-up (barrier: every arrive).
    std::vector<std::uint64_t> lat;
    std::vector<std::uint64_t> release_lag;  ///< barrier, cycles
    sim::MachineStats stats{};
    double setup_s = 0;  ///< machine construction and spawn
    double host_s = 0;   ///< Machine::run
    /// Simulated memory operations per host second, one per 10 ms of
    /// host time.
    std::vector<double> window_speeds;
    std::vector<SpanLog> spans;  ///< traced runs: one per processor

    /// The simulator's speed: the median window, which a short stall of
    /// the host does not move.
    double mem_ops_per_s() const
    {
        if (window_speeds.empty())
            return host_s > 0 ? static_cast<double>(stats.mem_ops) / host_s
                              : 0.0;
        return median(window_speeds);
    }

    double cycles_per_op() const
    {
        double s = 0;
        for (std::uint64_t v : lat)
            s += static_cast<double>(v);
        return lat.empty() ? 0.0 : s / static_cast<double>(lat.size());
    }
    double p99() const { return exact_percentile(lat, 0.99); }
};

/// Fields of MachineStats, for the non-perturbation check.
inline std::array<std::uint64_t, 13> stat_fields(const sim::MachineStats& s)
{
    return {s.mem_ops,          s.remote_misses,
            s.cross_socket_transfers, s.cross_socket_invalidations,
            s.invalidations,    s.dir_overflows,
            s.messages,         s.handlers,
            s.context_switches, s.blocks,
            s.wakes,            s.threads_spawned,
            s.preemptions};
}

/// Machine plus the host-side bookkeeping every simulated kernel shares.
/// Each processor makes `calls` calls; the first `warm` of them fill the
/// simulated caches and settle the protocol and are not sampled.
template <bool kTraced>
class SimHarness {
  public:
    SimHarness(SimRun& run, std::uint64_t seed, std::uint32_t calls,
               std::uint32_t warm)
        : run_(run), calls_(calls), warm_(warm),
          t0_(std::chrono::steady_clock::now()),
          machine_(kSimProcs, sim::CostModel::alewife(), seed)
    {
        run.lat.assign(std::size_t{kSimProcs} * (calls - warm), 0);
        if constexpr (kTraced) {
            run.spans.reserve(kSimProcs);
            for (std::uint32_t p = 0; p < kSimProcs; ++p)
                run.spans.emplace_back(derive(seed, 300 + p), p,
                                       (calls - warm) / 32 + 1);
        }
    }

    sim::Machine& machine() { return machine_; }

    /// Slot of call @p i of processor @p p in SimRun::lat, or nullptr
    /// during the warm-up.
    std::uint64_t* sample(std::uint32_t p, std::uint32_t i)
    {
        return i < warm_ ? nullptr
                         : &run_.lat[std::size_t{p} * (calls_ - warm_) +
                                     (i - warm_)];
    }

    /// Processor 0 calls this once per operation; it closes a window of
    /// the host-speed measurement every 10 ms of host time. Host memory
    /// only: the simulated schedule cannot see it.
    void host_window()
    {
        const auto now = std::chrono::steady_clock::now();
        if (now - window_start_ < std::chrono::milliseconds(10))
            return;
        const std::uint64_t ops = machine_.stats().mem_ops;
        run_.window_speeds.push_back(
            static_cast<double>(ops - window_ops_) /
            std::chrono::duration<double>(now - window_start_).count());
        window_start_ = now;
        window_ops_ = ops;
    }

    void run()
    {
        run_.setup_s = seconds_since(t0_);
        const auto h0 = std::chrono::steady_clock::now();
        window_start_ = h0;
        machine_.run();
        run_.host_s = seconds_since(h0);
        run_.stats = machine_.stats();
        run_.elapsed = machine_.elapsed();
    }

  private:
    SimRun& run_;
    std::uint32_t calls_;
    std::uint32_t warm_;
    std::chrono::steady_clock::time_point t0_;
    std::chrono::steady_clock::time_point window_start_;
    std::uint64_t window_ops_ = 0;
    sim::Machine machine_;
};

/// Per-processor think times in cycles.
inline std::vector<std::vector<std::uint32_t>> sim_thinks(
    std::uint64_t seed, std::size_t n, std::uint32_t lo, std::uint32_t hi)
{
    std::vector<std::vector<std::uint32_t>> t(kSimProcs);
    for (std::uint32_t p = 0; p < kSimProcs; ++p) {
        std::uint64_t rng = derive(seed, 200 + p);
        t[p].resize(n);
        for (auto& v : t[p])
            v = uniform(rng, lo, hi);
    }
    return t;
}

/// mutex workloads: @p count acquire/release pairs per processor.
template <bool kTraced, class L>
SimRun sim_mutex(const Workload& w, std::uint32_t count, std::uint64_t seed)
{
    SimRun r;
    SimHarness<kTraced> h(r, seed, count, count / 8);
    auto lock = std::make_unique<L>();
    auto data = std::make_unique<CounterPair<SimPlatform>>();
    const auto think = sim_thinks(seed, count, w.sim_think_lo, w.sim_think_hi);
    for (std::uint32_t p = 0; p < kSimProcs; ++p) {
        h.machine().spawn(p, [&, p] {
            std::uint64_t marks[2] = {0, 0};
            auto cs = [&] {
                r.fails += !data->check_and_bump();
                sim::delay(kSimCs);
            };
            for (std::uint32_t i = 0; i < count; ++i) {
                if (p == 0)
                    h.host_window();
                std::uint64_t* slot = h.sample(p, i);
                if constexpr (kTraced)
                    r.spans[p].begin_op();
                const std::uint64_t t0 = sim::now();
                exclusive<kTraced, SimClock>(*lock, cs, marks);
                const std::uint64_t t1 = sim::now();
                if (slot != nullptr) {
                    *slot = t1 - t0;
                    if constexpr (kTraced) {
                        r.spans[p].record(kSpanAcquire, t0, marks[0]);
                        r.spans[p].record(kSpanRelease, marks[1], t1);
                        r.spans[p].record(kSpanOp, t0, t1);
                    }
                }
                sim::delay(think[p][i]);
            }
        });
    }
    h.run();
    r.ops = std::uint64_t{kSimProcs} * count;
    r.fails = std::max(r.fails, data->lost(r.ops));
    if constexpr (requires { reactive_of(*lock).protocol_changes(); })
        r.protocol_changes = reactive_of(*lock).protocol_changes();
    return r;
}

/// rw_phases: @p phases phases of kSimPhaseOps operations per processor,
/// the first two of them warm-up.
template <bool kTraced, class L>
SimRun sim_rw(std::uint32_t phases, std::uint64_t seed)
{
    SimRun r;
    const std::uint32_t k = phases * kSimPhaseOps;
    SimHarness<kTraced> h(r, seed, k, phases > 2 ? 2 * kSimPhaseOps : 0);
    auto lock = std::make_unique<L>();
    auto rec = std::make_unique<Record<SimPlatform>>();
    std::vector<std::array<std::vector<std::uint8_t>, 2>> writes(kSimProcs);
    for (std::uint32_t p = 0; p < kSimProcs; ++p) {
        std::uint64_t rng = derive(seed, 400 + p);
        for (int ph = 0; ph < 2; ++ph) {
            writes[p][ph].resize(k);
            for (auto& v : writes[p][ph])
                v = draw_write(rng, ph);
        }
    }
    // The phase gate lives in host memory (the simulation is
    // sequential, so this is exact) and waits with sim::delay, so it adds
    // no simulated memory traffic.
    std::uint32_t arrived = 0;
    std::uint64_t total_writes = 0;
    for (std::uint32_t p = 0; p < kSimProcs; ++p) {
        h.machine().spawn(p, [&, p] {
            std::uint64_t marks[2] = {0, 0};
            auto read_cs = [&] { r.fails += !rec->check(); };
            auto write_cs = [&] {
                rec->rebuild([](std::uint64_t c) {
                    sim::delay(kSimWriteHold);
                    return c;
                });
            };
            for (std::uint32_t i = 0; i < k; ++i) {
                const std::uint32_t ph = i / kSimPhaseOps;
                if (i > 0 && i % kSimPhaseOps == 0) {
                    ++arrived;
                    while (arrived < kSimProcs * ph)
                        sim::delay(kSimGatePoll);
                }
                const bool write = writes[p][ph & 1u][i] != 0;
                if (p == 0)
                    h.host_window();
                std::uint64_t* slot = h.sample(p, i);
                if constexpr (kTraced)
                    r.spans[p].begin_op();
                const std::uint64_t t0 = sim::now();
                if (write)
                    rw_section<true, kTraced, SimClock>(*lock, write_cs, marks);
                else
                    rw_section<false, kTraced, SimClock>(*lock, read_cs, marks);
                const std::uint64_t t1 = sim::now();
                total_writes += write;
                if (slot != nullptr) {
                    *slot = t1 - t0;
                    if constexpr (kTraced) {
                        r.spans[p].record(write ? kSpanWriteAcquire
                                                : kSpanReadAcquire,
                                          t0, marks[0]);
                        r.spans[p].record(write ? kSpanWriteRelease
                                                : kSpanReadRelease,
                                          marks[1], t1);
                        r.spans[p].record(kSpanOp, t0, t1);
                    }
                }
            }
        });
    }
    h.run();
    r.ops = std::uint64_t{kSimProcs} * k;
    r.fails = std::max(r.fails, rec->mismatches(total_writes));
    if constexpr (requires { lock->protocol_changes(); })
        r.protocol_changes = lock->protocol_changes();
    return r;
}

/// barrier_phases: @p episodes episodes, the first two blocks warm-up.
template <bool kTraced, class B>
SimRun sim_barrier(const Workload& w, std::uint32_t episodes,
                   std::uint64_t seed)
{
    SimRun r;
    const std::uint32_t warm = episodes > 4 * kSimBlock ? 2 * kSimBlock : 0;
    SimHarness<kTraced> h(r, seed, episodes, warm);
    auto bar = std::make_unique<B>(kSimProcs);
    std::vector<typename B::Node> nodes(kSimProcs);
    const auto think =
        sim_thinks(seed, episodes, w.sim_think_lo, w.sim_think_hi);
    std::uint64_t srng = derive(seed, 7);
    const std::uint32_t straggler =
        static_cast<std::uint32_t>(splitmix64(srng) % kSimProcs);
    // Episode counters and entry stamps are host memory: checking the
    // barrier must not add simulated traffic to it.
    std::vector<std::uint64_t> cnt(kSimProcs, 0);
    std::vector<std::uint64_t> entry(std::size_t{episodes} * kSimProcs, 0);
    std::vector<std::uint64_t> exit(std::size_t{episodes} * kSimProcs, 0);
    for (std::uint32_t p = 0; p < kSimProcs; ++p) {
        h.machine().spawn(p, [&, p] {
            for (std::uint32_t e = 0; e < episodes; ++e) {
                sim::delay(think[p][e]);
                if (straggle_block(e, kSimBlock) && p == straggler)
                    sim::delay(kSimStraggle);
                cnt[p] = e + 1;
                if (p == 0)
                    h.host_window();
                std::uint64_t* slot = h.sample(p, e);
                if constexpr (kTraced)
                    r.spans[p].begin_op();
                const std::uint64_t t0 = sim::now();
                bar->arrive(nodes[p]);
                const std::uint64_t t1 = sim::now();
                entry[std::size_t{e} * kSimProcs + p] = t0;
                exit[std::size_t{e} * kSimProcs + p] = t1;
                for (std::uint64_t c : cnt)
                    r.fails += c < e + 1 || c > e + 2;
                if (slot != nullptr) {
                    *slot = t1 - t0;
                    if constexpr (kTraced) {
                        r.spans[p].record(kSpanArrive, t0, t1);
                        r.spans[p].record(kSpanOp, t0, t1);
                    }
                }
            }
        });
    }
    h.run();
    r.ops = episodes;
    // Release lag: from the episode's last arrival to each return.
    for (std::uint32_t e = warm; e < episodes; ++e) {
        const std::uint64_t* in = &entry[std::size_t{e} * kSimProcs];
        const std::uint64_t* out = &exit[std::size_t{e} * kSimProcs];
        const std::uint64_t last = *std::max_element(in, in + kSimProcs);
        for (std::uint32_t p = 0; p < kSimProcs; ++p)
            r.release_lag.push_back(out[p] > last ? out[p] - last : 0);
    }
    if constexpr (requires { bar->protocol_changes(); })
        r.protocol_changes = bar->protocol_changes();
    return r;
}

}  // namespace e2e
