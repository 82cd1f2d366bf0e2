/**
 * @file
 * ConsensusPoint: the one in-consensus step every reactive primitive
 * takes (thesis Sections 3.2.5-3.2.6).
 *
 * A reactive primitive adapts only where one process provably holds the
 * valid protocol's consensus object: the lock holder, the writing
 * writer, the barrier episode's completer. That process may touch
 * policy state race-free, so monitoring rides on the waiting it just
 * did and every decision is serialized against every protocol
 * execution. ReactiveLock, ReactiveRwLock and ReactiveBarrier each hold
 * one ConsensusPoint and call it at those places; it owns everything
 * the step needs beyond the primitive's own protocol words:
 *
 *  - the protocol-selection policy and the change count;
 *  - the socket-of-previous-holder tracker (calibrating policies);
 *  - the trace identity, and every acq-sample / episode / switch /
 *    probe / regret / park / wait-mode event;
 *  - the waiting axis: the object-level WaitSite and, under
 *    ParkWaiting, the holder-only wait-policy state.
 *
 * The primitives keep their protocol words, their mode stores and their
 * release ordering; this class never touches simulated shared memory
 * except through the site's hint word in publish_wait. Under
 * SpinWaiting every wait-axis member is empty and every wait-axis call
 * is a no-op. Each decision shows the policy one `Observation`
 * (core/policy.hpp); the cost sample and the socket bit in it are filled
 * only for a calibrating policy. DESIGN.md ("One consensus point") gives
 * the rules: which wins carry a cost sample, why each hook is in
 * consensus, and why the wait-span lane is fed by the lock only.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "audit/audit.hpp"
#include "core/cost_model.hpp"
#include "core/protocol_set.hpp"
#include "platform/platform_concept.hpp"
#include "trace/instrument.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/**
 * The consensus step of one reactive object.
 *
 * @tparam P          Platform model.
 * @tparam Policy     switching policy: a SelectPolicy, or a binary
 *                    SwitchPolicy (embedded through SelectAdapter).
 * @tparam Waiting    SpinWaiting or ParkWaiting (the site's tag).
 * @tparam WaitPolicy WaitSelectPolicy (used under ParkWaiting only).
 */
template <Platform P, typename Policy, typename Waiting = SpinWaiting,
          typename WaitPolicy = CalibratedWaitPolicy>
class ConsensusPoint {
  public:
    /// The select-interface view of the policy parameter.
    using Select = SelectFor<Policy>;
    /// The object-level waiting site.
    using Site = WaitSite<P, Waiting>;
    /// Whether slow-path waits may park (ParkWaiting instantiations).
    static constexpr bool kParking = Site::kParking;
    /// Whether the policy consumes cycle samples (core/policy.hpp). Only
    /// then is any timestamp taken or the socket bit computed for it.
    static constexpr bool kCalibrating = CalibratingSelectPolicy<Select>;

    static_assert(SelectPolicy<Select>);
    static_assert(WaitSelectPolicy<WaitPolicy>);

    /// Whether a slow-path win's wait span feeds the wait policy's
    /// W lane (the lock only; see DESIGN.md).
    enum class WaitSpan : bool { kSkip, kFeed };

    struct NoWakeCarry {};
    /// Wake latency a waiter that is not in consensus when it wakes (a
    /// barrier participant) carries to its next consensus point. Empty
    /// under SpinWaiting.
    using WakeCarry =
        std::conditional_t<kParking, std::uint64_t, NoWakeCarry>;

    /**
     * @param cls       trace object class of the owning primitive.
     * @param protocols size of its protocol set: decisions outside it
     *                  are clamped, runtime-sized ladder policies are
     *                  resized to it.
     * @param policy    the switching policy.
     * @param arrivals  participants per episode (barriers; recorded in
     *                  the kEpisode event).
     */
    ConsensusPoint(trace::ObjectClass cls, std::uint32_t protocols,
                   Policy policy, std::uint32_t arrivals = 0)
        : select_(std::move(policy)),
          cls_(cls),
          protocols_(protocols),
          arrivals_(arrivals),
          trace_id_(trace::new_object(cls))
    {
        // A 2-rung ladder over a 3-protocol set would never reach the
        // top rung; an oversized one would spend evidence on rungs that
        // do not exist. Sizes already equal to the set are untouched.
        if constexpr (requires { select_.resize_protocols(protocols); })
            select_.resize_protocols(protocols);
        site_.set_trace_identity(cls, trace_id_);
    }

    // ---- accessors ---------------------------------------------------

    /// The policy as passed in (binary policies are unwrapped from their
    /// adapter). In-consensus callers only.
    Policy& policy()
    {
        if constexpr (SelectPolicy<Policy>)
            return select_;
        else
            return select_.underlying();
    }

    /// Wait-policy state (in-consensus callers only).
    WaitPolicy& wait_policy()
        requires kParking
    {
        return wstate_.policy;
    }

    Site& site() { return site_; }
    const Site& site() const { return site_; }

    /// Completed protocol changes.
    std::uint64_t protocol_changes() const { return protocol_changes_; }

    /// Wait-mode transitions published so far. Observability only: the
    /// final hint says nothing about a run (a calibrated policy decays
    /// back to spin as contention drains at the end).
    std::uint64_t wait_mode_changes() const
        requires kParking
    {
        return wstate_.mode_changes;
    }

    // ---- cost samples ------------------------------------------------

    /// Start stamp of a cost sample. The clock is read only for
    /// calibrating policies; the others never see cycles.
    static std::uint64_t clock()
    {
        if constexpr (kCalibrating)
            return P::now();
        else
            return 0;
    }

    /// Cycles since a clock() stamp (0, unread, when not calibrating).
    static std::uint64_t since(std::uint64_t start)
    {
        if constexpr (kCalibrating) {
            return P::now() - start;
        } else {
            (void)start;
            return 0;
        }
    }

    // ---- the consensus step ------------------------------------------

    /**
     * A fast-path or try win on @p protocol: the winner is the new
     * holder, so it is in consensus, but its win says nothing reliable
     * about contention and is not observed. A policy with an
     * `on_tts_fast_acquire()` hook hears a bare won-here note for
     * protocol 0 (the TTS / simple word), the socket tracker records the
     * new holder, and the hold is stamped.
     */
    void fast_acquired(std::uint32_t protocol)
    {
        if constexpr (requires { select_.on_tts_fast_acquire(); }) {
            if (protocol == 0)
                select_.on_tts_fast_acquire();
        }
        if constexpr (kCalibrating)
            (void)socket_.note_handoff();
        stamp_hold();
        REACTIVE_TRACE_EVENT(trace::EventType::kFastAcquire, cls_, trace_id_,
                             static_cast<std::uint8_t>(protocol),
                             static_cast<std::uint8_t>(protocol), P::now());
    }

    /**
     * A slow-path winner — now the holder — reports how it waited and
     * stamps its hold: the measured wake latency, any deschedule seen
     * while it spun (and, with WaitSpan::kFeed, the wait span) go to
     * the single-writer wait policy, and a parked wait is traced.
     */
    void waited(const AwaitResult& wr, WaitSpan span = WaitSpan::kSkip)
    {
        if constexpr (kParking) {
            if constexpr (requires(std::uint64_t c) {
                              wstate_.policy.note_wait(c);
                          }) {
                if (span == WaitSpan::kFeed && wr.wait_cycles != 0)
                    wstate_.policy.note_wait(wr.wait_cycles);
            }
            if constexpr (requires { wstate_.policy.note_descheduled(); }) {
                if (wr.descheduled)
                    wstate_.policy.note_descheduled();
            }
            if (wr.blocked) {
                if (wr.wake_latency != 0)
                    wstate_.policy.note_wake_latency(wr.wake_latency);
                trace_park(wr);
            }
        } else {
            (void)wr;
            (void)span;
        }
        stamp_hold();
    }

    /// A waiter that is not in consensus (a reader) records its park.
    /// Trace only: no policy state is touched.
    void parked(const AwaitResult& wr)
    {
        if constexpr (kParking) {
            if (wr.blocked)
                trace_park(wr);
        } else {
            (void)wr;
        }
    }

    /// parked(), and the wake latency is carried in @p carry until the
    /// waiter is next in consensus (publish_wait feeds it).
    void parked(const AwaitResult& wr, WakeCarry& carry)
    {
        if constexpr (kParking) {
            if (wr.blocked) {
                carry = wr.wake_latency;
                trace_park(wr);
            }
        } else {
            (void)wr;
            (void)carry;
        }
    }

    /**
     * The slow-path decision: shows the policy @p obs, clamps an
     * out-of-range answer to "stay", and traces the sample, any probe
     * edge and the regret account.
     *
     * Callers set `obs.cycles` only for clean-class samples (an
     * immediate win, a win past the retry limit, a queue acquisition, a
     * barrier episode): a mid-spin win measures waiting, not protocol
     * cost. A calibrating policy also gets the socket bit, and the new
     * holder's socket is noted; a non-calibrating policy never sees
     * cycles.
     */
    std::uint32_t observe(Observation obs)
    {
        const trace::ProbeWatch<Select> probe(select_, trace::enabled());
        // The trace keeps the caller's sample even where the policy
        // does not see it.
        [[maybe_unused]] const std::uint64_t cycles = obs.cycles.value_or(0);
        if constexpr (kCalibrating)
            obs.cross = socket_.note_handoff();
        else
            obs.cycles.reset();
        std::uint32_t next = select_.next_protocol(obs);
        if (next >= protocols_)
            next = obs.protocol;  // a policy bug must not wedge the object
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]]
                trace_decision(obs, next, cycles, probe);
        }
        return next;
    }

    /**
     * A protocol change @p from -> @p to, reported by the holder after
     * its mode store (and any dismantling of the old protocol), while it
     * still holds the consensus object. @p start is the change's clock()
     * stamp; @p drift the signal that asked for it.
     */
    void switched(std::uint32_t from, std::uint32_t to, int drift,
                  std::uint64_t start)
    {
        ++protocol_changes_;
        select_.on_switch();
        [[maybe_unused]] std::uint64_t dur = 0;
        if constexpr (kCalibrating) {
            dur = P::now() - start;
            select_.on_switch_cycles(dur);
        } else {
            (void)start;
        }
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]]
                trace::emit(trace::EventType::kSwitch, cls_, trace_id_,
                            static_cast<std::uint8_t>(from),
                            static_cast<std::uint8_t>(to), P::now(),
                            trace::pack_signal(from, drift),
                            trace::estimator_pair(select_, from, to), dur);
        }
    }

    // ---- waiting-mode selection --------------------------------------

    /// Every holder stamps its hold start so the departing holder can
    /// report its span for free. The stamp also closes the
    /// release-to-acquire handoff gap: the policy recovers it from the
    /// release-stamped WaitSignal.
    void stamp_hold()
    {
        if constexpr (kParking)
            wstate_.hold_start = P::now();
    }

    /// The departing holder's wait signal: the span since the last hold
    /// stamp (0 before the first) and @p queue_depth waiters.
    WaitSignal hold_signal(std::uint32_t queue_depth) const
    {
        WaitSignal ws;
        if constexpr (kParking) {
            const std::uint64_t now = P::now();
            const std::uint64_t start = wstate_.hold_start;
            ws.hold_cycles = start != 0 && now > start ? now - start : 0;
            ws.queue_depth = queue_depth;
            ws.now_cycles = now;
        } else {
            (void)queue_depth;
        }
        return ws;
    }

    /// Departing lock holder or writer (still in consensus): the hold's
    /// span and the parked-waiter count go to the wait policy. Returns
    /// the published hint (0 under SpinWaiting).
    std::uint32_t publish_wait()
    {
        return publish_wait(hold_signal(site_.waiters()));
    }

    /// publish_wait for a completer that carries a wake latency from
    /// its last parked wait: the latency is fed first.
    std::uint32_t publish_wait(const WaitSignal& ws, WakeCarry& carry)
    {
        if constexpr (kParking) {
            if (carry != 0) {
                wstate_.policy.note_wake_latency(carry);
                carry = 0;
            }
        } else {
            (void)carry;
        }
        return publish_wait(ws);
    }

    /**
     * Folds @p ws into the wait policy and publishes the new hint on the
     * site before the release frees the waiters, so they dispatch under
     * it.
     */
    std::uint32_t publish_wait(const WaitSignal& ws)
    {
        if constexpr (kParking) {
            const auto old_mode = static_cast<std::uint8_t>(
                unpack_wait_hint(wstate_.policy.hint()).mode);
            const std::uint32_t h = wstate_.policy.on_release(ws);
            const auto new_mode =
                static_cast<std::uint8_t>(unpack_wait_hint(h).mode);
            if (new_mode != old_mode)
                ++wstate_.mode_changes;
            site_.set_hint(h);
            if constexpr (trace::kCompiled) {
                if (new_mode != old_mode && trace::enabled()) [[unlikely]]
                    trace_wait_mode(old_mode, new_mode, h);
            }
            return h;
        } else {
            (void)ws;
            return 0;
        }
    }

  private:
    /// Park-axis holder state; the empty stand-in keeps SpinWaiting
    /// objects free of it.
    struct ParkWaitState {
        WaitPolicy policy{};
        std::uint64_t hold_start = 0;  ///< stamped by every new holder
        std::uint64_t mode_changes = 0;
    };
    struct NoWaitState {};
    using WaitState = std::conditional_t<kParking, ParkWaitState, NoWaitState>;

    /// The decision record: the sample event (kAcqSample, or kEpisode
    /// for a barrier), probe edges, and the regret of the realized cost
    /// against the policy's cheapest estimate. Host memory only.
    void trace_decision(const Observation& obs, std::uint32_t next,
                        std::uint64_t cycles,
                        const trace::ProbeWatch<Select>& probe)
    {
        const std::uint64_t ts = P::now();
        const auto from = static_cast<std::uint8_t>(obs.protocol);
        const auto to = static_cast<std::uint8_t>(next);
        if (cls_ == trace::ObjectClass::kBarrier)
            trace::emit(trace::EventType::kEpisode, cls_, trace_id_, from,
                        from, ts, cycles, arrivals_);
        else
            trace::emit(trace::EventType::kAcqSample, cls_, trace_id_, from,
                        to, ts, cycles,
                        trace::pack_signal(obs.protocol, obs.drift));
        probe.emit_edges(select_, cls_, trace_id_, from, to, ts);
        if constexpr (kCalibrating) {
            if (cycles == 0)
                return;
            if (const auto best = audit::best_alternative(select_, protocols_)) {
                const std::uint64_t regret =
                    audit::record(cls_, trace_id_, cycles, *best);
                trace::emit(trace::EventType::kRegret, cls_, trace_id_, from,
                            to, ts, cycles, *best, regret);
            }
        }
    }

    void trace_park(const AwaitResult& wr)
    {
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]] {
                const auto m = static_cast<std::uint8_t>(
                    unpack_wait_hint(site_.hint()).mode);
                trace::emit(trace::EventType::kPark, cls_, trace_id_, m, m,
                            P::now(), wr.wait_cycles, wr.wake_latency);
            }
        } else {
            (void)wr;
        }
    }

    /// a0 carries the new hint in its low half and, for a policy
    /// gated on deschedule evidence, the releases since the last
    /// report in its high half (why it left spin).
    void trace_wait_mode(std::uint8_t old_mode, std::uint8_t new_mode,
                         std::uint32_t hint)
    {
        std::uint64_t a0 = hint;
        std::uint64_t ests = 0;
        std::uint64_t ew = 0;
        if constexpr (requires {
                          wstate_.policy.hold_estimate();
                          wstate_.policy.block_estimate();
                          wstate_.policy.expected_wait();
                      }) {
            ests = (wstate_.policy.hold_estimate() << 32) |
                   (wstate_.policy.block_estimate() & 0xffffffffull);
            ew = wstate_.policy.expected_wait();
        }
        if constexpr (requires {
                          wstate_.policy.releases_since_deschedule();
                      }) {
            a0 |= std::uint64_t{wstate_.policy.releases_since_deschedule()}
                  << 32;
        }
        trace::emit(trace::EventType::kWaitModeSwitch, cls_, trace_id_,
                    old_mode, new_mode, P::now(), a0, ests, ew);
    }

    Select select_;
    std::uint64_t protocol_changes_ = 0;
    SocketHandoffTracker<P> socket_;
    [[no_unique_address]] Site site_;
    [[no_unique_address]] WaitState wstate_;
    trace::ObjectClass cls_;
    std::uint32_t protocols_;
    std::uint32_t arrivals_;
    // Trace identity (0 when tracing is compiled out).
    std::uint32_t trace_id_;
};

}  // namespace reactive
