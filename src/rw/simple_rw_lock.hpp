/**
 * @file
 * Centralized test-and-test-and-set style reader-writer lock.
 *
 * All state lives in one cache line: bit 0 is the writer bit, bit 31 is
 * the INVALID bit (the consensus-object sentinel used by the reactive
 * rwlock; never set in standalone use), and the remaining bits count
 * active readers in units of kReaderUnit. Readers read-poll until the
 * writer bit clears, then optimistically fetch&add a reader unit and
 * back out if a writer slipped in; writers read-poll until the word is
 * zero, then compare&swap the writer bit. Both sides use randomized
 * exponential backoff after failed attempts (Section 3.1.1).
 *
 * This is the low-contention half of the reactive rwlock: a read
 * acquisition is a single fetch&add on a cached line, and an
 * uncontended write acquisition is a single compare&swap. Under write
 * contention the line ping-pongs exactly like a TTS mutex word —
 * every release triggers an invalidation round over all pollers — and
 * under heavy reader traffic the fetch&add stream serializes at the
 * line's home directory; both regimes are where the queue protocol
 * (queue_rw_lock.hpp) takes over.
 *
 * Writer preference/fairness: none. Writers can starve under a
 * continuous reader stream (the thesis' centralized protocols make the
 * same trade); the queue protocol is the fair one.
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "platform/backoff.hpp"
#include "platform/platform_concept.hpp"
#include "rw/rw_concepts.hpp"

namespace reactive {

/**
 * Centralized reader-writer lock (single word + backoff).
 *
 * @tparam P Platform model.
 */
template <Platform P>
class SimpleRwLock {
  public:
    /// No per-acquisition state; kept for RwLock interface uniformity.
    struct Node {};

    /// Outcome of a single non-blocking acquisition attempt (the
    /// primitive the reactive dispatcher composes with its own
    /// mode-aware retry loop).
    enum class Attempt : std::uint32_t {
        kAcquired,  ///< success
        kBusy,      ///< conflicting holder; poll again
        kInvalid,   ///< protocol retired (reactive use only)
    };

    SimpleRwLock() = default;
    explicit SimpleRwLock(BackoffParams backoff) : backoff_params_(backoff) {}

    // ---- plain blocking interface (RwLock concept) -------------------

    void lock_read(Node&)
    {
        ExpBackoff<P> backoff(backoff_params_);
        for (;;) {
            // Read-poll while a writer is visibly inside (cache-local).
            while (word_.load(std::memory_order_relaxed) & kWriterBit)
                P::pause();
            const Attempt a = try_lock_read();
            if (a == Attempt::kAcquired)
                return;
            assert(a != Attempt::kInvalid &&
                   "invalidated lock used through the plain interface");
            backoff.pause();
        }
    }

    void unlock_read(Node&) { unlock_read(); }

    void lock_write(Node&)
    {
        ExpBackoff<P> backoff(backoff_params_);
        for (;;) {
            while (word_.load(std::memory_order_relaxed) != 0)
                P::pause();
            const Attempt a = try_lock_write();
            if (a == Attempt::kAcquired)
                return;
            assert(a != Attempt::kInvalid &&
                   "invalidated lock used through the plain interface");
            backoff.pause();
        }
    }

    void unlock_write(Node&) { unlock_write(); }

    // ---- single-attempt primitives (reactive dispatcher) -------------

    /// One read-acquisition attempt: optimistic fetch&add, backed out
    /// if a writer (or retirement) raced in between test and add.
    Attempt try_lock_read()
    {
        bool emptied = false;
        return try_lock_read(emptied);
    }

    /// try_lock_read that also sets @p emptied when its back-out left
    /// the word empty: the writer it raced has left meanwhile, so the
    /// back-out is the last departure from the word, exactly like a
    /// last reader's release (see unlock_read).
    Attempt try_lock_read(bool& emptied)
    {
        const std::uint32_t seen = word_.load(std::memory_order_relaxed);
        if (seen & kInvalidBit)
            return Attempt::kInvalid;
        if (seen & kWriterBit)
            return Attempt::kBusy;
        const std::uint32_t prev =
            word_.fetch_add(kReaderUnit, std::memory_order_acquire);
        if (prev & (kWriterBit | kInvalidBit)) {
            emptied = word_.fetch_sub(kReaderUnit,
                                      std::memory_order_release) ==
                      kReaderUnit;
            return (prev & kInvalidBit) ? Attempt::kInvalid : Attempt::kBusy;
        }
        return Attempt::kAcquired;
    }

    /// One write-acquisition attempt: compare&swap from the empty word.
    Attempt try_lock_write()
    {
        std::uint32_t expected = 0;
        if (word_.compare_exchange_strong(expected, kWriterBit,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed))
            return Attempt::kAcquired;
        return (expected & kInvalidBit) ? Attempt::kInvalid : Attempt::kBusy;
    }

    /// Read release; true when it left the word empty. Only that
    /// release can admit a writer, and no read release admits a
    /// reader (it never clears the writer bit), so a caller whose
    /// waiters park wakes them only on true.
    bool unlock_read()
    {
        return word_.fetch_sub(kReaderUnit, std::memory_order_release) ==
               kReaderUnit;
    }

    /// Write release. An RMW, not a store: the word may transiently
    /// carry reader units from optimistic fetch&adds that are about to
    /// back themselves out, and a blind store would erase them (their
    /// back-out fetch&sub would then wrap the count).
    void unlock_write()
    {
        word_.fetch_sub(kWriterBit, std::memory_order_release);
    }

    // ---- consensus-object entry points (reactive rwlock only) --------

    /// Retires the protocol. Caller must hold the write lock, so the
    /// word is kWriterBit plus possibly some transient optimistic
    /// reader units; one RMW swaps the writer bit for the INVALID bit,
    /// preserving those units for their owners' back-outs.
    void invalidate_from_writer()
    {
        word_.fetch_add(kInvalidBit - kWriterBit, std::memory_order_release);
    }

    /// Designates the protocol and frees it. Caller must hold the other
    /// protocol's consensus object (serialization of protocol changes).
    /// Also an RMW, preserving transient optimistic reader units.
    void validate_free()
    {
        word_.fetch_sub(kInvalidBit, std::memory_order_release);
    }

    // ---- racy inspection (tests, monitoring) -------------------------

    std::uint32_t readers() const
    {
        return (word_.load(std::memory_order_relaxed) & ~kInvalidBit) /
               kReaderUnit;
    }

    bool has_writer() const
    {
        return (word_.load(std::memory_order_relaxed) & kWriterBit) != 0;
    }

    bool is_invalid() const
    {
        return (word_.load(std::memory_order_relaxed) & kInvalidBit) != 0;
    }

  private:
    static constexpr std::uint32_t kWriterBit = 1u;
    static constexpr std::uint32_t kInvalidBit = 1u << 31;
    static constexpr std::uint32_t kReaderUnit = 2u;

    typename P::template Atomic<std::uint32_t> word_{0};
    BackoffParams backoff_params_{};
};

}  // namespace reactive
