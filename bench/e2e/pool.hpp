/**
 * @file
 * The pinned worker pool of the native half.
 *
 * The pool is spawned and pinned once per run; every trial hands all
 * workers one job and waits for it. Worker t is pinned to the (t+1)-th
 * allowed CPU, so with T = nproc - 1 workers the first allowed CPU is
 * left to the OS and to the timing thread. A trial that does not finish
 * within the watchdog period ends the process with a nonzero exit:
 * operations stuck inside a lock cannot be counted as done.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "host.hpp"

namespace e2e {

class Pool {
  public:
    /// Longest a trial may run. Simulated runs and solo figures, which
    /// cannot get stuck on a lock, wait with kNoWatchdog instead.
    static constexpr std::chrono::seconds kWatchdog{60};
    static constexpr std::chrono::seconds kNoWatchdog{24 * 3600};

    Pool(unsigned workers, const std::vector<int>& cpus)
    {
        threads_.reserve(workers);
        for (unsigned t = 0; t < workers; ++t) {
            const int cpu = cpus[(t + 1) % cpus.size()];
            threads_.emplace_back([this, t, cpu] { worker(t, cpu); });
        }
        // Pin failures are reported in the environment header, so wait
        // until every worker has tried.
        std::unique_lock<std::mutex> lk(mu_);
        cv_done_.wait(lk, [&] { return pinned_ == workers; });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            quit_ = true;
        }
        cv_job_.notify_all();
        for (auto& t : threads_)
            t.join();
    }

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    unsigned size() const { return static_cast<unsigned>(threads_.size()); }
    unsigned pin_failures() const { return pin_failures_; }

    /// Hands @p job to every worker; job(t) runs on worker t.
    void start(std::function<void(unsigned)> job)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            job_ = std::move(job);
            done_ = 0;
            ++generation_;
        }
        cv_job_.notify_all();
    }

    /// Waits for the current job on every worker; rethrows a worker's
    /// exception, and ends the process when @p watchdog expires.
    void wait(std::chrono::seconds watchdog = kWatchdog)
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (!cv_done_.wait_for(lk, watchdog,
                               [&] { return done_ == threads_.size(); })) {
            std::fprintf(stderr,
                         "bench_e2e: watchdog: a trial did not finish within "
                         "%lld s; operations are stuck\n",
                         static_cast<long long>(watchdog.count()));
            std::fflush(stdout);
            std::_Exit(3);
        }
        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

    /// start() then wait().
    void run(std::function<void(unsigned)> job,
             std::chrono::seconds watchdog = kWatchdog)
    {
        start(std::move(job));
        wait(watchdog);
    }

  private:
    void worker(unsigned t, int cpu)
    {
        const bool pinned = pin_current_thread(cpu);
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(mu_);
        if (!pinned)
            ++pin_failures_;
        ++pinned_;
        cv_done_.notify_all();
        for (;;) {
            cv_job_.wait(lk, [&] { return quit_ || generation_ != seen; });
            if (quit_)
                return;
            seen = generation_;
            std::function<void(unsigned)> job = job_;
            lk.unlock();
            std::exception_ptr err;
            try {
                job(t);
            } catch (...) {
                err = std::current_exception();
            }
            lk.lock();
            if (err && !error_)
                error_ = err;
            ++done_;
            cv_done_.notify_all();
        }
    }

    std::mutex mu_;  // guards every field below except threads_
    std::condition_variable cv_job_;
    std::condition_variable cv_done_;
    std::function<void(unsigned)> job_;
    std::uint64_t generation_ = 0;
    std::size_t done_ = 0;
    unsigned pinned_ = 0;
    unsigned pin_failures_ = 0;
    bool quit_ = false;
    std::exception_ptr error_;
    std::vector<std::thread> threads_;  // last: workers use the fields above
};

}  // namespace e2e
