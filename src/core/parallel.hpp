// parallel.hpp — shared thread pool and deterministic work sharding.
//
// Every Monte Carlo estimator in this library (bit-parallel activity
// measurement, timed glitch counting) is embarrassingly parallel
// across its vector stream.  This module provides the one pool they share:
// a fixed set of worker threads fed from a blocking task queue, plus a
// `parallel_for` that runs indexed chunks with the *calling thread
// participating* (so a 1-thread configuration degenerates to a plain loop
// with zero thread traffic).
//
// Determinism contract
//   Work decomposition (shard count, shard sizes, per-shard seeds) is a
//   function of the workload alone — never of the thread count.  Callers
//   split their stream with plan_shards(), seed each shard with
//   shard_seed(), and merge per-shard results in shard order.  The merged
//   result is therefore bit-identical at 1, 2, 4, ... threads; threads only
//   change which worker happens to execute a shard.
//
// Configuration: LPS_THREADS environment variable (default: hardware
// concurrency), overridable at runtime with set_num_threads() or the
// ScopedThreads RAII guard used by benchmarks and tests.
//
// Caching contract: LPS_THREADS is sampled exactly once — on the first
// num_threads() call anywhere in the process — and never re-read.  Changing
// the environment variable after that first call has NO effect; the only
// authoritative runtime override is set_num_threads() (which ScopedThreads
// and the bench binaries' --threads flag use).  test_parallel.cpp pins this.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lps::core {

/// Thrown by cancellation poll points when their token has fired.  The
/// service layer maps it to a structured "deadline" error; library callers
/// that installed no token never see it.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("operation cancelled (deadline)") {}
};

/// Cooperative cancellation token.  A long-running estimate is handed a
/// token; the watchdog (or any other thread) calls cancel(), and the
/// estimate observes it at its poll points — shard-chunk boundaries in the
/// Monte Carlo drivers (sim/logicsim.cpp, sim/waveform.cpp), frame batches
/// inside a shard, and the incremental analyzer's cone sweep — then throws
/// CancelledError.  Polling is one relaxed atomic load, so the check is
/// free on the hot path; cancellation latency is bounded by the work
/// between poll points (a shard chunk), never by the whole run.
///
/// Cancellation only ever aborts and discards a computation — it cannot
/// corrupt one: every poll point sits in code whose partial results are
/// either thrown away with the exception or restored by the caller
/// (power/incremental.hpp restores its caches before re-throwing).
class CancelToken {
 public:
  /// Request cancellation.  Safe from any thread, idempotent.
  void cancel() { flag_.store(true, std::memory_order_relaxed); }

  /// True once cancel() was called (or the poll budget ran out).
  bool cancelled() const {
    if (flag_.load(std::memory_order_relaxed)) return true;
    auto b = budget_.load(std::memory_order_relaxed);
    if (b >= 0 && budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      flag_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Deterministic test hook: auto-cancel after `n` further cancelled()
  /// checks — lets tests fire a cancellation at an exact poll point
  /// without any timing dependence.
  void cancel_after(std::int64_t n) {
    budget_.store(n, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<bool> flag_{false};
  mutable std::atomic<std::int64_t> budget_{-1};  // -1 = no budget
};

/// Poll point: throws CancelledError when `t` is set and has fired.
inline void poll_cancel(const CancelToken* t) {
  if (t && t->cancelled()) throw CancelledError();
}

/// Fixed-size pool of worker threads with a blocking task queue.  One job
/// (an indexed loop) runs at a time; submitters serialize.
class ThreadPool {
 public:
  /// `workers` background threads (0 is legal: every job then runs entirely
  /// on the submitting thread).  With `pin` set, worker t is pinned to CPU
  /// t % hardware_concurrency (Linux only; elsewhere `pin` is accepted and
  /// ignored) — see pin_threads() for why this is opt-in.
  explicit ThreadPool(unsigned workers, bool pin = false);

  /// Whether this pool's workers were pinned at construction.
  bool pinned() const { return pinned_; }
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execution lanes = workers + the submitting thread.
  unsigned lanes() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run fn(i) for every i in [0, n); blocks until all indices completed.
  /// The calling thread participates.  The first exception thrown by any
  /// index is rethrown here after the job drains.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;  // next index to hand out  (guarded by mu_)
    std::size_t done = 0;  // indices completed       (guarded by mu_)
    std::exception_ptr error;  // first failure        (guarded by mu_)
  };

  // Pull and run indices of *job until exhausted.  Called (and returns)
  // with `lk` held.
  void drain(Job* job, std::unique_lock<std::mutex>& lk);

  std::mutex mu_;
  std::condition_variable cv_;       // wakes workers: job posted / stop
  std::condition_variable done_cv_;  // wakes the submitter: job finished
  std::mutex submit_mu_;             // serializes for_each_index callers
  Job* job_ = nullptr;
  bool stop_ = false;
  bool pinned_ = false;
  std::vector<std::thread> workers_;
};

/// Current configured thread count (>= 1).  The FIRST call reads
/// LPS_THREADS (falling back to std::thread::hardware_concurrency()) and
/// caches the result; the environment is never consulted again.  Use
/// set_num_threads() to change the count after that.
unsigned num_threads();

/// Authoritative thread-count override: wins over LPS_THREADS regardless of
/// whether the environment was already sampled.  Rebuilds the shared pool
/// lazily.  Not safe concurrently with running parallel_for calls.
void set_num_threads(unsigned n);

/// RAII thread-count override for benchmarks and determinism tests.
class ScopedThreads {
 public:
  explicit ScopedThreads(unsigned n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ScopedThreads() { set_num_threads(prev_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  unsigned prev_;
};

/// Run fn(i) for i in [0, n) on the shared pool (caller participates).
/// With 1 configured thread or n <= 1 this is a plain serial loop.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Whether pool workers are pinned to cores (LPS_SIM_PIN, default off:
/// pinning helps dedicated estimation servers — stable L1/L2 residency for
/// each shard chunk's scratch, no migration between tape replays — but
/// hurts oversubscribed hosts where the scheduler needs to move work).
/// Same first-call caching and set-override contract as num_threads();
/// flipping it rebuilds the shared pool lazily.  Placement never changes
/// results — the determinism contract is seed/shard-plan based.
bool pin_threads();
void set_pin_threads(bool pin);

/// RAII pinning override for benchmarks and tests.
class ScopedPinning {
 public:
  explicit ScopedPinning(bool pin) : prev_pin_(pin_threads()) {
    set_pin_threads(pin);
  }
  ~ScopedPinning() { set_pin_threads(prev_pin_); }
  ScopedPinning(const ScopedPinning&) = delete;
  ScopedPinning& operator=(const ScopedPinning&) = delete;

 private:
  bool prev_pin_;
};

/// Finalizing 64-bit mixer (splitmix64).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic per-shard RNG seed: a pure function of the user seed and
/// the shard index, independent of thread count.
constexpr std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t shard) {
  return mix64(seed + 0x9E3779B97F4A7C15ull * (shard + 1));
}

/// Deterministic decomposition of `total` items into shards: every shard
/// gets `per_shard` items except the last, which absorbs the remainder.
/// Depends only on the workload — the determinism contract above.
struct ShardPlan {
  std::size_t shards = 1;
  std::size_t per_shard = 0;
  std::size_t total = 0;

  std::size_t begin(std::size_t s) const { return s * per_shard; }
  std::size_t count(std::size_t s) const {
    return s + 1 < shards ? per_shard : total - per_shard * (shards - 1);
  }
};

/// Plan at least `min_per_shard` items per shard, at most `max_shards`
/// shards (so tiny workloads stay serial and keep their legacy RNG stream).
ShardPlan plan_shards(std::size_t total, std::size_t min_per_shard,
                      std::size_t max_shards = 64);

/// Pool-dispatch grain for `shards` independent shards: how many chunk
/// tasks the Monte Carlo drivers submit.  Two chunks per execution lane
/// (capped by the shard count) so a lane that finishes early steals a
/// second chunk instead of idling — with one-chunk-per-lane the whole run
/// waits on the slowest lane, which is what flattened the 8/16-thread
/// scaling curve.  Chunk boundaries never affect results: per-shard seeds
/// and counts come from the plan alone, and chunk accumulators merge in
/// chunk order == shard order.
std::size_t plan_chunks(std::size_t shards);

}  // namespace lps::core
