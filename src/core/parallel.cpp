#include "core/parallel.hpp"

#include <algorithm>
#include <memory>

#include "core/env.hpp"
#include "core/metrics.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace lps::core {

namespace {

// Pin the calling thread to one CPU, round-robin over the visible set.
// Best-effort: a failed affinity call (restricted cpuset, exotic kernel) is
// ignored — pinning is a locality hint, never a correctness requirement.
void pin_self(unsigned slot) {
#if defined(__linux__)
  unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(slot % ncpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)slot;
#endif
}

}  // namespace

ThreadPool::ThreadPool(unsigned workers, bool pin) : pinned_(pin) {
  metrics::count("parallel.pools_built");
  workers_.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    workers_.emplace_back([this, t, pin] {
      // Worker t takes CPU slot t + 1; the submitting thread (which also
      // executes chunks) implicitly owns slot 0.
      if (pin) pin_self(t + 1);
      std::unique_lock lk(mu_);
      for (;;) {
        cv_.wait(lk, [&] { return stop_ || (job_ && job_->next < job_->n); });
        if (stop_) return;
        drain(job_, lk);
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(Job* job, std::unique_lock<std::mutex>& lk) {
  while (job->next < job->n) {
    std::size_t i = job->next++;
    lk.unlock();
    std::exception_ptr err;
    try {
      (*job->fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    if (err && !job->error) job->error = err;
    if (++job->done == job->n) done_cv_.notify_all();
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::lock_guard submit(submit_mu_);
  Job job;
  job.fn = &fn;
  job.n = n;
  std::unique_lock lk(mu_);
  job_ = &job;
  cv_.notify_all();
  drain(&job, lk);
  done_cv_.wait(lk, [&] { return job.done == job.n; });
  job_ = nullptr;
  lk.unlock();
  if (job.error) std::rethrow_exception(job.error);
}

namespace {

std::mutex g_config_mu;
unsigned g_threads = 0;  // 0 = not yet initialized
int g_pin = -1;          // -1 = not yet sampled from LPS_SIM_PIN
std::unique_ptr<ThreadPool> g_pool;

unsigned default_threads() {
  unsigned hc = std::thread::hardware_concurrency();
  // Malformed LPS_THREADS is rejected with a positioned diagnostic on
  // stderr and falls back to hardware concurrency (core/env.hpp) — it no
  // longer behaves silently like an unset variable.
  long v = env_long_or("LPS_THREADS", 1, 256,
                       static_cast<long>(hc ? hc : 1));
  return static_cast<unsigned>(v);
}

}  // namespace

unsigned num_threads() {
  std::lock_guard lk(g_config_mu);
  if (g_threads == 0) g_threads = default_threads();
  return g_threads;
}

void set_num_threads(unsigned n) {
  std::lock_guard lk(g_config_mu);
  g_threads = std::clamp(n, 1u, 256u);
  g_pool.reset();  // rebuilt lazily at the new size
}

bool pin_threads() {
  std::lock_guard lk(g_config_mu);
  if (g_pin < 0) g_pin = env_bool_or("LPS_SIM_PIN", false) ? 1 : 0;
  return g_pin != 0;
}

void set_pin_threads(bool pin) {
  std::lock_guard lk(g_config_mu);
  int v = pin ? 1 : 0;
  if (g_pin == v) return;
  g_pin = v;
  g_pool.reset();  // rebuilt lazily with the new affinity policy
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  unsigned threads = num_threads();
  // Sampled before g_config_mu is taken below — pin_threads() locks it too.
  bool pin = pin_threads();
  metrics::count("parallel.jobs");
  metrics::count("parallel.indices", static_cast<double>(n));
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool* pool;
  {
    std::lock_guard lk(g_config_mu);
    if (!g_pool || g_pool->lanes() != g_threads || g_pool->pinned() != pin)
      g_pool = std::make_unique<ThreadPool>(g_threads - 1, pin);
    pool = g_pool.get();
  }
  pool->for_each_index(n, fn);
}

std::size_t plan_chunks(std::size_t shards) {
  unsigned t = num_threads();
  std::size_t lanes = t <= 1 ? 1 : static_cast<std::size_t>(t) * 2;
  return std::max<std::size_t>(1, std::min(shards, lanes));
}

ShardPlan plan_shards(std::size_t total, std::size_t min_per_shard,
                      std::size_t max_shards) {
  ShardPlan p;
  p.total = total;
  if (min_per_shard == 0) min_per_shard = 1;
  p.shards = std::clamp<std::size_t>(total / min_per_shard, 1,
                                     std::max<std::size_t>(1, max_shards));
  p.per_shard = total / p.shards;
  return p;
}

}  // namespace lps::core
