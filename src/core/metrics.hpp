// metrics.hpp — experiment observability substrate: named counters, timers,
// and per-stage traces.
//
// The ROADMAP's north-star asks for observability on every hot path.  This
// module is the one place it lives: a process-wide registry of named double
// counters (simulation vector/event counts, BDD node/cache statistics,
// thread-pool job totals, flow.* stage outcomes) plus an ordered per-stage
// trace of timed regions (one flow.<pass> event per PassManager pass, the
// flows' stages included).  Producers pay one mutex
// acquisition per *bulk* update — hot loops accumulate locally and publish
// once — so instrumentation is always on.
//
// Consumers: bench_util.hpp serializes a snapshot into every bench's --json
// document (the "metrics" object), and tools/check_experiments.py can gate
// on them alongside the claim values.  Tests reset the registry with
// metrics::reset() to observe a single operation in isolation.

#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lps::core::metrics {

/// One timed region in the per-stage trace (insertion-ordered).
struct StageEvent {
  std::string name;
  double wall_ms = 0.0;
};

/// Process-wide metrics registry.  All members are thread-safe.
class Registry {
 public:
  static Registry& global();

  /// Accumulate `delta` into the named counter (created at 0 on first use).
  void add(std::string_view name, double delta);
  /// Overwrite the named counter (gauge semantics).
  void set(std::string_view name, double value);
  /// Current value of a counter; 0.0 when it was never touched.
  double value(std::string_view name) const;
  /// Append one event to the per-stage trace and accumulate its wall time
  /// into the counter `time_ms.<name>`.
  void record_stage(std::string_view name, double wall_ms);

  /// Sorted snapshot of every counter.
  std::map<std::string, double> counters() const;
  /// The per-stage trace in recording order.
  std::vector<StageEvent> stages() const;

  /// Drop all counters and the stage trace (tests and bench isolation).
  void reset();

  /// Serialize counters (and, when non-empty, the stage trace) as a JSON
  /// object: {"counters": {...}, "stages": [{"name":..., "wall_ms":...}]}.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> counters_;
  std::vector<StageEvent> stages_;
};

/// Accumulate into a counter on the global registry.
inline void count(std::string_view name, double delta = 1.0) {
  Registry::global().add(name, delta);
}
/// Gauge write on the global registry.
inline void gauge(std::string_view name, double value) {
  Registry::global().set(name, value);
}
/// Read a counter from the global registry.
inline double value(std::string_view name) {
  return Registry::global().value(name);
}
/// Reset the global registry.
inline void reset() { Registry::global().reset(); }

/// RAII wall-clock timer: on destruction adds the elapsed milliseconds to
/// the counter `time_ms.<name>` and, when `trace` is set, appends a
/// StageEvent so stage-by-stage breakdowns stay ordered.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string name, bool trace = false)
      : name_(std::move(name)),
        trace_(trace),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string name_;
  bool trace_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lps::core::metrics
