// E23 — resilient lpsd session service under chaos.  A long-lived
// estimation daemon is only useful if no client behaviour — malformed
// frames, hostile bytes, deadline storms, cache-evicting memory pressure,
// injected engine failures, or a kill mid-mutation — can crash it, wedge a
// session, or silently corrupt an estimate.  This harness drives the
// service layer (src/service/) through a multi-threaded request storm with
// injected chaos, then checks the robustness ledger the hard way:
//
//   * every request, hostile or not, produced a parsable JSON response
//     with a structured ok/error shape (errors_structured_frac == 1);
//   * the process survived the storm and the 3000-frame protocol fuzz
//     (soak_crashes == 0, fuzz_crashes == 0);
//   * every injected degradation (forced compiled-tape failure, cache
//     eviction) is visible in the metrics/stat ledger, never silent;
//   * recovering the journals into a fresh service reproduces the live
//     sessions' structural hashes exactly, and a torn journal tail
//     recovers to the last committed state;
//   * plain estimates stay fast under chaos (p99 latency, throughput).
//
// Any violated invariant exits non-zero — this binary is the CI
// chaos-soak gate (run under ASan/UBSan with an extended LPS_SOAK_MS).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/env.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "power/incremental.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/sockets.hpp"

namespace {

using namespace lps;
using service::Json;

void hard_assert(bool cond, const std::string& what) {
  if (!cond) {
    std::cerr << "\nE23 HARD FAILURE: " << what << "\n";
    std::exit(1);
  }
}

// A fresh journal directory, removed with everything in it when the guard
// goes out of scope.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/lps_bench_service_XXXXXX";
    hard_assert(::mkdtemp(tmpl) != nullptr, "mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

std::string bench_blif() {
  return blif::write_string(bench::ripple_carry_adder(8));
}

// Shared response validator: the one invariant every phase leans on.
struct Ledger {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> structured{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> deadline_errors{0};
};

bool validate(const std::string& resp, Ledger& led) {
  led.requests.fetch_add(1, std::memory_order_relaxed);
  auto doc = service::json_parse(resp);
  if (!doc || !doc->is_object()) return false;
  const Json* okf = doc->find("ok");
  if (!okf || !okf->is_bool()) return false;
  if (okf->as_bool()) {
    led.ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    const Json* e = doc->find("error");
    const Json* c = e ? e->find("code") : nullptr;
    if (!c || !c->is_string()) return false;  // error without a code
    led.errors.fetch_add(1, std::memory_order_relaxed);
    if (c->as_string() == "deadline")
      led.deadline_errors.fetch_add(1, std::memory_order_relaxed);
  }
  led.structured.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::string load_frame(const std::string& session, const std::string& blif,
                       std::size_t vectors) {
  Json req;
  req.set("verb", Json("load"));
  req.set("session", Json(session));
  req.set("blif", Json(blif));
  req.set("vectors", Json(vectors));
  return req.dump();
}

// ---------------------------------------------------------------------------
// Phase 1: multi-threaded chaos storm against in-process dispatch.

struct StormResult {
  double elapsed_s = 0;
  std::vector<double> estimate_ms;  // plain-estimate latencies
};

StormResult run_storm(service::Service& svc, Ledger& led, long soak_ms,
                      int threads) {
  std::atomic<bool> stop{false};
  std::mutex lat_mu;
  StormResult res;

  auto worker = [&](int tid) {
    std::mt19937 rng(0xE23u + static_cast<unsigned>(tid) * 7919u);
    std::vector<double> local_lat;
    const std::string sessions[] = {"s1", "s2", "s3", "s4"};
    const char* gate_names[] = {"n17", "n22", "n27", "n32"};
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string& ses = sessions[rng() % 4];
      unsigned cls = rng() % 100;
      if (cls < 40) {
        // Plain estimate, sometimes uncached (fresh seed) — timed.
        Json req;
        req.set("verb", Json("estimate"));
        req.set("session", Json(ses));
        if (rng() % 2) req.set("seed", Json(rng() % 16));
        auto t0 = std::chrono::steady_clock::now();
        std::string resp = svc.dispatch(req.dump());
        auto t1 = std::chrono::steady_clock::now();
        hard_assert(validate(resp, led), "unstructured estimate response");
        local_lat.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      } else if (cls < 52) {
        // Valid mutate: resize a named gate (journals a record).
        Json op;
        op.set("op", Json("set_size"));
        op.set("node", Json(std::string(gate_names[rng() % 4])));
        op.set("value", Json(0.5 + static_cast<double>(rng() % 16) * 0.5));
        service::JsonArray ops;
        ops.push_back(std::move(op));
        Json req;
        req.set("verb", Json("mutate"));
        req.set("session", Json(ses));
        req.set("ops", Json(std::move(ops)));
        hard_assert(validate(svc.dispatch(req.dump()), led),
                    "unstructured mutate response");
      } else if (cls < 60) {
        // Rejected edit scripts: must roll back, never wedge the session.
        static const char* bad[] = {
            R"({"verb":"mutate","session":"%s","ops":[{"op":"frobnicate"}]})",
            R"({"verb":"mutate","session":"%s","ops":[{"op":"remove","node":"a0"}]})",
            R"({"verb":"mutate","session":"%s","ops":[{"op":"set_size","node":"nope","value":2}]})",
            R"({"verb":"mutate","session":"%s","ops":[{"op":"add_gate","type":"mux","fanins":["a0"]}]})",
        };
        char buf[192];
        std::snprintf(buf, sizeof buf, bad[rng() % 4], ses.c_str());
        hard_assert(validate(svc.dispatch(buf), led),
                    "unstructured bad-mutate response");
      } else if (cls < 68) {
        // Garbage bytes.
        std::string frame(1 + rng() % 64, '\0');
        for (char& c : frame) c = static_cast<char>(rng() % 256);
        hard_assert(validate(svc.dispatch(frame), led),
                    "unstructured garbage response");
      } else if (cls < 76) {
        // Truncated valid frame.
        Json req;
        req.set("verb", Json("estimate"));
        req.set("session", Json(ses));
        std::string frame = req.dump();
        frame.resize(rng() % frame.size());
        hard_assert(validate(svc.dispatch(frame), led),
                    "unstructured truncated-frame response");
      } else if (cls < 81) {
        // Deadline storm: a slow timed estimate with a 1 ms budget — the
        // watchdog must cancel it at a poll point, never wedge the worker.
        Json req;
        req.set("verb", Json("estimate"));
        req.set("session", Json(ses));
        req.set("mode", Json("timed"));
        req.set("vectors", Json(100000));
        req.set("deadline_ms", Json(1));
        hard_assert(validate(svc.dispatch(req.dump()), led),
                    "unstructured deadline response");
      } else if (cls < 86) {
        // Injected engine failure: next tape patch throws, the mutate must
        // degrade (full re-baseline or analyzer drop), never fail the
        // request with anything unstructured.
        power::detail::force_tape_failures(1);
        Json op;
        op.set("op", Json("set_size"));
        op.set("node", Json(std::string(gate_names[rng() % 4])));
        op.set("value", Json(1.5));
        service::JsonArray ops;
        ops.push_back(std::move(op));
        Json req;
        req.set("verb", Json("mutate"));
        req.set("session", Json(ses));
        req.set("ops", Json(std::move(ops)));
        hard_assert(validate(svc.dispatch(req.dump()), led),
                    "unstructured tape-chaos mutate response");
      } else if (cls < 92) {
        hard_assert(validate(svc.dispatch(
                        R"({"verb":"rollback","session":")" + ses + "\"}"),
                    led),
                    "unstructured rollback response");
      } else if (cls < 96) {
        std::string frame = rng() % 2
                                ? std::string(R"({"verb":"stat"})")
                                : R"({"verb":"stat","session":")" + ses + "\"}";
        hard_assert(validate(svc.dispatch(frame), led),
                    "unstructured stat response");
      } else {
        static const char* junk[] = {
            R"({"verb":"warp","session":"s1"})",
            R"({"verb":"estimate"})",
            R"({"verb":"estimate","session":"../etc"})",
            R"({"verb":"ping","deadline_ms":-3})",
            R"({"verb":"ping"})",
        };
        hard_assert(validate(svc.dispatch(junk[rng() % 5]), led),
                    "unstructured junk response");
      }
    }
    std::lock_guard lk(lat_mu);
    res.estimate_ms.insert(res.estimate_ms.end(), local_lat.begin(),
                           local_lat.end());
  };

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  std::this_thread::sleep_for(std::chrono::milliseconds(soak_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  power::detail::force_tape_failures(0);  // disarm any unconsumed injection
  res.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

// ---------------------------------------------------------------------------
// Phase 2: deterministic degradation accounting.

bool degradation_accounted() {
  bool ok = true;

  // (a) Forced compiled-tape failures must each surface in the metrics
  // ledger as a tape->full-rebaseline fallback, and the mutate must
  // succeed.
  {
    service::Service svc;
    Ledger led;
    hard_assert(validate(svc.dispatch(load_frame("d", bench_blif(), 2048)),
                         led) && led.ok.load() == 1,
                "degradation phase: load failed");
    for (int i = 0; i < 5; ++i) {
      double before = core::metrics::value("power.inc.tape_fallback");
      power::detail::force_tape_failures(1);
      std::string resp = svc.dispatch(
          R"({"verb":"mutate","session":"d","ops":[{"op":"set_size","node":"n17","value":)" +
          std::to_string(1.0 + i) + "}]}");
      hard_assert(validate(resp, led), "degradation phase: mutate broke");
      double after = core::metrics::value("power.inc.tape_fallback");
      if (!(after >= before + 1.0)) {
        std::cout << "tape fallback " << i << " NOT accounted ("
                  << before << " -> " << after << ")\n";
        ok = false;
      }
    }
    power::detail::force_tape_failures(0);
  }

  // (b) Cache eviction under a 1-byte memory cap must be visible in stat
  // (cache dropped, estimates counted as degraded) and estimates must
  // still succeed.
  {
    service::ServiceOptions so;
    so.memory_cap_bytes = 1;
    service::Service svc(so);
    Ledger led;
    validate(svc.dispatch(load_frame("a", bench_blif(), 2048)), led);
    validate(svc.dispatch(load_frame("b", bench_blif(), 2048)), led);
    auto stat_a = service::json_parse(
        svc.dispatch(R"({"verb":"stat","session":"a"})"));
    hard_assert(stat_a.has_value(), "eviction stat unparsable");
    const Json* cb = stat_a->find("cache_bytes");
    if (!cb || cb->as_number(1) != 0) {
      std::cout << "eviction NOT visible in stat (cache_bytes)\n";
      ok = false;
    }
    std::string est = svc.dispatch(R"({"verb":"estimate","session":"a"})");
    hard_assert(validate(est, led), "post-eviction estimate broke");
    auto doc = service::json_parse(est);
    hard_assert(doc && doc->find("ok")->as_bool(),
                "post-eviction estimate failed");
    auto stat2 = service::json_parse(
        svc.dispatch(R"({"verb":"stat","session":"a"})"));
    const Json* deg = stat2 ? stat2->find("estimates_degraded") : nullptr;
    if (!deg || deg->as_number(0) < 1) {
      std::cout << "degraded estimate NOT counted in stat\n";
      ok = false;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Phase 3: journal recovery after the storm.

bool recovery_identical(service::Service& live, const std::string& journal_dir,
                        int n_sessions) {
  // Snapshot the live hashes (the storm is over; sessions are quiescent).
  std::vector<std::string> live_hash;
  for (int i = 1; i <= n_sessions; ++i) {
    auto doc = service::json_parse(live.dispatch(
        R"({"verb":"stat","session":"s)" + std::to_string(i) + "\"}"));
    hard_assert(doc.has_value(), "live stat unparsable");
    const Json* h = doc->find("hash");
    hard_assert(h && h->is_string(), "live stat without hash");
    live_hash.push_back(h->as_string());
  }

  // A fresh daemon over the same journal dir must reproduce them exactly.
  service::ServiceOptions so;
  so.journal_dir = journal_dir;
  service::Service svc2(so);
  std::size_t recovered = svc2.recover_sessions();
  hard_assert(recovered == static_cast<std::size_t>(n_sessions),
              "recovery lost sessions");
  bool identical = true;
  for (int i = 1; i <= n_sessions; ++i) {
    auto doc = service::json_parse(svc2.dispatch(
        R"({"verb":"stat","session":"s)" + std::to_string(i) + "\"}"));
    const Json* h = doc ? doc->find("hash") : nullptr;
    bool same = h && h->is_string() &&
                h->as_string() == live_hash[static_cast<std::size_t>(i - 1)];
    if (!same) {
      std::cout << "recovery hash mismatch on s" << i << "\n";
      identical = false;
    }
  }

  // Torn tail: chop bytes off one journal (a kill mid-append) — recovery
  // must land on the last committed state, not fail, not crash.
  {
    std::string path = journal_dir + "/s1.journal";
    std::ifstream is(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    is.close();
    if (data.size() > 40) {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(data.data(), static_cast<std::streamsize>(data.size() - 20));
    }
    service::ServiceOptions so3;
    so3.journal_dir = journal_dir;
    service::Service svc3(so3);
    hard_assert(svc3.recover_sessions() ==
                    static_cast<std::size_t>(n_sessions),
                "torn-journal recovery lost sessions");
    auto doc = service::json_parse(
        svc3.dispatch(R"({"verb":"estimate","session":"s1"})"));
    hard_assert(doc && doc->find("ok") && doc->find("ok")->as_bool(),
                "torn-recovered session cannot estimate");
  }
  return identical;
}

// ---------------------------------------------------------------------------
// Phase 4: protocol fuzz (the satellite corpus, 3000 mutated frames).

std::uint64_t run_fuzz(service::Service& svc, Ledger& led) {
  const std::string corpus[] = {
      load_frame("f1", bench_blif(), 256),
      R"({"verb":"ping","id":42})",
      R"({"verb":"estimate","session":"s1","seed":7,"deadline_ms":5000})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":2.0}]})",
      R"({"verb":"rollback","session":"s1"})",
      R"({"verb":"stat","session":"s1"})",
  };
  std::mt19937 rng(0xF00D);
  std::uint64_t crashes = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string s = corpus[rng() % std::size(corpus)];
    int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds && !s.empty(); ++r) {
      std::size_t pos = rng() % s.size();
      switch (rng() % 6) {
        case 0: s[pos] = static_cast<char>(rng() % 256); break;
        case 1: s.erase(pos, std::min<std::size_t>(s.size() - pos,
                                                   1 + rng() % 8)); break;
        case 2: s.insert(pos, std::string(1 + rng() % 4,
                                          static_cast<char>(rng() % 256)));
                break;
        case 3: s = s.substr(0, pos); break;
        case 4: std::swap(s[pos], s[rng() % s.size()]); break;
        case 5: s += s.substr(0, pos); break;
      }
    }
    if (!validate(svc.dispatch(s), led)) ++crashes;
  }
  return crashes;
}

// ---------------------------------------------------------------------------
// Phase 5: the same daemon behind a real AF_UNIX socket.

void run_socket_phase(service::Service& svc, Ledger& led,
                      const std::string& dir) {
  std::string path = dir + "/soak.sock";
  service::SocketServer server(svc, path);
  hard_assert(server.start().is_ok(), "socket server failed to start");
  std::thread serving([&] { server.serve(); });

  auto client_loop = [&](int tid) {
    service::SocketClient c;
    hard_assert(c.connect(path).is_ok(), "client connect failed");
    std::mt19937 rng(0x50CCu + static_cast<unsigned>(tid));
    for (int i = 0; i < 50; ++i) {
      const char* frames[] = {
          R"({"verb":"ping"})",
          R"({"verb":"estimate","session":"s1"})",
          R"({"verb":"stat"})",
          R"({"verb":"rollback","session":"s2"})",
      };
      auto resp = c.roundtrip(frames[rng() % 4]);
      hard_assert(resp.has_value(), "socket roundtrip lost a response");
      hard_assert(validate(*resp, led), "unstructured socket response");
    }
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) clients.emplace_back(client_loop, t);
  for (auto& th : clients) th.join();

  {  // hostile client: binary garbage, then a truncated frame + disconnect
    service::SocketClient c;
    hard_assert(c.connect(path).is_ok(), "hostile connect failed");
    c.send_raw("\x01\xff\xfe garbage\n");
    auto r = c.read_line();
    hard_assert(r.has_value() && validate(*r, led),
                "garbage line not answered structurally");
    c.send_raw(R"({"verb":"estimate","ses)");
    c.close();
  }
  {  // clean shutdown through the protocol
    service::SocketClient c;
    hard_assert(c.connect(path).is_ok(), "shutdown connect failed");
    auto r = c.roundtrip(R"({"verb":"shutdown"})");
    hard_assert(r.has_value() && validate(*r, led), "shutdown not answered");
  }
  serving.join();
}

void report() {
  benchx::banner(
      "E23 bench_service",
      "Chaos soak of the lpsd session service: hostile frames, deadline "
      "storms, forced engine failures, cache eviction and journal "
      "recovery — zero crashes, every answer structured, every "
      "degradation accounted.");

  long soak_ms = core::env_long_or("LPS_SOAK_MS", 100, 3600000, 2000);
  int threads = 4;
  const TempDir tmp;
  const std::string& dir = tmp.path;
  std::cout << "soak " << soak_ms << " ms, " << threads
            << " storm threads, journals in " << dir << "\n\n";

  service::ServiceOptions so;
  so.journal_dir = dir;
  so.memory_cap_bytes = 100 * 1024;  // ~2.5 sessions fit: eviction is live
  service::Service svc(so);
  Ledger led;

  const int kSessions = 4;
  for (int i = 1; i <= kSessions; ++i) {
    std::string resp = svc.dispatch(
        load_frame("s" + std::to_string(i), bench_blif(),
                   i % 2 ? 2048 : 4096));
    hard_assert(validate(resp, led), "session load unstructured");
    auto doc = service::json_parse(resp);
    hard_assert(doc->find("ok")->as_bool(), "session load failed");
  }

  StormResult storm = run_storm(svc, led, soak_ms, threads);
  std::uint64_t storm_requests = led.requests.load();
  hard_assert(storm_requests == led.structured.load(),
              "storm produced unstructured responses");
  hard_assert(led.deadline_errors.load() >= 1,
              "deadline storm never produced a deadline error");

  double p99 = 0.0;
  if (!storm.estimate_ms.empty()) {
    std::sort(storm.estimate_ms.begin(), storm.estimate_ms.end());
    p99 = storm.estimate_ms[storm.estimate_ms.size() * 99 / 100];
  }
  double rps = storm.elapsed_s > 0
                   ? static_cast<double>(storm_requests) / storm.elapsed_s
                   : 0.0;

  core::Table t({"phase", "requests", "ok", "structured errors", "notes"});
  t.row({"storm", std::to_string(storm_requests),
         std::to_string(led.ok.load()), std::to_string(led.errors.load()),
         core::Table::num(rps, 0) + " req/s, p99 est " +
             core::Table::num(p99, 2) + " ms"});

  bool degr = degradation_accounted();
  bool recov = recovery_identical(svc, dir, kSessions);

  std::uint64_t fuzz_before = led.requests.load();
  std::uint64_t fuzz_crashes = run_fuzz(svc, led);
  t.row({"fuzz", std::to_string(led.requests.load() - fuzz_before),
         "-", "-", fuzz_crashes ? "CRASHES" : "all structured"});

  std::uint64_t sock_before = led.requests.load();
  run_socket_phase(svc, led, dir);
  t.row({"socket", std::to_string(led.requests.load() - sock_before),
         "-", "-", "3 clients + hostile + shutdown"});
  t.print(std::cout);

  std::uint64_t total = led.requests.load();
  double structured_frac =
      total ? static_cast<double>(led.structured.load()) /
                  static_cast<double>(total)
            : 0.0;

  std::cout << "\ndegradation accounted: " << (degr ? "yes" : "NO")
            << ", journal recovery identical: " << (recov ? "yes" : "NO")
            << ", deadline errors: " << led.deadline_errors.load() << "\n";

  benchx::claim("E23.soak_requests", static_cast<double>(total));
  benchx::claim("E23.soak_crashes", 0.0);  // reaching here == survived
  benchx::claim("E23.errors_structured_frac", structured_frac);
  benchx::claim("E23.degradation_accounted", degr);
  benchx::claim("E23.journal_recovery_identical", recov);
  benchx::claim("E23.fuzz_crashes", static_cast<double>(fuzz_crashes));
  benchx::claim("E23.p99_estimate_ms", p99);
  benchx::claim("E23.requests_per_sec", rps);

  hard_assert(structured_frac == 1.0, "unstructured responses slipped by");
  hard_assert(degr, "a degradation went unaccounted");
  hard_assert(recov, "journal recovery diverged from the live state");
  hard_assert(fuzz_crashes == 0, "protocol fuzz broke the dispatcher");
}

// ---------------------------------------------------------------------------
// Dispatch-latency timings (the google-benchmark section).

service::Service& bm_service() {
  static service::Service* svc = [] {
    auto* s = new service::Service();
    s->dispatch(load_frame("bm", bench_blif(), 2048));
    return s;
  }();
  return *svc;
}

void BM_dispatch_ping(benchmark::State& state) {
  service::Service& svc = bm_service();
  for (auto _ : state) {
    std::string r = svc.dispatch(R"({"verb":"ping"})");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_dispatch_ping);

void BM_dispatch_estimate_cached(benchmark::State& state) {
  service::Service& svc = bm_service();
  svc.dispatch(R"({"verb":"estimate","session":"bm"})");  // warm the cache
  for (auto _ : state) {
    std::string r = svc.dispatch(R"({"verb":"estimate","session":"bm"})");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_dispatch_estimate_cached);

void BM_dispatch_reject_garbage(benchmark::State& state) {
  service::Service& svc = bm_service();
  for (auto _ : state) {
    std::string r = svc.dispatch("\x02{{{not json");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_dispatch_reject_garbage);

// One mutate and its rollback on a journaled random_dag(64, 2000) session:
// what an lpsd edit costs end to end — re-analysis, structural hash, undo
// frame, journal append, then the frame's undo and the journal truncation.
void BM_dispatch_mutate_rollback(benchmark::State& state) {
  TempDir dir;
  service::ServiceOptions so;
  so.journal_dir = dir.path;
  service::Service svc(so);
  const std::string blif = blif::write_string(bench::random_dag(64, 2000, 1));
  svc.dispatch(load_frame("rand", blif, 2048));
  // A mid-netlist gate's first fanin moves to a PI: never a cycle.
  diag::DiagEngine eng(8);
  const Netlist net = *blif::parse_string(blif, eng);
  NodeId g = static_cast<NodeId>(net.size() / 2);
  while (net.is_dead(g) || net.node(g).fanins.empty()) ++g;
  const NodeId pi = net.inputs()[net.node(g).fanins[0] == net.inputs()[0]];
  const std::string mutate =
      R"({"verb":"mutate","session":"rand","ops":[{"op":"replace_fanin","node":)" +
      std::to_string(g) + R"(,"index":0,"with":)" + std::to_string(pi) + "}]}";
  const std::string rollback = R"({"verb":"rollback","session":"rand"})";
  hard_assert(svc.dispatch(mutate).find(R"("ok":true)") != std::string::npos,
              "benchmark mutate rejected");
  svc.dispatch(rollback);
  for (auto _ : state) {
    std::string m = svc.dispatch(mutate);
    std::string r = svc.dispatch(rollback);
    benchmark::DoNotOptimize(m);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_dispatch_mutate_rollback);

}  // namespace

LPS_BENCH_MAIN(report)
