// Service-layer tests: the lpsd session daemon end to end, in process and
// over a real AF_UNIX socket.  The robustness contract under test:
//
//   * every frame — including 3000 seeded mutations of valid requests —
//     gets a structured JSON answer, never a crash or silence;
//   * estimates through the service are bit-identical to direct
//     power::analyze calls, cached or not, concurrent or serialized;
//   * a cancelled (deadline) mutate is all-or-nothing, and the incremental
//     analyzer's caches survive a cancellation mid-update bit-exactly;
//   * journal recovery reproduces the pre-kill state, torn final records
//     are truncated to the last committed transition;
//   * cache eviction under a memory cap degrades estimates (full re-runs)
//     without breaking them;
//   * environment knobs reject malformed values with positioned
//     diagnostics and fall back to documented defaults.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <tuple>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "core/metrics.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "power/activity.hpp"
#include "power/incremental.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "service/sockets.hpp"
#include "service/watchdog.hpp"

namespace lps {
namespace {

using service::Json;
using service::JsonArray;
using service::JsonObject;

// A fresh journal directory, removed with everything in it when the guard
// goes out of scope.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    std::string d = ::testing::TempDir() + "lps_service_" + tag + "_XXXXXX";
    std::vector<char> buf(d.begin(), d.end());
    buf.push_back('\0');
    EXPECT_NE(::mkdtemp(buf.data()), nullptr);
    path = buf.data();
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

// The netlist a session actually holds after loading bench_blif(): BLIF
// round-trips through SOP decomposition, so it is NOT structurally equal to
// the generator's netlist — differential tests must compare against this.
// (Node names: inputs "a0".."b7","cin"; internal gates "n17", "n22", …)
Netlist bench_net() {
  diag::DiagEngine eng(8);
  auto parsed = blif::parse_string(bench_blif(), eng);
  EXPECT_TRUE(parsed.has_value()) << eng.str();
  return std::move(*parsed);
}

// Dispatch helper: parse the response and assert it is well-formed JSON
// with an "ok" bool — the invariant every single test leans on.
Json roundtrip(service::Service& svc, const std::string& frame) {
  std::string resp = svc.dispatch(frame);
  auto doc = service::json_parse(resp);
  EXPECT_TRUE(doc.has_value()) << "unparsable response: " << resp;
  EXPECT_TRUE(doc->is_object());
  const Json* ok = doc->find("ok");
  EXPECT_TRUE(ok && ok->is_bool()) << "response without ok: " << resp;
  return *doc;
}

bool resp_ok(const Json& resp) {
  const Json* ok = resp.find("ok");
  return ok && ok->is_bool() && ok->as_bool();
}

std::string err_code(const Json& resp) {
  const Json* e = resp.find("error");
  if (!e) return "";
  const Json* c = e->find("code");
  return c && c->is_string() ? c->as_string() : "";
}

std::string load_frame(const std::string& session, const std::string& blif,
                       std::size_t vectors = 0) {
  Json req;
  req.set("verb", Json("load"));
  req.set("session", Json(session));
  req.set("blif", Json(blif));
  if (vectors) req.set("vectors", Json(vectors));
  return req.dump();
}

// ---------------------------------------------------------------------------
// JSON layer.

TEST(ServiceJson, ParseDumpRoundTrip) {
  const char* cases[] = {
      R"(null)",
      R"(true)",
      R"(-12.5)",
      R"(12345678901234)",
      R"("he\"llo\n\t\\")",
      R"([1,2,[3,null],{"a":false}])",
      R"({"k":"v","nested":{"x":[1,2]},"n":0.25})",
  };
  for (const char* c : cases) {
    auto doc = service::json_parse(c);
    ASSERT_TRUE(doc.has_value()) << c;
    auto again = service::json_parse(doc->dump());
    ASSERT_TRUE(again.has_value()) << doc->dump();
    EXPECT_EQ(doc->dump(), again->dump()) << c;
  }
}

TEST(ServiceJson, IntegersSurviveExactly) {
  auto doc = service::json_parse("[0, -1, 4294967296, 9007199254740991]");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->dump(), "[0,-1,4294967296,9007199254740991]");
}

TEST(ServiceJson, UnicodeEscapes) {
  auto doc = service::json_parse(R"("a\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "aA\xc3\xa9\xf0\x9f\x98\x80");
  // Lone surrogates degrade to U+FFFD instead of failing the frame.
  auto lone = service::json_parse(R"("x\ud83dx")");
  ASSERT_TRUE(lone.has_value());
  EXPECT_EQ(lone->as_string(), "x\xef\xbf\xbdx");
}

TEST(ServiceJson, RejectsMalformedWithPosition) {
  diag::Status err;
  EXPECT_FALSE(service::json_parse("{\"a\":}", &err).has_value());
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.diagnostic().loc.file, "<frame>");
  EXPECT_GT(err.diagnostic().loc.col, 0);

  const char* bad[] = {"",       "{",       "[1,",    "nul",  "+1",
                       "01",     "1.",      "\"\\q\"", "{\"a\" 1}",
                       "[1] []", "\"unterminated"};
  for (const char* b : bad)
    EXPECT_FALSE(service::json_parse(b).has_value()) << b;
}

TEST(ServiceJson, DepthCapStopsRecursion) {
  std::string deep(service::kJsonMaxDepth + 8, '[');
  EXPECT_FALSE(service::json_parse(deep).has_value());
  std::string okdeep;
  for (int i = 0; i < 8; ++i) okdeep += "[";
  okdeep += "1";
  for (int i = 0; i < 8; ++i) okdeep += "]";
  EXPECT_TRUE(service::json_parse(okdeep).has_value());
}

TEST(ServiceJson, ControlCharactersEscapedOnDump) {
  Json s(std::string("a\x01\nb"));
  EXPECT_EQ(s.dump(), "\"a\\u0001\\nb\"");
  auto back = service::json_parse(s.dump());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), "a\x01\nb");
}

// ---------------------------------------------------------------------------
// Protocol layer.

TEST(ServiceProtocol, SessionNameValidation) {
  EXPECT_TRUE(service::valid_session_name("a"));
  EXPECT_TRUE(service::valid_session_name("s-1.backup_2"));
  EXPECT_FALSE(service::valid_session_name(""));
  EXPECT_FALSE(service::valid_session_name("."));
  EXPECT_FALSE(service::valid_session_name(".."));
  EXPECT_FALSE(service::valid_session_name("a/b"));
  EXPECT_FALSE(service::valid_session_name("a b"));
  EXPECT_FALSE(service::valid_session_name(std::string(65, 'x')));
}

TEST(ServiceProtocol, RequestValidationPaths) {
  auto err_of = [](const std::string& frame) {
    auto p = service::parse_request(frame);
    EXPECT_FALSE(p.request.has_value()) << frame;
    auto doc = service::json_parse(p.error_response);
    EXPECT_TRUE(doc.has_value());
    const Json* e = doc->find("error");
    const Json* c = e ? e->find("code") : nullptr;
    return c && c->is_string() ? c->as_string() : std::string();
  };
  EXPECT_EQ(err_of("garbage"), "bad_frame");
  EXPECT_EQ(err_of("[1,2]"), "bad_frame");
  EXPECT_EQ(err_of("{}"), "bad_request");                       // no verb
  EXPECT_EQ(err_of(R"({"verb":"warp"})"), "unknown_verb");
  EXPECT_EQ(err_of(R"({"verb":"estimate"})"), "bad_request");   // no session
  EXPECT_EQ(err_of(R"({"verb":"load","session":"../x"})"), "bad_session");
  EXPECT_EQ(err_of(R"({"verb":"ping","deadline_ms":-5})"), "bad_request");
  EXPECT_EQ(err_of(R"({"verb":"ping","deadline_ms":1.5})"), "bad_request");

  auto p = service::parse_request(
      R"({"verb":"estimate","session":"s","id":7,"deadline_ms":250})");
  ASSERT_TRUE(p.request.has_value());
  EXPECT_EQ(p.request->verb, service::Verb::Estimate);
  EXPECT_EQ(p.request->session, "s");
  EXPECT_EQ(p.request->deadline_ms, 250u);
  EXPECT_EQ(p.request->id.dump(), "7");
}

TEST(ServiceProtocol, OversizedFrameRejected) {
  std::string big(service::kMaxFrameBytes + 1, 'x');
  auto p = service::parse_request(big);
  ASSERT_FALSE(p.request.has_value());
  EXPECT_NE(p.error_response.find("bad_frame"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Watchdog.

TEST(ServiceWatchdog, FiresExpiredTokensOnly) {
  service::Watchdog dog(std::chrono::milliseconds(1));
  core::CancelToken soon, later;
  auto now = service::Watchdog::Clock::now();
  dog.arm(&soon, now + std::chrono::milliseconds(5));
  std::uint64_t id = dog.arm(&later, now + std::chrono::hours(1));
  for (int i = 0; i < 500 && !soon.cancelled(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(soon.cancelled());
  EXPECT_FALSE(later.cancelled());
  EXPECT_EQ(dog.armed(), 1u);  // fired entry was removed
  dog.disarm(id);
  EXPECT_EQ(dog.armed(), 0u);
  EXPECT_GE(dog.fired(), 1u);
}

TEST(ServiceWatchdog, DeadlineGuardZeroIsNoOp) {
  service::Watchdog dog;
  core::CancelToken t;
  {
    service::DeadlineGuard guard(dog, t, 0);
    EXPECT_EQ(dog.armed(), 0u);
  }
  {
    service::DeadlineGuard guard(dog, t, 60 * 1000);
    EXPECT_EQ(dog.armed(), 1u);
  }
  EXPECT_EQ(dog.armed(), 0u);
  EXPECT_FALSE(t.cancelled());
}

// ---------------------------------------------------------------------------
// Structural hash.

TEST(ServiceHash, InvariantUnderNamesAndRenumbering) {
  Netlist a = bench::alu(4);
  std::uint64_t h = structural_hash(a);

  Netlist renamed = a.clone();
  for (NodeId i = 0; i < renamed.size(); ++i)
    if (!renamed.is_dead(i) && !renamed.node(i).name.empty())
      renamed.node(i).name += "_x";
  EXPECT_EQ(structural_hash(renamed), h);

  // Tombstones + renumbering: splice a no-op buffer pair in and take it
  // back out via substitute/remove; the function and structure are back to
  // the original even though ids shifted and tombstones remain.
  Netlist edited = a.clone();
  NodeId o = edited.outputs()[0];
  NodeId f = edited.node(o).fanins[0];
  NodeId b1 = edited.add_buf(f);
  edited.replace_fanin(o, 0, b1);
  EXPECT_NE(structural_hash(edited), h);
  edited.substitute(b1, f);
  EXPECT_EQ(structural_hash(edited), h);

  // compact() renumbers wholesale; still invariant.
  edited.compact();
  EXPECT_EQ(structural_hash(edited), h);

  // A sequential circuit with a load-enabled register: a register spliced
  // in and taken out again leaves the other registers' ranks, and the
  // hash, as they were; so do names and compact().
  Netlist seq = bench::counter(4);
  seq.set_dff_enable(seq.dffs()[1], seq.add_input("load"));
  const std::uint64_t hs = structural_hash(seq);
  Netlist sedit = seq.clone();
  for (NodeId i = 0; i < sedit.size(); ++i)
    if (!sedit.is_dead(i) && !sedit.node(i).name.empty())
      sedit.node(i).name += "_x";
  const NodeId q = sedit.dffs()[0];
  const NodeId d = sedit.node(q).fanins[0];
  const NodeId extra = sedit.add_dff(d);
  sedit.replace_fanin(q, 0, extra);
  EXPECT_NE(structural_hash(sedit), hs);
  sedit.replace_fanin(q, 0, d);
  sedit.remove(extra);
  EXPECT_EQ(structural_hash(sedit), hs);
  sedit.compact();
  EXPECT_EQ(structural_hash(sedit), hs);
}

TEST(ServiceHash, SensitiveToParameters) {
  Netlist a = bench::ripple_carry_adder(4);
  std::uint64_t h = structural_hash(a);
  Netlist b = a.clone();
  NodeId g = b.outputs()[0];
  b.node(g).size = 4.0;
  EXPECT_NE(structural_hash(b), h);
  Netlist c = a.clone();
  c.node(c.outputs()[0]).delay += 3;
  EXPECT_NE(structural_hash(c), h);
}

// ---------------------------------------------------------------------------
// Environment knobs (core/env.hpp).

TEST(ServiceEnv, LongParsesAndRejects) {
  auto p = core::parse_env_long("LPS_THREADS", "8", 1, 256, 1);
  EXPECT_TRUE(p.ok);
  EXPECT_TRUE(p.present);
  EXPECT_EQ(p.value, 8);

  p = core::parse_env_long("LPS_THREADS", nullptr, 1, 256, 7);
  EXPECT_TRUE(p.ok);
  EXPECT_FALSE(p.present);
  EXPECT_EQ(p.value, 7);

  p = core::parse_env_long("LPS_THREADS", "8x", 1, 256, 1);
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.value, 1);  // default, never the half-parsed 8
  EXPECT_EQ(p.status.diagnostic().loc.file, "$LPS_THREADS");
  EXPECT_EQ(p.status.diagnostic().loc.col, 2);  // the 'x'

  p = core::parse_env_long("LPS_OPT_WORKERS", "banana", 1, 16, 4);
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.value, 4);
  EXPECT_EQ(p.status.diagnostic().loc.col, 1);

  p = core::parse_env_long("LPS_THREADS", "999999", 1, 256, 1);
  EXPECT_FALSE(p.ok);  // out of range
  EXPECT_EQ(p.value, 1);

  p = core::parse_env_long("LPS_THREADS", "", 1, 256, 1);
  EXPECT_FALSE(p.ok);

  // Saturation instead of wraparound on absurd magnitudes.
  p = core::parse_env_long("LPS_THREADS", "99999999999999999999999", 1, 256, 1);
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.value, 1);
}

TEST(ServiceEnv, BoolSpellingsAreClosed) {
  for (const char* t : {"1", "true"}) {
    auto p = core::parse_env_bool("LPS_SIM_PIN", t, false);
    EXPECT_TRUE(p.ok) << t;
    EXPECT_EQ(p.value, 1) << t;
  }
  for (const char* t : {"0", "false"}) {
    auto p = core::parse_env_bool("LPS_SIM_PIN", t, true);
    EXPECT_TRUE(p.ok) << t;
    EXPECT_EQ(p.value, 0) << t;
  }
  for (const char* t : {"TRUE", "yes", "on", "2", " 1", ""}) {
    auto p = core::parse_env_bool("LPS_SIM_PIN", t, true);
    EXPECT_FALSE(p.ok) << t;
    EXPECT_EQ(p.value, 1) << t;  // default
    EXPECT_EQ(p.status.diagnostic().loc.file, "$LPS_SIM_PIN");
  }
}

// ---------------------------------------------------------------------------
// Verb round trips (in-process dispatch).

TEST(ServiceVerbs, LoadEstimateMutateRollback) {
  service::Service svc;
  Json ping = roundtrip(svc, R"({"verb":"ping","id":1})");
  EXPECT_TRUE(resp_ok(ping));
  EXPECT_EQ(ping.find("id")->dump(), "1");

  Json load = roundtrip(svc, load_frame("s1", bench_blif()));
  ASSERT_TRUE(resp_ok(load));
  std::string hash0 = load.find("hash")->as_string();

  // Estimate must agree bit-for-bit with a direct power::analyze.
  Netlist net = bench_net();
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  auto direct = power::analyze(net, ao);
  Json est = roundtrip(svc, R"({"verb":"estimate","session":"s1"})");
  ASSERT_TRUE(resp_ok(est));
  EXPECT_EQ(est.find("power_w")->as_number(),
            direct.report.breakdown.total_w());
  EXPECT_TRUE(est.find("cached")->as_bool());

  // An uncached estimate (different seed) equals a fresh direct run too.
  ao.seed = 99;
  auto direct99 = power::analyze(net, ao);
  Json est99 =
      roundtrip(svc, R"({"verb":"estimate","session":"s1","seed":99})");
  ASSERT_TRUE(resp_ok(est99));
  EXPECT_EQ(est99.find("power_w")->as_number(),
            direct99.report.breakdown.total_w());
  EXPECT_FALSE(est99.find("cached")->as_bool());

  Json mut = roundtrip(
      svc,
      R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":3.0}]})");
  ASSERT_TRUE(resp_ok(mut));
  EXPECT_NE(mut.find("hash")->as_string(), hash0);
  EXPECT_EQ(mut.find("journal_records")->as_number(), 1);

  Json rb = roundtrip(svc, R"({"verb":"rollback","session":"s1"})");
  ASSERT_TRUE(resp_ok(rb));
  EXPECT_EQ(rb.find("hash")->as_string(), hash0);

  Json rb2 = roundtrip(svc, R"({"verb":"rollback","session":"s1"})");
  EXPECT_FALSE(resp_ok(rb2));
  EXPECT_EQ(err_code(rb2), "nothing_to_do");
}

TEST(ServiceVerbs, ErrorsAreStructuredAndSessionScoped) {
  service::Service svc;
  EXPECT_EQ(err_code(roundtrip(svc, R"({"verb":"estimate","session":"nope"})")),
            "no_session");
  EXPECT_EQ(err_code(roundtrip(
                svc, R"({"verb":"load","session":"s1","blif":"not blif"})")),
            "parse_error");
  // A failed load leaves no usable netlist behind.
  EXPECT_EQ(err_code(roundtrip(svc, R"({"verb":"estimate","session":"s1"})")),
            "no_session");

  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif()))));
  Json before = roundtrip(svc, R"({"verb":"stat","session":"s1"})");
  std::string hash = before.find("hash")->as_string();

  // A rejected edit script must leave the netlist untouched (rolled back).
  const char* bad_mutates[] = {
      R"({"verb":"mutate","session":"s1","ops":[{"op":"remove","node":"a0"}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"add_gate","type":"mux","fanins":["a0","b0"]}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"replace_fanin","node":"n17","index":99,"with":"a0"}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":99999,"value":2.0}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":3.0},{"op":"frobnicate"}]})",
      R"({"verb":"mutate","session":"s1","ops":[]})",
      R"({"verb":"mutate","session":"s1","ops":7})",
  };
  for (const char* frame : bad_mutates) {
    Json r = roundtrip(svc, frame);
    EXPECT_FALSE(resp_ok(r)) << frame;
    EXPECT_EQ(err_code(r), "mutate_error") << frame;
  }
  Json after = roundtrip(svc, R"({"verb":"stat","session":"s1"})");
  EXPECT_EQ(after.find("hash")->as_string(), hash);
  EXPECT_EQ(after.find("journal_records")->as_number(), 0);
}

TEST(ServiceVerbs, OptimizeKeepsResultAndJournals) {
  service::Service svc;
  ASSERT_TRUE(
      resp_ok(roundtrip(svc, load_frame("s1", bench_blif(), /*vectors=*/256))));
  Json opt = roundtrip(
      svc, R"({"verb":"optimize","session":"s1","flow":"combinational"})");
  ASSERT_TRUE(resp_ok(opt));
  EXPECT_GT(opt.find("stages")->as_number(), 1);
  EXPECT_EQ(opt.find("journal_records")->as_number(), 1);
  // Rollback of an optimize replays the journal prefix back to the load.
  Json rb = roundtrip(svc, R"({"verb":"rollback","session":"s1"})");
  ASSERT_TRUE(resp_ok(rb));
  Netlist net = bench_net();
  EXPECT_EQ(rb.find("hash")->as_string(),
            service::format_hash(structural_hash(net)));
}

TEST(ServiceVerbs, OptimizeWorkersParamIsBitIdenticalAndValidated) {
  service::Service svc;
  ASSERT_TRUE(
      resp_ok(roundtrip(svc, load_frame("s1", bench_blif(), /*vectors=*/256))));
  ASSERT_TRUE(
      resp_ok(roundtrip(svc, load_frame("s2", bench_blif(), /*vectors=*/256))));
  Json seq = roundtrip(
      svc, R"({"verb":"optimize","session":"s1","flow":"combinational"})");
  ASSERT_TRUE(resp_ok(seq));
  Json par = roundtrip(
      svc,
      R"({"verb":"optimize","session":"s2","flow":"combinational","workers":4})");
  ASSERT_TRUE(resp_ok(par));
  // Speculation only changes wall-clock: the optimized circuit is the same.
  EXPECT_EQ(par.find("hash")->as_string(), seq.find("hash")->as_string());
  // Out-of-range or fractional worker counts are rejected up front.
  EXPECT_EQ(err_code(roundtrip(
                svc,
                R"({"verb":"optimize","session":"s1","workers":0})")),
            "bad_request");
  EXPECT_EQ(err_code(roundtrip(
                svc,
                R"({"verb":"optimize","session":"s1","workers":2.5})")),
            "bad_request");
  EXPECT_EQ(err_code(roundtrip(
                svc,
                R"({"verb":"optimize","session":"s1","workers":1000})")),
            "bad_request");
}

// ---------------------------------------------------------------------------
// Cancellation / deadlines.

TEST(ServiceCancel, SessionEstimateCancelsCleanly) {
  service::Session s("s", "");
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  core::CancelToken t;
  t.cancel();
  Json params;
  params.set("seed", Json(123));  // forces the uncached (simulating) path
  EXPECT_THROW(s.estimate(params, &t), core::CancelledError);
  // The session still answers normally afterwards.
  Json none;
  auto r = s.estimate(none, nullptr);
  EXPECT_TRUE(r.status.is_ok());
}

TEST(ServiceCancel, CancelledMutateIsAllOrNothing) {
  service::Session s("s", "");
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  std::uint64_t hash0 = s.hash();
  auto baseline = // bit-exact expected analysis of the unmutated netlist
      power::analyze(bench_net(), [] {
        power::AnalysisOptions ao;
        ao.mode = power::ActivityMode::ZeroDelay;
        return ao;
      }());

  JsonArray ops_a;
  {
    Json op;
    op.set("op", Json("set_size"));
    op.set("node", Json("n17"));
    op.set("value", Json(2.5));
    ops_a.push_back(op);
  }
  Json ops{ops_a};

  // Fire the token at a range of poll points inside the re-estimate; every
  // one must roll back to exactly the pre-request state.
  bool cancelled_at_least_once = false;
  for (int budget : {0, 1, 2, 5, 9}) {
    core::CancelToken t;
    t.cancel_after(budget);
    auto r = s.mutate(ops, &t);
    if (r.status.is_ok()) continue;  // budget outlived the update: fine
    EXPECT_EQ(r.code, service::ErrorCode::Deadline);
    cancelled_at_least_once = true;
    EXPECT_EQ(s.hash(), hash0);
    EXPECT_EQ(s.journal_records(), 0u);
    // The analyzer caches must have survived the aborted update: a cached
    // estimate still equals the direct analysis of the unmutated netlist.
    Json none;
    auto est = s.estimate(none, nullptr);
    ASSERT_TRUE(est.status.is_ok());
    double power = 0;
    for (auto& [k, v] : est.payload)
      if (k == "power_w") power = v.as_number();
    EXPECT_EQ(power, baseline.report.breakdown.total_w());
  }
  EXPECT_TRUE(cancelled_at_least_once);

  // And with no token the same mutate commits.
  auto r = s.mutate(ops, nullptr);
  EXPECT_TRUE(r.status.is_ok());
  EXPECT_NE(s.hash(), hash0);
}

TEST(ServiceCancel, IncrementalReanalyzeCancellationDifferential) {
  // Satellite: a cancellation mid-reanalyze must leave the analyzer's
  // caches exactly as before the call (strong exception safety), proven
  // differentially against fresh full analyses at a range of poll points.
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 1024;  // 16 frames -> the cone sweep polls 16 times

  bool cancelled_at_least_once = false, committed_at_least_once = false;
  for (int budget : {0, 1, 3, 7, 1000000}) {
    Netlist net = bench::alu(4);
    core::CancelToken t;
    power::IncrementalAnalyzer inc(net, ao);
    inc.set_cancel(&t);
    double baseline = inc.analysis().report.breakdown.total_w();

    net.begin_undo();
    NodeId o = net.outputs()[0];
    NodeId f = net.node(o).fanins[0];
    net.replace_fanin(o, 0, net.add_not(net.add_not(f)));
    auto touched = net.touched_nodes();

    t.cancel_after(budget);
    try {
      inc.reanalyze(touched);
      net.commit_undo();
      committed_at_least_once = true;
    } catch (const core::CancelledError&) {
      cancelled_at_least_once = true;
      net.rollback_undo();
      // Caches restored: the held analysis is still the pre-call baseline…
      EXPECT_EQ(inc.analysis().report.breakdown.total_w(), baseline);
    }
    // …and in either outcome the analyzer agrees bit-for-bit with a fresh
    // full analysis of the netlist as it now stands.
    auto full = power::analyze(net, ao);
    EXPECT_EQ(inc.analysis().report.breakdown.total_w(),
              full.report.breakdown.total_w())
        << "budget " << budget;
  }
  EXPECT_TRUE(cancelled_at_least_once);
  EXPECT_TRUE(committed_at_least_once);
}

TEST(ServiceCancel, WatchdogDeadlineFiresOnSlowEstimate) {
  service::Service svc;
  ASSERT_TRUE(resp_ok(
      roundtrip(svc, load_frame("s1", blif::write_string(
                                          bench::array_multiplier(8))))));
  // Timed mode with a large vector count runs long enough (hundreds of ms)
  // that a 1 ms deadline reliably fires at a poll point.
  Json req;
  req.set("verb", Json("estimate"));
  req.set("session", Json("s1"));
  req.set("mode", Json("timed"));
  req.set("vectors", Json(200000));
  req.set("deadline_ms", Json(1));
  Json r = roundtrip(svc, req.dump());
  EXPECT_FALSE(resp_ok(r));
  EXPECT_EQ(err_code(r), "deadline");
  // The session is fully usable afterwards.
  EXPECT_TRUE(
      resp_ok(roundtrip(svc, R"({"verb":"estimate","session":"s1"})")));
}

TEST(ServiceVerbs, TimedEstimateRefusesWaveformsPastTheCap) {
  // Distinct large delays on every gate of a random DAG widen the timed
  // waveforms past sim::kMaxWaveformWords: the estimate is refused with a
  // clear error before any large allocation, and the session keeps working.
  const std::string blif = blif::write_string(bench::random_dag(64, 2000, 3));
  diag::DiagEngine eng(8);
  auto net = blif::parse_string(blif, eng);
  ASSERT_TRUE(net.has_value()) << eng.str();
  service::Service svc;
  Json load;
  load.set("verb", Json("load"));
  load.set("session", Json("s1"));
  load.set("blif", Json(blif));
  load.set("analyzer", Json(false));
  ASSERT_TRUE(resp_ok(roundtrip(svc, load.dump())));
  std::mt19937_64 rng(5);
  JsonArray ops;
  for (NodeId id = 0; id < net->size(); ++id) {
    if (is_source(net->node(id).type)) continue;
    Json op;
    op.set("op", Json("set_delay"));
    op.set("node", Json(static_cast<double>(id)));
    op.set("value", Json(static_cast<double>(1 + rng() % 1000000)));
    ops.push_back(std::move(op));
  }
  Json mutate;
  mutate.set("verb", Json("mutate"));
  mutate.set("session", Json("s1"));
  mutate.set("ops", Json(std::move(ops)));
  ASSERT_TRUE(resp_ok(roundtrip(svc, mutate.dump())));

  Json timed = roundtrip(svc,
                         R"({"verb":"estimate","session":"s1","mode":"timed",)"
                         R"("vectors":256})");
  EXPECT_FALSE(resp_ok(timed));
  EXPECT_EQ(err_code(timed), "bad_request");
  EXPECT_NE(timed.dump().find("waveforms over"), std::string::npos)
      << timed.dump();
  EXPECT_TRUE(resp_ok(roundtrip(svc, R"({"verb":"estimate","session":"s1"})")));
}

// ---------------------------------------------------------------------------
// Graceful degradation.

TEST(ServiceDegrade, ForcedTapeFailureFallsBackInsideMutate) {
  service::Session s("s", "");
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  double before = core::metrics::value("power.inc.tape_fallback");
  power::detail::force_tape_failures(1);
  JsonArray arr;
  {
    Json op;
    op.set("op", Json("set_size"));
    op.set("node", Json("n22"));
    op.set("value", Json(2.0));
    arr.push_back(op);
  }
  auto r = s.mutate(Json{arr}, nullptr);
  EXPECT_TRUE(r.status.is_ok());  // degraded, not failed
  power::detail::force_tape_failures(0);
  // The estimate after the degraded update still matches a fresh analysis.
  Netlist net = bench_net();
  auto* n1 = net.find("n22") ? &net.node(*net.find("n22")) : nullptr;
  ASSERT_NE(n1, nullptr);
  n1->size = 2.0;
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  auto full = power::analyze(net, ao);
  Json none;
  auto est = s.estimate(none, nullptr);
  ASSERT_TRUE(est.status.is_ok());
  for (auto& [k, v] : est.payload)
    if (k == "power_w")
      EXPECT_EQ(v.as_number(), full.report.breakdown.total_w());
  EXPECT_GE(core::metrics::value("power.inc.tape_fallback"), before);
}

TEST(ServiceDegrade, EvictionDegradesEstimatesWithoutBreakingThem) {
  service::ServiceOptions so;
  so.memory_cap_bytes = 1;  // evict everything not currently in use
  service::Service svc(so);
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("a", bench_blif()))));
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("b", bench_blif()))));
  // Loading b (the later request) evicted a's caches under the 1-byte cap.
  Json stat_a = roundtrip(svc, R"({"verb":"stat","session":"a"})");
  EXPECT_EQ(stat_a.find("cache_bytes")->as_number(), 0);
  EXPECT_FALSE(stat_a.find("analyzer")->as_bool());
  // a's estimates still work — served by full analysis, bit-identical.
  Netlist net = bench_net();
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  auto direct = power::analyze(net, ao);
  Json est = roundtrip(svc, R"({"verb":"estimate","session":"a"})");
  ASSERT_TRUE(resp_ok(est));
  EXPECT_EQ(est.find("power_w")->as_number(),
            direct.report.breakdown.total_w());
  EXPECT_FALSE(est.find("cached")->as_bool());
  Json stat2 = roundtrip(svc, R"({"verb":"stat","session":"a"})");
  EXPECT_GE(stat2.find("estimates_degraded")->as_number(), 1);
}

// ---------------------------------------------------------------------------
// Concurrency: estimates in parallel vs serialized must be bit-identical.

TEST(ServiceConcurrency, ParallelEstimatesMatchSerialized) {
  service::Service svc;
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif()))));

  auto frame_for = [](int seed) {
    Json req;
    req.set("verb", Json("estimate"));
    req.set("session", Json("s1"));
    req.set("seed", Json(seed));
    req.set("id", Json(seed));
    return req.dump();
  };
  constexpr int kThreads = 8, kPerThread = 4;

  // Serialized reference.
  std::vector<std::string> expect(kThreads * kPerThread);
  for (int i = 0; i < kThreads * kPerThread; ++i)
    expect[i] = svc.dispatch(frame_for(i % 5));

  // Concurrent run of the identical request stream.
  std::vector<std::string> got(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int k = t * kPerThread + i;
        got[k] = svc.dispatch(frame_for(k % 5));
      }
    });
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads * kPerThread; ++i)
    EXPECT_EQ(got[i], expect[i]) << "estimate " << i;
}

// An optimize on one session overlaps seeded estimates on another: the
// sessions lock separately, so the flow and the estimates run at once and
// must share no mutable global state.  Every response equals its
// serialized reference.
TEST(ServiceConcurrency, OptimizeOneSessionWhileEstimatingAnother) {
  auto estimate_frame = [](int seed) {
    Json req;
    req.set("verb", Json("estimate"));
    req.set("session", Json("est"));
    req.set("seed", Json(seed));
    return req.dump();
  };
  const std::string optimize_frame =
      R"({"verb":"optimize","session":"opt","flow":"combinational"})";
  auto load_both = [](service::Service& svc) {
    ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("opt", bench_blif(), 256))));
    ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("est", bench_blif(), 256))));
  };
  constexpr int kSeeds = 5;

  service::Service ref;
  ASSERT_NO_FATAL_FAILURE(load_both(ref));
  const std::string opt_expect = ref.dispatch(optimize_frame);
  std::vector<std::string> est_expect;
  for (int seed = 1; seed <= kSeeds; ++seed)
    est_expect.push_back(ref.dispatch(estimate_frame(seed)));

  service::Service svc;
  ASSERT_NO_FATAL_FAILURE(load_both(svc));
  std::atomic<bool> optimizing{true};
  std::string opt_got;
  std::thread optimizer([&] {
    opt_got = svc.dispatch(optimize_frame);
    optimizing.store(false);
  });
  // Estimate for as long as the optimize runs (and at least one round).
  std::vector<std::string> est_got;
  std::vector<int> est_seed;
  do {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      est_got.push_back(svc.dispatch(estimate_frame(seed)));
      est_seed.push_back(seed);
    }
  } while (optimizing.load());
  optimizer.join();

  EXPECT_EQ(opt_got, opt_expect);
  for (std::size_t i = 0; i < est_got.size(); ++i)
    EXPECT_EQ(est_got[i], est_expect[est_seed[i] - 1]) << "estimate " << i;
}

// ---------------------------------------------------------------------------
// Journal recovery.

TEST(ServiceJournal, RecoverReproducesCommittedState) {
  const TempDir tmp("recover");
  const std::string& dir = tmp.path;
  std::string hash_after;
  {
    service::ServiceOptions so;
    so.journal_dir = dir;
    service::Service svc(so);
    ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif()))));
    ASSERT_TRUE(resp_ok(roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":2.0}]})")));
    Json mut2 = roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"add_gate","type":"not","fanins":["n17"],"name":"n17_inv"},{"op":"add_output","node":"n17_inv"}]})");
    ASSERT_TRUE(resp_ok(mut2));
    hash_after = mut2.find("hash")->as_string();
  }  // destructor = abrupt end; journal survives

  service::ServiceOptions so;
  so.journal_dir = dir;
  service::Service svc2(so);
  EXPECT_EQ(svc2.recover_sessions(), 1u);
  Json stat = roundtrip(svc2, R"({"verb":"stat","session":"s1"})");
  ASSERT_TRUE(resp_ok(stat));
  EXPECT_EQ(stat.find("hash")->as_string(), hash_after);
  EXPECT_EQ(stat.find("journal_records")->as_number(), 2);
  // The recovered session keeps working (estimate + rollback).
  EXPECT_TRUE(
      resp_ok(roundtrip(svc2, R"({"verb":"estimate","session":"s1"})")));
  EXPECT_TRUE(
      resp_ok(roundtrip(svc2, R"({"verb":"rollback","session":"s1"})")));
}

TEST(ServiceJournal, RecoverKeepsLoadVectorsAndSeed) {
  // The analyzer options of `load` are part of the base record: the
  // optimize replays with them, and the rebuilt analyzer estimates with
  // them, so the recovered session answers exactly as before the crash.
  const TempDir tmp("recover_cfg");
  const std::string& dir = tmp.path;
  std::string hash_after;
  double power_before = 0.0;
  {
    service::ServiceOptions so;
    so.journal_dir = dir;
    service::Service svc(so);
    Json load;
    load.set("verb", Json("load"));
    load.set("session", Json("s1"));
    load.set("blif", Json(bench_blif()));
    load.set("vectors", Json(256));
    load.set("seed", Json(4242));
    ASSERT_TRUE(resp_ok(roundtrip(svc, load.dump())));
    ASSERT_TRUE(resp_ok(roundtrip(
        svc,
        R"({"verb":"optimize","session":"s1","flow":"combinational"})")));
    Json mut = roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"add_gate","type":"not","fanins":["a0"],"name":"a0_inv"},{"op":"add_output","node":"a0_inv"}]})");
    ASSERT_TRUE(resp_ok(mut));
    hash_after = mut.find("hash")->as_string();
    Json est = roundtrip(svc, R"({"verb":"estimate","session":"s1"})");
    ASSERT_TRUE(resp_ok(est));
    ASSERT_EQ(est.find("vectors_used")->as_number(), 256);
    power_before = est.find("power_w")->as_number();
  }

  service::ServiceOptions so;
  so.journal_dir = dir;
  service::Service svc2(so);
  EXPECT_EQ(svc2.recover_sessions(), 1u);
  Json stat = roundtrip(svc2, R"({"verb":"stat","session":"s1"})");
  ASSERT_TRUE(resp_ok(stat));
  EXPECT_EQ(stat.find("hash")->as_string(), hash_after);
  EXPECT_EQ(stat.find("journal_records")->as_number(), 2);
  Json est = roundtrip(svc2, R"({"verb":"estimate","session":"s1"})");
  ASSERT_TRUE(resp_ok(est));
  EXPECT_TRUE(est.find("cached")->as_bool());
  EXPECT_EQ(est.find("vectors_used")->as_number(), 256);
  EXPECT_EQ(est.find("power_w")->as_number(), power_before);
}

TEST(ServiceJournal, TornFinalRecordTruncatesToCommittedPrefix) {
  const TempDir tmp("torn");
  const std::string& dir = tmp.path;
  std::string hash_mid;
  {
    service::ServiceOptions so;
    so.journal_dir = dir;
    service::Service svc(so);
    ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif()))));
    Json mut1 = roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":2.0}]})");
    ASSERT_TRUE(resp_ok(mut1));
    hash_mid = mut1.find("hash")->as_string();
    ASSERT_TRUE(resp_ok(roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n22","value":3.0}]})")));
  }
  // Simulate a kill mid-append of the last record: drop its tail bytes.
  std::string path = dir + "/s1.journal";
  std::ifstream is(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  is.close();
  ASSERT_GT(data.size(), 30u);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(data.data(), static_cast<std::streamsize>(data.size() - 25));
  os.close();

  service::ServiceOptions so;
  so.journal_dir = dir;
  service::Service svc2(so);
  EXPECT_EQ(svc2.recover_sessions(), 1u);
  Json stat = roundtrip(svc2, R"({"verb":"stat","session":"s1"})");
  ASSERT_TRUE(resp_ok(stat));
  // Fully rolled back to the last committed transition — the first mutate.
  EXPECT_EQ(stat.find("journal_records")->as_number(), 1);
  EXPECT_EQ(stat.find("hash")->as_string(), hash_mid);
}

TEST(ServiceJournal, MidJournalHashMismatchTruncatesThere) {
  // A bad record mid-journal truncates the journal there after one replay
  // of the records up to it (the bad record applied before its hash check
  // failed, and is undone in place) — not one replay per record past it,
  // each re-running every optimize flow in its prefix.
  const TempDir tmp("mid_mismatch");
  const std::string& dir = tmp.path;
  std::string hash_first, hash_opt;
  double flow_stages = 0.0;
  auto stages = [] {
    return core::metrics::value("flow.stages_kept") +
           core::metrics::value("flow.stages_reverted") +
           core::metrics::value("flow.stages_failed");
  };
  {
    service::ServiceOptions so;
    so.journal_dir = dir;
    service::Service svc(so);
    ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif()))));
    Json mut = roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":2.0}]})");
    ASSERT_TRUE(resp_ok(mut));
    hash_first = mut.find("hash")->as_string();
    const double before = stages();
    ASSERT_TRUE(resp_ok(roundtrip(
        svc,
        R"({"verb":"optimize","session":"s1","flow":"combinational"})")));
    flow_stages = stages() - before;
    ASSERT_GT(flow_stages, 0.0);
    Json stat = roundtrip(svc, R"({"verb":"stat","session":"s1"})");
    hash_opt = stat.find("hash")->as_string();
    for (int k = 1; k <= 20; ++k) {
      ASSERT_TRUE(resp_ok(roundtrip(
          svc, R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"a0","value":)" +
                   std::to_string(1.0 + k / 8.0) + "}]}")));
    }
  }
  // Corrupt the optimize record's hash (line 3: base, mutate, optimize).
  const std::string path = dir + "/s1.journal";
  std::vector<std::string> lines;
  {
    std::ifstream is(path, std::ios::binary);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 23u);
  const std::size_t at = lines[2].find(hash_opt);
  ASSERT_NE(at, std::string::npos);
  lines[2].replace(at, hash_opt.size(), "0x0000000000000001");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) os << line << '\n';
  }

  service::ServiceOptions so;
  so.journal_dir = dir;
  service::Service svc2(so);
  const double before = stages();
  EXPECT_EQ(svc2.recover_sessions(), 1u);
  EXPECT_LE(stages() - before, flow_stages);
  Json stat = roundtrip(svc2, R"({"verb":"stat","session":"s1"})");
  ASSERT_TRUE(resp_ok(stat));
  EXPECT_EQ(stat.find("journal_records")->as_number(), 1);
  EXPECT_EQ(stat.find("hash")->as_string(), hash_first);
  // The journal file is rewritten to the kept prefix.
  std::vector<std::string> kept;
  {
    std::ifstream is(path, std::ios::binary);
    for (std::string line; std::getline(is, line);) kept.push_back(line);
  }
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[1], lines[1]);
}

TEST(ServiceJournal, GarbageJournalIsSkippedNotFatal) {
  const TempDir tmp("garbage");
  const std::string& dir = tmp.path;
  {
    std::ofstream os(dir + "/bad.journal");
    os << "this is not a journal\n";
  }
  service::ServiceOptions so;
  so.journal_dir = dir;
  service::Service svc(so);
  EXPECT_EQ(svc.recover_sessions(), 0u);
  // The daemon is fine; the broken name is still loadable fresh.
  EXPECT_TRUE(resp_ok(roundtrip(svc, load_frame("bad", bench_blif()))));
}

// ---------------------------------------------------------------------------
// Rollback by undo frame, differential against journal replay.

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

// A stat response less what a session recovered from the same journal
// legitimately lacks: the cache size and the estimate counters (they count
// the requests a session served, and recovery starts them afresh).
std::string session_state(const Json& stat) {
  JsonObject kept;
  for (const auto& [k, v] : stat.as_object())
    if (k != "cache_bytes" && k.rfind("estimates_", 0) != 0)
      kept.emplace_back(k, v);
  return Json(kept).dump();
}

std::string verb_frame(const std::string& verb, const std::string& session,
                       JsonObject extra = {}) {
  Json req;
  req.set("verb", Json(verb));
  req.set("session", Json(session));
  for (auto& [k, v] : extra) req.set(k, v);
  return req.dump();
}

// Seeded edit scripts over the bench netlist's node names and the names the
// scripts add: mostly legal edits, mixed with cycles (replace_fanin,
// substitute), duplicate PO names, removal of used or PO-driving nodes,
// sweep, strash and add_input.
class EditScripts {
 public:
  explicit EditScripts(std::uint64_t seed) : rng_(seed) {
    Netlist net = bench_net();
    for (NodeId id = 0; id < net.size(); ++id)
      if (!net.is_dead(id) && !net.node(id).name.empty())
        names_.push_back(net.node(id).name);
    po_name_ = net.output_names().front();
  }

  Json next() {
    JsonArray ops;
    for (int n = 1 + static_cast<int>(rng_() % 3); n > 0; --n)
      ops.push_back(op());
    return Json(std::move(ops));
  }

 private:
  Json node() { return Json(names_[rng_() % names_.size()]); }
  std::string fresh(const char* prefix) {
    names_.push_back(prefix + std::to_string(fresh_++));
    return names_.back();
  }

  Json op() {
    Json o;
    switch (rng_() % 12) {
      case 0:
      case 1:
        o.set("op", Json("replace_fanin"));
        o.set("node", node());
        o.set("index", Json(static_cast<int>(rng_() % 2)));
        o.set("with", node());
        break;
      case 2:
        o.set("op", Json("substitute"));
        o.set("old", node());
        o.set("with", node());
        break;
      case 3:
      case 4:
        o.set("op", Json("add_gate"));
        o.set("type", Json(rng_() % 2 ? "and" : "xor"));
        o.set("fanins", Json(JsonArray{node(), node()}));
        o.set("name", Json(fresh("g")));
        break;
      case 5:
        o.set("op", Json("add_input"));
        o.set("name", Json(fresh("pi")));
        break;
      case 6:
        o.set("op", Json("add_output"));
        o.set("node", node());
        o.set("name", Json(rng_() % 2 ? po_name_
                                      : "po" + std::to_string(fresh_++)));
        break;
      case 7:
        o.set("op", Json("remove"));
        o.set("node", node());
        break;
      case 8:
      case 9:
        o.set("op", Json(rng_() % 2 ? "set_size" : "set_delay"));
        o.set("node", node());
        o.set("value", Json(1 + static_cast<int>(rng_() % 4)));
        break;
      default:
        o.set("op", Json(rng_() % 3 ? "sweep" : "strash"));
        break;
    }
    return o;
  }

  std::mt19937_64 rng_;
  std::vector<std::string> names_;
  std::string po_name_;
  int fresh_ = 0;
};

// After a rollback of session "main": a session recovered by replay from a
// copy of its journal agrees with it on state, on the rollback's answer and
// on cached and seeded estimate responses, byte for byte.
void expect_matches_replay(service::Service& svc, const std::string& journal,
                           const Json& rolled_back) {
  const TempDir tmp("replay_ref");
  const std::string& dir = tmp.path;
  std::filesystem::copy_file(journal, dir + "/main.journal");
  service::ServiceOptions so;
  so.journal_dir = dir;
  service::Service ref(so);
  ASSERT_EQ(ref.recover_sessions(), 1u);
  Json want = roundtrip(ref, verb_frame("stat", "main"));
  EXPECT_EQ(session_state(roundtrip(svc, verb_frame("stat", "main"))),
            session_state(want));
  for (const char* k : {"hash", "gates", "journal_records"})
    EXPECT_EQ(rolled_back.find(k)->dump(), want.find(k)->dump()) << k;
  for (const std::string& est :
       {verb_frame("estimate", "main"),
        verb_frame("estimate", "main", {{"seed", Json(7)}})})
    EXPECT_EQ(svc.dispatch(est), ref.dispatch(est));
}

// Seeded scripts of mutate, optimize, estimate, rollback, eviction and
// recovery.  After every rollback the session matches a replayed twin, and
// its journal is byte for byte the file it had when it last held that many
// records — what a replaying rollback rewrites.
TEST(ServiceRollback, UndoMatchesReplay) {
  const double undo0 = core::metrics::value("service.rollback.undo");
  const double replay0 = core::metrics::value("service.rollback.replay");
  int rollbacks = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TempDir tmp("undo");
    const std::string& dir = tmp.path;
    const std::string journal = dir + "/main.journal";
    service::ServiceOptions so;
    so.journal_dir = dir;
    so.memory_cap_bytes = 1;  // a request on "pad" evicts "main"
    service::Service svc(so);
    ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("main", bench_blif()))));
    ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("pad", bench_blif()))));
    {  // The base record: the parsed base's hash and its version, the
       // load's analyzer options (default here), then the BLIF text.
      Json base;
      base.set("type", Json("base"));
      base.set("hash",
               Json(service::format_hash(structural_hash(bench_net()))));
      base.set("hash_version", Json(2));
      base.set("vectors", Json(2048));
      base.set("seed", Json(service::format_hash(0xC0FFEE)));
      base.set("blif", Json(bench_blif()));
      EXPECT_EQ(read_file(journal), base.dump() + "\n");
    }
    std::vector<std::string> journal_at{read_file(journal)};  // by #records
    auto committed = [&](const Json& r) {
      std::size_t k = static_cast<std::size_t>(
          r.find("journal_records")->as_number());
      ASSERT_EQ(journal_at.size(), k);
      journal_at.push_back(read_file(journal));
    };
    EditScripts scripts(seed);
    std::mt19937_64 rng(seed);
    bool optimized = false;
    for (int step = 0; step < 90; ++step) {
      const int kind = static_cast<int>(rng() % 20);
      if (kind < 8) {
        JsonObject ops{{"ops", scripts.next()}};
        Json r = roundtrip(svc, verb_frame("mutate", "main", ops));
        if (resp_ok(r)) committed(r);
        else EXPECT_EQ(read_file(journal), journal_at.back());
      } else if (kind < 13) {
        Json r = roundtrip(svc, verb_frame("rollback", "main"));
        if (journal_at.size() == 1) {
          EXPECT_EQ(err_code(r), "nothing_to_do");
          continue;
        }
        ASSERT_TRUE(resp_ok(r)) << r.dump();
        ++rollbacks;
        journal_at.pop_back();
        EXPECT_EQ(read_file(journal), journal_at.back());
        ASSERT_NO_FATAL_FAILURE(expect_matches_replay(svc, journal, r));
      } else if (kind < 15) {
        JsonObject seeded{{"seed", Json(static_cast<int>(rng() % 100))}};
        EXPECT_TRUE(resp_ok(roundtrip(
            svc, verb_frame("estimate", "main", kind == 13 ? JsonObject{}
                                                           : seeded))));
      } else if (kind < 17) {
        EXPECT_TRUE(resp_ok(roundtrip(svc, verb_frame("estimate", "pad"))));
      } else if (kind < 19) {
        EXPECT_EQ(svc.recover_sessions(), 2u);
      } else if (!optimized) {
        optimized = true;
        Json r = roundtrip(svc, verb_frame("optimize", "main"));
        ASSERT_TRUE(resp_ok(r)) << r.dump();
        committed(r);
      }
    }
  }
  EXPECT_GE(rollbacks, 40);
  // Both paths ran: frames, and replay after an eviction or a recovery.
  EXPECT_GT(core::metrics::value("service.rollback.undo"), undo0);
  EXPECT_GT(core::metrics::value("service.rollback.replay"), replay0);
  EXPECT_EQ(core::metrics::value("service.rollback.undo_mismatch"), 0);
}

// A deadline inside the undo's re-analysis leaves the session, its journal
// and its frame as they were; the retry then pops the same frame.
TEST(ServiceRollback, CancelledRollbackLeavesEverythingUnchanged) {
  const TempDir tmp("rb_cancel");
  const std::string& dir = tmp.path;
  const std::string journal = dir + "/s.journal";
  service::Session s("s", journal);
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  const std::uint64_t hash0 = s.hash();
  auto ops = service::json_parse(
      R"([{"op":"replace_fanin","node":"n17","index":0,"with":"a3"}])");
  ASSERT_TRUE(s.mutate(*ops, nullptr).status.is_ok());
  const std::uint64_t hash1 = s.hash();
  const std::string journal1 = read_file(journal);
  Json none;
  const std::string est1 = Json(s.estimate(none, nullptr).payload).dump();
  const std::string stat1 = Json(s.stat()).dump();
  const double undo0 = core::metrics::value("service.rollback.undo");
  const double replay0 = core::metrics::value("service.rollback.replay");

  for (int budget : {0, 1}) {  // pre-fired, then mid-sweep
    core::CancelToken t;
    if (budget == 0) t.cancel();
    else t.cancel_after(budget);
    EXPECT_THROW(s.rollback(&t), core::CancelledError) << budget;
    EXPECT_EQ(s.hash(), hash1);
    EXPECT_EQ(s.journal_records(), 1u);
    EXPECT_EQ(read_file(journal), journal1);
    EXPECT_EQ(Json(s.stat()).dump(), stat1);
  }
  // The analyzer's caches still describe the edited netlist.
  EXPECT_EQ(Json(s.estimate(none, nullptr).payload).dump(), est1);
  EXPECT_EQ(core::metrics::value("service.rollback.undo"), undo0);

  auto r = s.rollback(nullptr);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(s.hash(), hash0);
  EXPECT_EQ(core::metrics::value("service.rollback.undo"), undo0 + 1);
  EXPECT_EQ(core::metrics::value("service.rollback.replay"), replay0);
}

// An optimize frame is the whole pre-optimize netlist: rolling it back runs
// no flow stage, and the estimate matches the loaded netlist's.
TEST(ServiceRollback, OptimizeRollbackDoesNotRerunTheFlow) {
  service::Service svc;
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif(), 256))));
  ASSERT_TRUE(resp_ok(roundtrip(svc, verb_frame("optimize", "s1"))));
  ASSERT_TRUE(resp_ok(roundtrip(
      svc, verb_frame("mutate", "s1",
                      {{"ops", *service::json_parse(
                                   R"([{"op":"sweep"},{"op":"strash"}])")}}))));
  const std::size_t stages = core::metrics::Registry::global().stages().size();
  const double undo0 = core::metrics::value("service.rollback.undo");
  ASSERT_TRUE(resp_ok(roundtrip(svc, verb_frame("rollback", "s1"))));
  Json rb = roundtrip(svc, verb_frame("rollback", "s1"));
  ASSERT_TRUE(resp_ok(rb));
  EXPECT_EQ(core::metrics::Registry::global().stages().size(), stages);
  EXPECT_EQ(core::metrics::value("service.rollback.undo"), undo0 + 2);
  EXPECT_EQ(rb.find("hash")->as_string(),
            service::format_hash(structural_hash(bench_net())));
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 256;
  Json est = roundtrip(svc, verb_frame("estimate", "s1"));
  EXPECT_TRUE(est.find("cached")->as_bool());
  EXPECT_EQ(est.find("power_w")->as_number(),
            power::analyze(bench_net(), ao).report.breakdown.total_w());
}

// Every rollback path is counted: frames while they stand, replay after an
// eviction or a recovery dropped them, and never a silent mismatch.
TEST(ServiceRollback, PathCountsAreExact) {
  const TempDir tmp("rb_counts");
  const std::string& dir = tmp.path;
  service::Session s("s", dir + "/s.journal");
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  int size = 0;
  auto mutate = [&] {
    JsonArray ops;
    Json op;
    op.set("op", Json("set_size"));
    op.set("node", Json("n17"));
    op.set("value", Json(2 + size++));
    ops.push_back(op);
    ASSERT_TRUE(s.mutate(Json(ops), nullptr).status.is_ok());
  };
  auto rollback = [&] { ASSERT_TRUE(s.rollback(nullptr).status.is_ok()); };
  auto counts = [] {
    return std::vector<double>{
        core::metrics::value("service.rollback.undo"),
        core::metrics::value("service.rollback.replay"),
        core::metrics::value("service.rollback.undo_mismatch")};
  };
  const auto c0 = counts();
  mutate(), mutate(), mutate();
  rollback(), rollback();  // 2 undo; m1 stands
  mutate(), mutate();      // frames: m1 m4 m5
  s.evict_caches();        // drops them
  rollback();              // replay
  mutate();                // frame: m6
  rollback();              // undo
  rollback();              // replay (m4 has no frame)
  mutate();
  ASSERT_TRUE(s.recover(nullptr).status.is_ok());  // drops the frame
  rollback(), rollback();  // replay, replay
  EXPECT_EQ(s.journal_records(), 0u);
  const auto c1 = counts();
  EXPECT_EQ(c1[0] - c0[0], 3);
  EXPECT_EQ(c1[1] - c0[1], 4);
  EXPECT_EQ(c1[2] - c0[2], 0);
}

Json set_size_ops(const char* node, double value) {
  Json op;
  op.set("op", Json("set_size"));
  op.set("node", Json(node));
  op.set("value", Json(value));
  return Json(JsonArray{op});
}

// A rollback, on the frame path and on the replay path, truncates the
// journal at the popped record's offset: the file is byte for byte what it
// was before that record was appended, and it is the same file — no temp
// file, no rename.  Appends after a truncation land where the popped
// records were, and a torn tail among them recovers to the prefix.
TEST(ServiceJournal, RollbackTruncatesInPlace) {
  const TempDir tmp("truncate");
  const std::string journal = tmp.path + "/s.journal";
  service::Session s("s", journal);
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  auto inode = [&] {
    struct stat st {};
    EXPECT_EQ(::stat(journal.c_str(), &st), 0);
    return st.st_ino;
  };
  const auto ino = inode();
  std::vector<std::string> at{read_file(journal)};  // by #records
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(s.mutate(set_size_ops("n17", 2.0 + k), nullptr).status.is_ok());
    at.push_back(read_file(journal));
  }
  const double undo0 = core::metrics::value("service.rollback.undo");
  const double replay0 = core::metrics::value("service.rollback.replay");
  ASSERT_TRUE(s.rollback(nullptr).status.is_ok());
  EXPECT_EQ(core::metrics::value("service.rollback.undo") - undo0, 1);
  EXPECT_EQ(read_file(journal), at[2]);
  s.evict_caches();  // drops the frames: the next rollback replays
  ASSERT_TRUE(s.rollback(nullptr).status.is_ok());
  EXPECT_EQ(core::metrics::value("service.rollback.replay") - replay0, 1);
  EXPECT_EQ(read_file(journal), at[1]);
  EXPECT_EQ(inode(), ino);
  for (const auto& e : std::filesystem::directory_iterator(tmp.path))
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();

  ASSERT_TRUE(s.mutate(set_size_ops("n22", 5.0), nullptr).status.is_ok());
  const std::uint64_t hash_mid = s.hash();
  ASSERT_TRUE(s.mutate(set_size_ops("n22", 6.0), nullptr).status.is_ok());
  EXPECT_EQ(inode(), ino);
  std::string data = read_file(journal);
  ASSERT_GT(data.size(), at[1].size() + 30);
  {
    std::ofstream os(journal, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size() - 25));
  }
  service::Session r("s", journal);
  service::OpResult rec = r.recover(nullptr);
  ASSERT_TRUE(rec.status.is_ok());
  EXPECT_TRUE(rec.payload.back().second.as_bool());  // "truncated"
  EXPECT_EQ(r.journal_records(), 2u);
  EXPECT_EQ(r.hash(), hash_mid);
}

// An append that cannot open the journal leaves the file one record short
// of the session.  The rollback that pops that record must not truncate at
// the offset of the record below it: it rewrites the file, which then
// recovers to the committed prefix.  The same holds with no record below
// (load, failed append, rollback).
TEST(ServiceJournal, FailedAppendRewritesOnRollback) {
  const TempDir tmp("failed_append");
  const std::string journal = tmp.path + "/s.journal";
  const std::string aside = tmp.path + "/aside";
  for (int k : {0, 2}) {
    service::Session s("s", journal);
    ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
    for (int i = 0; i < k; ++i)
      ASSERT_TRUE(s.mutate(set_size_ops("n17", 2.0 + i), nullptr).status.is_ok());
    const std::uint64_t hash = s.hash();
    const std::string before = read_file(journal);
    // A directory at the journal path makes the next append fail.
    std::filesystem::rename(journal, aside);
    std::filesystem::create_directory(journal);
    const double failed0 = core::metrics::value("service.journal_write_failed");
    ASSERT_TRUE(s.mutate(set_size_ops("n22", 7.0), nullptr).status.is_ok());
    EXPECT_EQ(core::metrics::value("service.journal_write_failed") - failed0, 1);
    std::filesystem::remove(journal);
    std::filesystem::rename(aside, journal);

    ASSERT_TRUE(s.rollback(nullptr).status.is_ok());
    EXPECT_EQ(s.hash(), hash);
    EXPECT_EQ(read_file(journal), before) << "k=" << k;
    service::Session r("s", journal);
    ASSERT_TRUE(r.recover(nullptr).status.is_ok());
    EXPECT_EQ(r.journal_records(), static_cast<std::size_t>(k));
    EXPECT_EQ(r.hash(), hash);

    // The session appends in step again.
    ASSERT_TRUE(s.mutate(set_size_ops("n22", 8.0), nullptr).status.is_ok());
    service::Session r2("s", journal);
    ASSERT_TRUE(r2.recover(nullptr).status.is_ok());
    EXPECT_EQ(r2.journal_records(), static_cast<std::size_t>(k + 1));
    EXPECT_EQ(r2.hash(), s.hash());
    std::filesystem::remove(journal);
  }
}

// A kill can cut an append just before its newline: the record parses and
// recovers, and the next append must not land on its line, where the
// following recovery would find one unparsable line and drop both.
TEST(ServiceJournal, UnterminatedFinalRecordKeepsNextAppend) {
  const TempDir tmp("unterminated");
  const std::string journal = tmp.path + "/s.journal";
  {
    service::Session s("s", journal);
    ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
    ASSERT_TRUE(s.mutate(set_size_ops("n17", 2.0), nullptr).status.is_ok());
  }
  std::string data = read_file(journal);
  ASSERT_EQ(data.back(), '\n');
  {
    std::ofstream os(journal, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size() - 1));
  }
  std::uint64_t hash = 0;
  {
    service::Session s("s", journal);
    ASSERT_TRUE(s.recover(nullptr).status.is_ok());
    ASSERT_EQ(s.journal_records(), 1u);
    ASSERT_TRUE(s.mutate(set_size_ops("n22", 3.0), nullptr).status.is_ok());
    hash = s.hash();
  }
  service::Session r("s", journal);
  service::OpResult rec = r.recover(nullptr);
  ASSERT_TRUE(rec.status.is_ok());
  EXPECT_FALSE(rec.payload.back().second.as_bool());  // "truncated"
  EXPECT_EQ(r.journal_records(), 2u);
  EXPECT_EQ(r.hash(), hash);
}

// A journal written before "hash_version" existed carries the retired chain
// hashes.  It recovers to the same state, each record checked against its
// chain hash, and is rewritten once as version 2: byte for byte the
// journal a session writes for the same edits today.  A record whose chain
// hash does not match still truncates the journal there.
TEST(ServiceJournal, Version1JournalRecovers) {
  // What version 1 wrote for bench_blif() and after each edit below.
  const char* const kChain[] = {"0x56c6c8c193c5eb5b", "0x1bde330d56f16865",
                                "0xa80ef3f7efaa26c2"};
  const Json edits[] = {
      set_size_ops("n17", 2.0),
      *service::json_parse(
          R"([{"op":"add_gate","type":"not","fanins":["n17"],"name":"inv"},)"
          R"({"op":"add_output","node":"inv"}])")};
  const TempDir tmp("v1");
  const std::string journal = tmp.path + "/s.journal";
  std::string v2;
  std::uint64_t hash_first = 0, hash_second = 0;
  {
    service::Session s("s", journal);
    ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
    ASSERT_TRUE(s.mutate(edits[0], nullptr).status.is_ok());
    hash_first = s.hash();
    ASSERT_TRUE(s.mutate(edits[1], nullptr).status.is_ok());
    hash_second = s.hash();
    v2 = read_file(journal);
  }
  // The same journal in version 1: no "hash_version", chain hashes.
  auto v1_journal = [&](const char* second) {
    std::istringstream is(v2);
    std::string line, out;
    for (int i = 0; std::getline(is, line); ++i) {
      const Json doc = *service::json_parse(line);
      Json rec;
      for (const auto& [k, v] : doc.as_object())
        if (k != "hash_version") rec.set(k, v);
      rec.set("hash", Json(i == 2 ? second : kChain[i]));
      out += rec.dump() + "\n";
    }
    return out;
  };
  auto recover = [&](const std::string& text) {
    {
      std::ofstream os(journal, std::ios::binary | std::ios::trunc);
      os << text;
    }
    service::Session r("s", journal);
    service::OpResult res = r.recover(nullptr);
    EXPECT_TRUE(res.status.is_ok());
    return std::make_tuple(r.journal_records(), r.hash(),
                           res.payload.back().second.as_bool());
  };
  EXPECT_EQ(recover(v1_journal(kChain[2])),
            std::make_tuple(std::size_t{2}, hash_second, false));
  EXPECT_EQ(read_file(journal), v2);
  // Recovery checks the chain hashes: a wrong one truncates there.
  EXPECT_EQ(recover(v1_journal("0x0123456789abcdef")),
            std::make_tuple(std::size_t{1}, hash_first, true));
  EXPECT_EQ(read_file(journal), v2.substr(0, v2.rfind('\n', v2.size() - 2) + 1));
}

// A mutate and its journal replay apply the edit through the same scoped
// check: N mutate records cost N scoped checks when committed and N again
// when recovered, and neither path runs a whole-netlist check (recovery's
// one is the base record's BLIF parse).  A rejected edit is worded by the
// scoped check's first violation.
TEST(ServiceJournal, MutateAndReplayRunOnlyScopedChecks) {
  const TempDir tmp("scoped_checks");
  service::Session s("s", tmp.path + "/s.journal");
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  auto full = [] { return core::metrics::value("netlist.check_full"); };
  auto scoped = [] { return core::metrics::value("netlist.check_edit"); };
  constexpr int kRecords = 6;
  const double full0 = full(), scoped0 = scoped();
  for (int k = 0; k < kRecords; ++k) {
    const std::string inv = "inv" + std::to_string(k);
    const std::string ops =
        k % 2 ? R"([{"op":"set_size","node":"n17","value":3.0}])"
              : R"([{"op":"add_gate","type":"not","fanins":["n17"],"name":")" +
                    inv + R"("},{"op":"add_output","node":")" + inv + R"("}])";
    ASSERT_TRUE(s.mutate(*service::json_parse(ops), nullptr).status.is_ok())
        << k;
  }
  EXPECT_EQ(scoped() - scoped0, kRecords);
  EXPECT_EQ(full() - full0, 0);

  service::OpResult cyc = s.mutate(
      *service::json_parse(
          R"([{"op":"add_gate","type":"not","fanins":["n17"],"name":"loop"},)"
          R"({"op":"replace_fanin","node":"loop","index":0,"with":"loop"}])"),
      nullptr);
  ASSERT_FALSE(cyc.status.is_ok());
  EXPECT_EQ(cyc.status.diagnostic().message.rfind(
                "edit script breaks invariants: combinational cycle: ", 0),
            0u)
      << cyc.status.diagnostic().message;
  EXPECT_EQ(full() - full0, 0);

  // What parsing the base record alone costs in whole-netlist checks.
  const double parse0 = full();
  {
    diag::DiagEngine eng;
    ASSERT_TRUE(blif::parse_string(bench_blif(), eng).has_value());
  }
  const double parse_checks = full() - parse0;
  const double full1 = full(), scoped1 = scoped();
  ASSERT_TRUE(s.recover(nullptr).status.is_ok());
  EXPECT_EQ(s.journal_records(), static_cast<std::size_t>(kRecords));
  EXPECT_EQ(scoped() - scoped1, kRecords);
  EXPECT_EQ(full() - full1, parse_checks);
}

// Shared estimates on one session overlap exclusive mutate/rollback cycles
// on another: every estimate equals its serialized reference, and the
// rolled-back session ends where it started.
TEST(ServiceRollback, EstimatesOverlapRollbackOnAnotherSession) {
  auto estimate_frame = [](int seed) {
    return verb_frame("estimate", "est", {{"seed", Json(seed)}});
  };
  const std::string mutate_frame = verb_frame(
      "mutate", "rb",
      {{"ops", *service::json_parse(
                   R"([{"op":"replace_fanin","node":"n17","index":0,"with":"a3"}])")}});
  service::Service svc;
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("est", bench_blif(), 256))));
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("rb", bench_blif(), 256))));
  constexpr int kSeeds = 4;
  std::vector<std::string> expect;
  for (int seed = 1; seed <= kSeeds; ++seed)
    expect.push_back(svc.dispatch(estimate_frame(seed)));
  const std::string hash0 =
      roundtrip(svc, verb_frame("stat", "rb")).find("hash")->as_string();

  std::atomic<bool> editing{true};
  std::thread editor([&] {
    for (int i = 0; i < 20; ++i) {
      svc.dispatch(mutate_frame);
      svc.dispatch(verb_frame("rollback", "rb"));
    }
    editing.store(false);
  });
  std::vector<std::thread> readers;
  std::vector<std::vector<std::string>> got(2);
  for (int t = 0; t < 2; ++t)
    readers.emplace_back([&, t] {
      do {
        for (int seed = 1; seed <= kSeeds; ++seed)
          got[t].push_back(svc.dispatch(estimate_frame(seed)));
      } while (editing.load());
    });
  editor.join();
  for (auto& th : readers) th.join();
  for (const auto& g : got)
    for (std::size_t i = 0; i < g.size(); ++i)
      EXPECT_EQ(g[i], expect[i % kSeeds]) << "estimate " << i;
  Json st = roundtrip(svc, verb_frame("stat", "rb"));
  EXPECT_EQ(st.find("hash")->as_string(), hash0);
  EXPECT_EQ(st.find("journal_records")->as_number(), 0);
}

// ---------------------------------------------------------------------------
// Protocol fuzz: 3000 seeded mutations of valid frames, every one answered.

TEST(ServiceFuzz, MutatedFramesAlwaysGetStructuredAnswers) {
  service::Service svc;
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif(), 256))));

  const std::string corpus[] = {
      load_frame("s2", bench_blif(), 256),
      R"({"verb":"ping","id":42})",
      R"({"verb":"estimate","session":"s1","seed":7,"deadline_ms":5000})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":2.0}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"add_gate","type":"and","fanins":["a0","b0"],"name":"t1"}]})",
      R"({"verb":"rollback","session":"s1"})",
      R"({"verb":"stat","session":"s1"})",
      R"({"verb":"stat"})",
  };

  std::mt19937 rng(0xF00D);
  auto mutate_frame = [&](std::string s) {
    int kind = static_cast<int>(rng() % 6);
    if (s.empty()) return s;
    std::size_t pos = rng() % s.size();
    switch (kind) {
      case 0: s[pos] = static_cast<char>(rng() % 256); break;       // smash
      case 1: s.erase(pos, std::min<std::size_t>(s.size() - pos,
                                                 1 + rng() % 8)); break;
      case 2: s.insert(pos, std::string(1 + rng() % 4,
                                        static_cast<char>(rng() % 256)));
              break;
      case 3: s = s.substr(0, pos); break;                          // truncate
      case 4: std::swap(s[pos], s[rng() % s.size()]); break;
      case 5: s += s.substr(0, pos); break;                         // duplicate
    }
    return s;
  };

  int structured = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string frame = corpus[rng() % std::size(corpus)];
    int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) frame = mutate_frame(std::move(frame));
    std::string resp = svc.dispatch(frame);
    auto doc = service::json_parse(resp);
    ASSERT_TRUE(doc.has_value()) << "frame " << i << ": " << frame;
    const Json* ok = doc->find("ok");
    ASSERT_TRUE(ok && ok->is_bool()) << "frame " << i;
    ++structured;
  }
  EXPECT_EQ(structured, 3000);
  // After 3000 hostile frames the daemon still works end to end.
  EXPECT_TRUE(
      resp_ok(roundtrip(svc, R"({"verb":"estimate","session":"s1"})")));
}

// ---------------------------------------------------------------------------
// Sockets.

TEST(ServiceSockets, RoundTripAndHostileClients) {
  const TempDir tmp("sock");
  const std::string& dir = tmp.path;
  std::string path = dir + "/d.sock";
  service::Service svc;
  service::SocketServer server(svc, path);
  ASSERT_TRUE(server.start().is_ok());
  std::thread serving([&] { server.serve(); });

  {
    service::SocketClient c;
    ASSERT_TRUE(c.connect(path).is_ok());
    auto pong = c.roundtrip(R"({"verb":"ping"})");
    ASSERT_TRUE(pong.has_value());
    EXPECT_NE(pong->find("\"pong\":true"), std::string::npos);

    auto loaded = c.roundtrip(load_frame("s1", bench_blif()));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_NE(loaded->find("\"ok\":true"), std::string::npos);

    // Pipelining: two frames in one write, two responses back.
    ASSERT_TRUE(c.send_raw("{\"verb\":\"ping\",\"id\":1}\n"
                           "{\"verb\":\"ping\",\"id\":2}\n"));
    auto r1 = c.read_line(), r2 = c.read_line();
    ASSERT_TRUE(r1.has_value() && r2.has_value());
    EXPECT_NE(r1->find("\"id\":1"), std::string::npos);
    EXPECT_NE(r2->find("\"id\":2"), std::string::npos);
  }

  {
    // Hostile: truncated frame then disconnect — daemon must survive.
    service::SocketClient c;
    ASSERT_TRUE(c.connect(path).is_ok());
    ASSERT_TRUE(c.send_raw(R"({"verb":"estimate","ses)"));
    c.close();
  }
  {
    // Hostile: binary garbage with newlines — structured errors back.
    service::SocketClient c;
    ASSERT_TRUE(c.connect(path).is_ok());
    ASSERT_TRUE(c.send_raw("\x01\x02\xff garbage\n"));
    auto r = c.read_line();
    ASSERT_TRUE(r.has_value());
    EXPECT_NE(r->find("bad_frame"), std::string::npos);
  }
  {
    // The daemon still answers a well-behaved client afterwards.
    service::SocketClient c;
    ASSERT_TRUE(c.connect(path).is_ok());
    auto est = c.roundtrip(R"({"verb":"estimate","session":"s1"})");
    ASSERT_TRUE(est.has_value());
    EXPECT_NE(est->find("\"ok\":true"), std::string::npos);
    auto bye = c.roundtrip(R"({"verb":"shutdown"})");
    ASSERT_TRUE(bye.has_value());
  }
  serving.join();
}

}  // namespace
}  // namespace lps
