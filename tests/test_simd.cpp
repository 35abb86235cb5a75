// test_simd.cpp — SIMD-width dispatch differential suite.
//
// The contract under test (sim/simd.hpp + sim/kernels_impl.hpp): the lane
// width is a pure performance knob.  Every kernel build — scalar, AVX2,
// AVX-512 — must produce bit-identical frames and activity counters at
// every thread count, on compact and on patched tapes, through the
// full-analysis and the incremental cone paths.  The suite runs the full
// width × thread matrix against the interpreter reference driver
// (tests/activity_reference.hpp), plus unit coverage for the dispatch
// machinery itself (resolve/clamp, LPS_SIM_WIDTH parsing, aligned
// storage, the pinning knob, chunk-grain planning).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "activity_reference.hpp"
#include "logicsim_reference.hpp"
#include "core/aligned.hpp"
#include "core/env.hpp"
#include "core/parallel.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "power/incremental.hpp"
#include "sim/compiled.hpp"
#include "sim/logicsim.hpp"
#include "sim/simd.hpp"

namespace {

using namespace lps;

// Widths this binary can actually execute on this machine: a width is
// runnable exactly when resolve_simd() maps it to itself.  Scalar always
// qualifies, so the matrix below is never empty on any host.
std::vector<sim::SimdWidth> runnable_widths() {
  std::vector<sim::SimdWidth> w{sim::SimdWidth::Scalar};
  if (sim::resolve_simd(sim::SimdWidth::Avx2) == sim::SimdWidth::Avx2)
    w.push_back(sim::SimdWidth::Avx2);
  if (sim::resolve_simd(sim::SimdWidth::Avx512) == sim::SimdWidth::Avx512)
    w.push_back(sim::SimdWidth::Avx512);
  return w;
}

void expect_stats_identical(const sim::ActivityStats& a,
                            const sim::ActivityStats& b,
                            const std::string& what) {
  ASSERT_EQ(a.patterns, b.patterns) << what;
  ASSERT_EQ(a.signal_prob.size(), b.signal_prob.size()) << what;
  for (std::size_t i = 0; i < a.signal_prob.size(); ++i) {
    ASSERT_EQ(a.signal_prob[i], b.signal_prob[i]) << what << " node " << i;
    ASSERT_EQ(a.transition_prob[i], b.transition_prob[i])
        << what << " node " << i;
  }
}

// ---- dispatch machinery ---------------------------------------------------

TEST(Simd, ResolveClampsToDetected) {
  sim::SimdWidth det = sim::detect_simd();
  EXPECT_NE(det, sim::SimdWidth::Auto);
  EXPECT_EQ(sim::resolve_simd(sim::SimdWidth::Auto), det);
  EXPECT_EQ(sim::resolve_simd(det), det);
  // Scalar is always honored verbatim; wider-than-detected requests
  // degrade to detected rather than executing unsupported instructions.
  EXPECT_EQ(sim::resolve_simd(sim::SimdWidth::Scalar),
            sim::SimdWidth::Scalar);
  EXPECT_LE(static_cast<int>(sim::resolve_simd(sim::SimdWidth::Avx512)),
            static_cast<int>(det));
  EXPECT_TRUE(sim::simd_compiled(sim::SimdWidth::Scalar));
  EXPECT_TRUE(sim::simd_compiled(det));
}

TEST(Simd, LaneWordsMatchWidth) {
  EXPECT_EQ(sim::simd_lane_words(sim::SimdWidth::Scalar), 1u);
  for (sim::SimdWidth w : runnable_widths()) {
    std::size_t words = sim::simd_lane_words(w);
    if (w == sim::SimdWidth::Avx2) { EXPECT_EQ(words, 4u); }
    if (w == sim::SimdWidth::Avx512) { EXPECT_EQ(words, 8u); }
  }
}

TEST(Simd, EngineDescReflectsOptions) {
  {
    sim::ScopedSimOptions guard({.width = sim::SimdWidth::Scalar});
    EXPECT_EQ(sim::engine_desc(), "tape[scalar,b16]");
  }
  {
    sim::ScopedSimOptions guard({.width = sim::SimdWidth::Auto});
    std::string d = sim::engine_desc();
    EXPECT_EQ(d, std::string("tape[") +
                     sim::simd_name(sim::detect_simd()) + ",b16]");
  }
}

TEST(Simd, WidthKnobParses) {
  const char* const kWidths[] = {"scalar", "avx2", "avx512", "auto"};
  auto r = core::parse_env_choice("LPS_SIM_WIDTH", "avx2", kWidths, 4, 3);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.present);
  EXPECT_EQ(r.value, 1);
  r = core::parse_env_choice("LPS_SIM_WIDTH", nullptr, kWidths, 4, 3);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.present);
  EXPECT_EQ(r.value, 3);
  // Rejected spellings fall back to the default with a positioned
  // diagnostic naming the accepted choices.
  r = core::parse_env_choice("LPS_SIM_WIDTH", "AVX2", kWidths, 4, 3);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.value, 3);
  EXPECT_EQ(r.status.diagnostic().loc.file, "$LPS_SIM_WIDTH");
  EXPECT_NE(r.status.message().find("avx512"), std::string::npos);
  r = core::parse_env_choice("LPS_SIM_WIDTH", "", kWidths, 4, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.value, 0);
}

// ---- aligned storage ------------------------------------------------------

TEST(Simd, AlignedWordsAlignmentAndSemantics) {
  core::AlignedWords w;
  EXPECT_TRUE(w.empty());
  w.assign(5, 7);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 64, 0u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(w[i], 7u);
  // resize preserves surviving words and zero-fills growth.
  w.resize(130);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 64, 0u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(w[i], 7u);
  for (std::size_t i = 5; i < 130; ++i) EXPECT_EQ(w[i], 0u);
  // repeated same-size assigns must not reallocate (per-chunk reuse).
  const std::uint64_t* p = w.data();
  w.assign(130, 1);
  EXPECT_EQ(w.data(), p);
  // a copy is aligned and holds the same words.
  const core::AlignedWords c = w;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % 64, 0u);
  EXPECT_TRUE(std::equal(c.begin(), c.end(), w.begin(), w.end()));
  // move steals the buffer.
  core::AlignedWords v = std::move(w);
  EXPECT_EQ(v.data(), p);
  EXPECT_EQ(v.size(), 130u);
  for (std::uint64_t x : v) EXPECT_EQ(x, 1u);
}

// ---- locality knobs -------------------------------------------------------

TEST(Simd, PlanChunksOversubscribesLanes) {
  core::ScopedThreads t4(4);
  EXPECT_EQ(core::plan_chunks(64), 8u);  // 2 chunks per lane
  EXPECT_EQ(core::plan_chunks(3), 3u);   // capped by the shard count
  EXPECT_EQ(core::plan_chunks(0), 1u);
  core::ScopedThreads t1(1);
  EXPECT_EQ(core::plan_chunks(64), 1u);  // serial stays serial
}

TEST(Simd, PinningKnobRoundTrips) {
  bool pin0 = core::pin_threads();
  {
    core::ScopedPinning guard(!pin0);
    EXPECT_EQ(core::pin_threads(), !pin0);
  }
  EXPECT_EQ(core::pin_threads(), pin0);
}

TEST(Simd, PlacementPolicyNeverChangesResults) {
  // Pinned vs unpinned workers, at several thread counts (chunk scratch
  // is always first-touched on the worker that runs the chunk): placement
  // is a pure locality policy, counters must be bit-identical (and equal
  // to the interpreter reference).
  auto net = bench::alu(4);
  const sim::ActivityStats ref = reference::measure_activity(net, 512, 99);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    for (bool pin : {false, true}) {
      core::ScopedThreads t(threads);
      core::ScopedPinning place(pin);
      sim::ScopedSimOptions guard({.width = sim::SimdWidth::Auto});
      auto st = sim::measure_activity(net, 512, 99);
      expect_stats_identical(ref, st,
                             "threads=" + std::to_string(threads) +
                                 " pin=" + std::to_string(pin));
    }
  }
}

// ---- the width × thread matrix --------------------------------------------

TEST(Simd, MatrixIdenticalToInterpreterOnSuite) {
  // Every runnable width × threads {1,2,4,8} over the benchmark suite must
  // reproduce the interpreter reference counters exactly.  The reference
  // is computed once per circuit.
  auto suite = bench::default_suite();
  const std::size_t frames = 192;
  for (auto& [name, net] : suite) {
    const sim::ActivityStats ref =
        reference::measure_activity(net, frames, 0xD15C0 + net.size());
    for (sim::SimdWidth w : runnable_widths()) {
      for (unsigned threads : {1u, 2u, 4u, 8u}) {
        core::ScopedThreads t(threads);
        sim::ScopedSimOptions guard({.width = w});
        auto st = sim::measure_activity(net, frames, 0xD15C0 + net.size());
        expect_stats_identical(ref, st,
                               name + " width=" + sim::simd_name(w) +
                                   " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(Simd, ForcedScalarEqualsAutoOnWideHosts) {
  // On a host with AVX kernels, forcing LPS_SIM_WIDTH=scalar must change
  // nothing but the code path — the scalar-forcing CI leg depends on it.
  auto net = bench::array_multiplier(8);
  sim::ActivityStats wide, scalar;
  {
    sim::ScopedSimOptions guard({.width = sim::SimdWidth::Auto});
    wide = sim::measure_activity(net, 256, 5);
  }
  {
    sim::ScopedSimOptions guard({.width = sim::SimdWidth::Scalar});
    scalar = sim::measure_activity(net, 256, 5);
  }
  expect_stats_identical(wide, scalar, "auto vs forced scalar");
}

TEST(Simd, SequentialNetsIdenticalAcrossWidths) {
  // Sequential streams run block 1 (widths then fall through to the
  // scalar/narrow instantiations inside each kernel build) — the counters
  // must still match the interpreter at every width.
  auto net = bench::counter(16);
  const sim::ActivityStats ref = reference::measure_activity(net, 256, 21);
  for (sim::SimdWidth w : runnable_widths()) {
    sim::ScopedSimOptions guard({.width = w});
    auto st = sim::measure_activity(net, 256, 21);
    expect_stats_identical(ref, st, std::string("width=") + sim::simd_name(w));
  }
}

// ---- patched tapes under wide kernels -------------------------------------

Netlist::TouchedNodes splice_po_driver(Netlist& net) {
  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  auto touched = net.touched_nodes();
  net.commit_undo();
  return touched;
}

TEST(Simd, PatchedTapeExecGatesIdenticalAcrossWidths) {
  // update() re-emits records at the tape's end; the offset-table replay
  // (exec_list kernels, with their lookahead prefetch) must evaluate the
  // patched program identically at every width.
  for (sim::SimdWidth w : runnable_widths()) {
    auto net = bench::alu(4);
    sim::ScopedSimOptions guard({.width = w});
    sim::CompiledSim cs(net);
    auto touched = splice_po_driver(net);
    cs.update(touched);
    ASSERT_FALSE(cs.compact());
    reference::LogicSim ref(net);
    std::mt19937_64 rng(3);
    std::vector<std::uint64_t> pi(net.inputs().size());
    sim::Frame fa, fb;
    for (int round = 0; round < 6; ++round) {
      for (auto& v : pi) v = rng();
      ref.eval_into(fa, pi);
      cs.eval_into(fb, pi);
      ASSERT_EQ(fa, fb) << sim::simd_name(w) << " round " << round;
    }
  }
}

TEST(Simd, RevertToRestoresTapeUnderWideKernels) {
  // A rolled-back mutation plus revert_to() must restore the exact
  // pre-mutation program for every kernel build.
  for (sim::SimdWidth w : runnable_widths()) {
    auto net = bench::alu(4);
    sim::ScopedSimOptions guard({.width = w});
    sim::CompiledSim cs(net);
    const std::size_t old_size = net.size();
    std::mt19937_64 rng(17);
    std::vector<std::uint64_t> pi(net.inputs().size());
    for (auto& v : pi) v = rng();
    sim::Frame before;
    cs.eval_into(before, pi);

    net.begin_undo();
    NodeId o = net.outputs()[0];
    net.replace_fanin(o, 0,
                      net.add_not(net.add_not(net.node(o).fanins[0])));
    auto touched = net.touched_nodes();
    net.rollback_undo();
    cs.revert_to(old_size, touched.value_roots);

    sim::Frame after;
    cs.eval_into(after, pi);
    ASSERT_EQ(before, after) << sim::simd_name(w);
  }
}

TEST(Simd, IncrementalConeIdenticalAcrossWidthsAndBlocks) {
  // The cone driver (power/incremental.cpp) replays register-free cones
  // kSimBlock frames at a time — gather boundary words, run the wide
  // kernels, scatter gate columns back — and cones that cross a register
  // one frame at a time (block 1, state stepped per frame).  A multiplier
  // PO splice takes the first path, a counter's register-D splice the
  // second.  After the mutation, reanalyze() must equal a fresh full
  // analyze() of the mutated netlist at every width, and the revert must
  // restore the baseline exactly.
  struct Case {
    const char* block;
    Netlist (*make)();
  };
  const Case cases[] = {
      {"16", +[] { return bench::array_multiplier(6); }},
      {"1", +[] { return bench::counter(8); }},
  };
  for (sim::SimdWidth w : runnable_widths()) {
    for (const Case& c : cases) {
      auto net = c.make();
      sim::ScopedSimOptions guard({.width = w});
      power::AnalysisOptions opt;
      opt.mode = power::ActivityMode::ZeroDelay;
      opt.n_vectors = 2048;
      power::IncrementalAnalyzer inc(net, opt);
      auto baseline = inc.analysis();
      const std::string what = std::string("width=") + sim::simd_name(w) +
                               " block=" + c.block;
      net.begin_undo();
      NodeId o = net.outputs()[0];
      net.replace_fanin(o, 0,
                        net.add_not(net.add_not(net.node(o).fanins[0])));
      auto touched = net.touched_nodes();
      const auto& got = inc.reanalyze(touched);
      EXPECT_FALSE(inc.last_update().full_rebaseline) << what;
      auto want = power::analyze(net, opt);
      ASSERT_EQ(got.report.breakdown.total_w(), want.report.breakdown.total_w()) << what;
      ASSERT_EQ(got.toggles_per_cycle, want.toggles_per_cycle) << what;
      ASSERT_EQ(got.engine, want.engine) << what;
      // And the revert restores the baseline exactly.
      net.rollback_undo();
      inc.revert_last();
      ASSERT_EQ(inc.analysis().report.breakdown.total_w(), baseline.report.breakdown.total_w())
          << what;
      ASSERT_EQ(inc.analysis().toggles_per_cycle, baseline.toggles_per_cycle)
          << what;
    }
  }
}

TEST(Simd, AnalysisReportsEngineString) {
  auto net = bench::alu(4);
  power::AnalysisOptions opt;
  opt.mode = power::ActivityMode::ZeroDelay;
  {
    sim::ScopedSimOptions guard({.width = sim::SimdWidth::Scalar});
    EXPECT_EQ(power::analyze(net, opt).engine, "tape[scalar,b16]");
  }
  opt.mode = power::ActivityMode::Timed;
  EXPECT_EQ(power::analyze(net, opt).engine, "waveform");
}

}  // namespace
