// test_compiled.cpp — compiled-tape simulation differential suite.
//
// The contract under test (sim/compiled.hpp): CompiledSim is a pure
// performance substitution for the per-gate interpreter — every frame it
// evaluates, every activity counter derived from it, every free-source
// batch and every cone splice through it must be bit-identical to the
// interpreter's, at any blocking factor and any thread count.  The suite
// checks the tape against the interpreter (tests/logicsim_reference.hpp)
// frame by frame and the Monte Carlo driver against the interpreter
// reference driver (tests/activity_reference.hpp) over the benchmark circuits
// (including the shapes the tape specializes: 2-input gates, constants,
// MUXes, >64-fanin folds, load-enabled registers), patches the tape
// through mutation undo epochs, and pins the SimOptions plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "activity_reference.hpp"
#include "logicsim_reference.hpp"
#include "core/parallel.hpp"
#include "netlist/benchmarks.hpp"
#include "power/incremental.hpp"
#include "sim/compiled.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

// Per-engine activity measurement of the same workload: the production
// tape driver, or the interpreter reference.
sim::ActivityStats measure_with(const Netlist& net, bool compiled,
                                std::size_t frames, std::uint64_t seed,
                                std::span<const double> pi_one_prob = {}) {
  return compiled ? sim::measure_activity(net, frames, seed, pi_one_prob)
                  : reference::measure_activity(net, frames, seed,
                                                pi_one_prob);
}

void expect_stats_identical(const sim::ActivityStats& a,
                            const sim::ActivityStats& b) {
  ASSERT_EQ(a.patterns, b.patterns);
  ASSERT_EQ(a.signal_prob.size(), b.signal_prob.size());
  for (std::size_t i = 0; i < a.signal_prob.size(); ++i) {
    EXPECT_EQ(a.signal_prob[i], b.signal_prob[i]) << "node " << i;
    EXPECT_EQ(a.transition_prob[i], b.transition_prob[i]) << "node " << i;
  }
}

// Every n-ary GateType over 100 fanins (wider than any 64-word buffer),
// both constants, MUXes and constant-fed gates.
Netlist wide_net() {
  Netlist net("wide");
  std::vector<NodeId> pis;
  for (int i = 0; i < 100; ++i)
    pis.push_back(net.add_input("i" + std::to_string(i)));
  NodeId c0 = net.add_const(false);
  NodeId c1 = net.add_const(true);
  for (GateType t : {GateType::And, GateType::Or, GateType::Nand,
                     GateType::Nor, GateType::Xor, GateType::Xnor}) {
    std::vector<NodeId> fi = pis;  // 100 fanins: exceeds the stack buffer
    net.add_output(net.add_gate(t, std::move(fi)),
                   std::string("w") + std::to_string(static_cast<int>(t)));
  }
  net.add_output(net.add_mux(pis[0], pis[1], c0), "m0");
  net.add_output(net.add_mux(pis[2], c1, pis[3]), "m1");
  net.add_output(net.add_buf(c0), "b0");
  net.add_output(net.add_not(c1), "n1");
  return net;
}

// A load-enabled register bank: one register loads on EN, one on !EN.
Netlist load_enabled_net() {
  Netlist net("le");
  NodeId d0 = net.add_input("d0");
  NodeId d1 = net.add_input("d1");
  NodeId en = net.add_input("en");
  NodeId q0 = net.add_dff(d0, /*init=*/true, "q0");
  NodeId q1 = net.add_dff(net.add_xor(d1, q0), false, "q1");
  net.set_dff_enable(q0, en);
  net.set_dff_enable(q1, net.add_not(en));
  net.add_output(net.add_and(q0, q1), "o");
  return net;
}

// ---- frame-level equality -------------------------------------------------

TEST(Compiled, EvalIntoMatchesLogicSimOnSuite) {
  for (auto& [name, net] : bench::default_suite()) {
    reference::LogicSim ref(net);
    sim::CompiledSim cs(net);
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> pi(net.inputs().size());
    sim::Frame fa, fb;
    for (int round = 0; round < 8; ++round) {
      for (auto& w : pi) w = rng();
      ref.eval_into(fa, pi);
      cs.eval_into(fb, pi);
      ASSERT_EQ(fa, fb) << name << " round " << round;
    }
  }
}

TEST(Compiled, ExecAllBlockedMatchesPerFrameEval) {
  // One tape replay over B lanes must equal B independent eval_into calls,
  // for every supported blocking factor.
  auto net = bench::alu(4);
  reference::LogicSim ref(net);
  sim::CompiledSim cs(net);
  for (std::size_t B : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}, std::size_t{16}}) {
    std::mt19937_64 rng(11);
    std::vector<std::uint64_t> val(net.size() * B, 0);
    std::vector<std::vector<std::uint64_t>> pis(
        B, std::vector<std::uint64_t>(net.inputs().size()));
    for (std::size_t j = 0; j < B; ++j)
      for (auto& w : pis[j]) w = rng();
    for (std::size_t j = 0; j < B; ++j)
      for (std::size_t i = 0; i < net.inputs().size(); ++i)
        val[static_cast<std::size_t>(net.inputs()[i]) * B + j] = pis[j][i];
    cs.exec_all(val.data(), B);
    sim::Frame f;
    for (std::size_t j = 0; j < B; ++j) {
      ref.eval_into(f, pis[j]);
      for (NodeId id = 0; id < net.size(); ++id)
        ASSERT_EQ(f[id], val[static_cast<std::size_t>(id) * B + j])
            << "B=" << B << " lane " << j << " node " << id;
    }
  }
}

TEST(Compiled, WideGatesConstantsAndMux) {
  // >64-fanin folds take the n-ary opcodes; constants and MUX have
  // dedicated opcodes.  All must agree with eval_gate exactly.
  const Netlist net = wide_net();
  reference::LogicSim ref(net);
  sim::CompiledSim cs(net);
  std::mt19937_64 rng(13);
  std::vector<std::uint64_t> pi(net.inputs().size());
  sim::Frame fa, fb;
  for (int round = 0; round < 16; ++round) {
    for (auto& w : pi) w = rng();
    ref.eval_into(fa, pi);
    cs.eval_into(fb, pi);
    ASSERT_EQ(fa, fb) << "round " << round;
  }

  auto a = measure_with(net, false, 64, 5);
  auto b = measure_with(net, true, 64, 5);
  expect_stats_identical(a, b);
}


TEST(Compiled, EvalIntoRejectsRegisterWordCountMismatch) {
  // A non-empty register span must carry one word per register, as the PI
  // span must per input; a short span used to be read past its end.
  auto net = bench::counter(4);
  const std::size_t nq = net.dffs().size();
  ASSERT_GE(nq, 2u);
  const std::vector<std::uint64_t> pi(net.inputs().size(), 0);
  const std::vector<std::uint64_t> short_q(nq - 1, 0), long_q(nq + 1, 0),
      exact_q(nq, 0);
  sim::Frame f;
  sim::CompiledSim cs(net);
  EXPECT_THROW(cs.eval_into(f, pi, short_q), std::invalid_argument);
  EXPECT_THROW(cs.eval_into(f, pi, long_q), std::invalid_argument);
  EXPECT_NO_THROW(cs.eval_into(f, pi, exact_q));
  EXPECT_NO_THROW(cs.eval_into(f, pi));
}

// ---- the shared free-source batch ------------------------------------------

// sim::free_source_batch against the interpreter, word for word: per word,
// every PI and then every register draws from one mt19937_64(seed), and
// the word is one interpreted frame.
void expect_batch_matches_interpreter(const std::string& name,
                                      const Netlist& net, std::size_t words,
                                      std::uint64_t seed) {
  const sim::CompiledSim cs(net);
  const core::AlignedWords val = sim::free_source_batch(cs, words, seed);
  ASSERT_EQ(val.size(), net.size() * words) << name;
  reference::LogicSim ref(net);
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> pi(net.inputs().size()), q(net.dffs().size());
  sim::Frame f;
  for (std::size_t w = 0; w < words; ++w) {
    for (auto& x : pi) x = rng();
    for (auto& x : q) x = rng();
    ref.eval_into(f, pi, q);
    for (NodeId id = 0; id < net.size(); ++id)
      ASSERT_EQ(val[static_cast<std::size_t>(id) * words + w], f[id])
          << name << " words=" << words << " word " << w << " node " << id;
  }
}

TEST(Compiled, FreeSourceBatchMatchesInterpreter) {
  auto nets = bench::default_suite();
  nets.push_back({"counter8", bench::counter(8)});
  nets.push_back({"le", load_enabled_net()});
  nets.push_back({"wide", wide_net()});
  for (const auto& [name, net] : nets)
    for (std::size_t words : {std::size_t{1}, std::size_t{8},
                              std::size_t{16}})
      expect_batch_matches_interpreter(name, net, words, 0xD0C0FFEEull);
}

// ---- activity-driver equality --------------------------------------------

TEST(Compiled, MeasureActivityIdenticalAcrossSuite) {
  for (auto& [name, net] : bench::default_suite()) {
    SCOPED_TRACE(name);
    expect_stats_identical(measure_with(net, false, 128, 42),
                           measure_with(net, true, 128, 42));
  }
}

TEST(Compiled, BiasedInputsIdenticalIncludingTailBlock) {
  // Non-uniform pi_one_prob takes the biased_word draw, which consumes 64
  // RNG outputs per word instead of one — the frame-major draw order of
  // the blocked driver must still reproduce the reference stream.  100
  // frames is not a multiple of kSimBlock, so the tail block is covered;
  // counter(8) covers the sequential (one-frame-per-step) path.
  static_assert(100 % sim::kSimBlock != 0);
  auto cases = bench::default_suite();
  cases.push_back({"counter8", bench::counter(8)});
  for (auto& [name, net] : cases) {
    SCOPED_TRACE(name);
    // Cycle through the special cases (constant 0/1 and the uniform
    // shortcut) and two genuine biases.
    static const double kProbs[] = {0.2, 0.5, 0.9, 0.0, 1.0, 0.35};
    std::vector<double> p(net.inputs().size());
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = kProbs[i % 6];
    expect_stats_identical(measure_with(net, false, 100, 7, p),
                           measure_with(net, true, 100, 7, p));
  }
}

TEST(Compiled, SequentialAndLoadEnabledDffsIdentical) {
  for (int n : {4, 8}) {
    auto net = bench::counter(n);
    expect_stats_identical(measure_with(net, false, 96, 3),
                           measure_with(net, true, 96, 3));
  }
  // Load-enabled register bank: EN recirculation must match exactly.
  const Netlist net = load_enabled_net();
  expect_stats_identical(measure_with(net, false, 64, 17),
                         measure_with(net, true, 64, 17));
}

// The captured trace, read back frame by frame, must equal the
// interpreter's frames word for word.
void expect_capture_identical(const Netlist& net, std::size_t frames,
                              std::uint64_t seed, const std::string& what) {
  reference::FrameTrace want;
  reference::measure_activity(net, frames, seed, {}, &want);
  sim::ActivityTrace t;
  sim::measure_activity(net, frames, seed, {}, &t);
  const reference::FrameTrace got = reference::frames_of(t, net.size());
  ASSERT_EQ(got.frames.size(), want.frames.size()) << what;
  for (std::size_t fr = 0; fr < want.frames.size(); ++fr)
    ASSERT_EQ(got.frames[fr], want.frames[fr]) << what << " frame " << fr;
  EXPECT_EQ(got.shard_start, want.shard_start) << what;
  EXPECT_EQ(got.ones, want.ones) << what;
  EXPECT_EQ(got.toggles, want.toggles) << what;
  EXPECT_EQ(got.patterns, want.patterns) << what;
  EXPECT_EQ(got.seam_patterns, want.seam_patterns) << what;
}

TEST(Compiled, TraceCaptureIdentical) {
  // The captured value blocks feed incremental splicing — every live frame
  // must be word-for-word identical, dead slots included: one full block,
  // a tail block, two shards whose seam falls inside a block, and a
  // sequential (frame-major) stream.
  for (std::size_t frames : {128u, 15u, 156u})
    expect_capture_identical(bench::array_multiplier(4), frames, 9,
                             "mult4/" + std::to_string(frames));
  expect_capture_identical(load_enabled_net(), 40, 3, "load-enabled");
}

// A random DAG whose first outputs were rewired to an input and swept, so
// it carries tombstones.
Netlist net_with_dead_nodes() {
  Netlist net = bench::random_dag(12, 200, 5);
  for (std::size_t k = 0; k < 4; ++k) {
    NodeId o = net.outputs()[k];
    for (std::size_t i = 0; i < net.node(o).fanins.size(); ++i)
      net.replace_fanin(o, i, net.inputs()[k]);
  }
  net.sweep();
  return net;
}

TEST(Compiled, ThreadScratchReuseMatchesFreshRuns) {
  // measure_activity keeps its value block per thread across runs.  A run
  // on A, then on a larger B (whose live slots cover A's dead ones), then
  // on A again must equal the first run: the same report, the same
  // captured frames, dead slots still reading 0.
  const Netlist a = net_with_dead_nodes();
  ASSERT_LT(a.num_live(), a.size());
  const Netlist b = bench::array_multiplier(8);
  ASSERT_GT(b.size(), a.size());
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 1000;  // 15 frames: one tail block
  core::ScopedThreads one(1);  // every run on this thread's block
  sim::ActivityTrace t1, t3;
  const power::Analysis a1 = power::analyze(a, ao);
  sim::measure_activity(a, 15, ao.seed, {}, &t1);
  power::analyze(b, ao);
  sim::measure_activity(b, 15, ao.seed);
  const power::Analysis a3 = power::analyze(a, ao);
  sim::measure_activity(a, 15, ao.seed, {}, &t3);
  EXPECT_EQ(a1.toggles_per_cycle, a3.toggles_per_cycle);
  EXPECT_EQ(a1.report.node_power_w, a3.report.node_power_w);
  EXPECT_EQ(a1.report.breakdown.total_w(), a3.report.breakdown.total_w());
  const auto f1 = reference::frames_of(t1, a.size());
  const auto f3 = reference::frames_of(t3, a.size());
  EXPECT_EQ(f1.frames, f3.frames);
  EXPECT_EQ(f1.ones, f3.ones);
  EXPECT_EQ(f1.toggles, f3.toggles);
  expect_capture_identical(a, 15, ao.seed, "after B");
  expect_stats_identical(reference::measure_activity(a, 15, ao.seed),
                         sim::measure_activity(a, 15, ao.seed));
}

TEST(Compiled, ThreadCountInvariance) {
  // Bit-identical at 1/2/4/8 threads with the compiled engine — the PR 2
  // determinism contract survives the chunked dispatch grain.
  auto net = bench::random_dag(24, 600, 77);
  std::vector<sim::ActivityStats> runs;
  for (unsigned t : {1u, 2u, 4u, 8u}) {
    core::ScopedThreads st(t);
    runs.push_back(sim::measure_activity(net, 512, 23));
  }
  for (std::size_t i = 1; i < runs.size(); ++i)
    expect_stats_identical(runs[0], runs[i]);
  // And all of them equal the interpreter reference.
  expect_stats_identical(reference::measure_activity(net, 512, 23), runs[0]);
}

TEST(Compiled, TimedActivityThreadInvariance) {
  // The chunked waveform grain must keep timed counts thread-invariant.
  auto net = bench::carry_select_adder(8, 2);
  std::vector<sim::TimedStats> runs;
  for (unsigned t : {1u, 2u, 4u}) {
    core::ScopedThreads st(t);
    runs.push_back(sim::measure_timed_activity(net, 4096, 5));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].vectors, runs[i].vectors);
    EXPECT_EQ(runs[0].total_toggles, runs[i].total_toggles);
    EXPECT_EQ(runs[0].functional_toggles, runs[i].functional_toggles);
  }
}

// ---- tape patching through mutation epochs --------------------------------

// Journaled local rewrite: double-inverter splice ahead of a PO driver.
Netlist::TouchedNodes splice_po_driver(Netlist& net) {
  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  auto touched = net.touched_nodes();
  net.commit_undo();
  return touched;
}

TEST(Compiled, UpdatePatchesTapeAfterMutation) {
  auto net = bench::alu(4);
  sim::CompiledSim cs(net);
  EXPECT_TRUE(cs.compact());
  auto touched = splice_po_driver(net);
  cs.update(touched);
  EXPECT_FALSE(cs.compact());
  // Patched-tape full evaluation must equal a freshly compiled netlist's.
  sim::CompiledSim fresh(net);
  std::mt19937_64 rng(3);
  std::vector<std::uint64_t> pi(net.inputs().size());
  sim::Frame fa, fb;
  for (int round = 0; round < 8; ++round) {
    for (auto& w : pi) w = rng();
    cs.eval_into(fa, pi);
    fresh.eval_into(fb, pi);
    ASSERT_EQ(fa, fb) << "round " << round;
  }
  EXPECT_THROW(cs.exec_all(fa.data(), 1), std::logic_error);
  cs.rebuild();
  EXPECT_TRUE(cs.compact());
}

TEST(Compiled, ConeSliceAfterMutationMatchesFullEval) {
  // Patch the tape, then re-evaluate only the mutation's fanout cone inside
  // a stale frame: the splice must reproduce a full fresh evaluation.
  auto net = bench::array_multiplier(4);
  sim::CompiledSim cs(net);
  std::mt19937_64 rng(19);
  std::vector<std::uint64_t> pi(net.inputs().size());
  for (auto& w : pi) w = rng();
  sim::Frame f;
  cs.eval_into(f, pi);

  auto touched = splice_po_driver(net);
  cs.update(touched);
  f.resize(net.size(), 0);  // appended nodes start as zero slots
  auto mask = net.fanout_cone_of(touched.value_roots, true);
  auto sched = cs.cone_schedule(mask);
  EXPECT_GT(sched.gates.size(), 0u);
  cs.exec_gates(f.data(), 1, sched.gates);

  reference::LogicSim ref(net);
  sim::Frame full;
  ref.eval_into(full, pi);
  ASSERT_EQ(f, full);
}

TEST(Compiled, RevertToRestoresPreMutationTape) {
  auto net = bench::comparator_gt(8);
  sim::CompiledSim cs(net);
  const std::size_t old_size = net.size();
  std::mt19937_64 rng(29);
  std::vector<std::uint64_t> pi(net.inputs().size());
  for (auto& w : pi) w = rng();
  sim::Frame before;
  cs.eval_into(before, pi);

  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  auto touched = net.touched_nodes();
  net.rollback_undo();
  cs.revert_to(old_size, touched.value_roots);

  sim::Frame after;
  cs.eval_into(after, pi);
  ASSERT_EQ(before, after);
}

TEST(Compiled, GarbageBoundTriggersRebuild) {
  auto net = bench::c17();
  sim::CompiledSim cs(net);
  const std::size_t base = cs.tape_words();
  for (int i = 0; i < 2000; ++i) {
    auto touched = splice_po_driver(net);
    cs.update(touched);
  }
  // The bound keeps total words within 2x the (growing) compact program.
  EXPECT_LE(cs.tape_words(), 2 * std::max<std::size_t>(cs.records() * 8, 256));
  EXPECT_GT(cs.tape_words(), base);
  sim::CompiledSim fresh(net);
  std::mt19937_64 rng(31);
  std::vector<std::uint64_t> pi(net.inputs().size());
  sim::Frame fa, fb;
  for (int round = 0; round < 4; ++round) {
    for (auto& w : pi) w = rng();
    cs.eval_into(fa, pi);
    fresh.eval_into(fb, pi);
    ASSERT_EQ(fa, fb);
  }
}

// ---- incremental-analyzer integration ------------------------------------

TEST(Compiled, IncrementalRevertRestoresTapeAndAnalysis) {
  auto net = bench::alu(4);
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 1024;
  power::IncrementalAnalyzer inc(net, ao);
  auto before = inc.analysis();

  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  auto touched = net.touched_nodes();
  inc.reanalyze(touched);
  net.rollback_undo();
  inc.revert_last();

  EXPECT_EQ(before.toggles_per_cycle, inc.analysis().toggles_per_cycle);
  EXPECT_EQ(before.report.breakdown.switching_w,
            inc.analysis().report.breakdown.switching_w);

  // The reverted tape must keep estimating correctly for the next epoch.
  auto touched2 = splice_po_driver(net);
  inc.reanalyze(touched2);
  auto full = power::analyze(net, ao);
  EXPECT_EQ(inc.analysis().toggles_per_cycle, full.toggles_per_cycle);
}

// ---- options plumbing -----------------------------------------------------

TEST(Compiled, NormalizeBlockAndScopedOptions) {
  EXPECT_EQ(sim::normalize_block(0), 1u);
  EXPECT_EQ(sim::normalize_block(1), 1u);
  EXPECT_EQ(sim::normalize_block(3), 2u);
  EXPECT_EQ(sim::normalize_block(5), 4u);
  EXPECT_EQ(sim::normalize_block(8), 8u);
  EXPECT_EQ(sim::normalize_block(15), 8u);
  EXPECT_EQ(sim::normalize_block(64), 16u);

  const sim::SimOptions saved = sim::sim_options();
  {
    sim::ScopedSimOptions g({.width = sim::SimdWidth::Scalar});
    EXPECT_EQ(sim::sim_options().width, sim::SimdWidth::Scalar);
  }
  EXPECT_EQ(sim::sim_options().width, saved.width);
}

TEST(Compiled, ExecAllRejectsBadBlockAndPatchedTape) {
  auto net = bench::c17();
  sim::CompiledSim cs(net);
  std::vector<std::uint64_t> val(net.size() * 3, 0);
  EXPECT_THROW(cs.exec_all(val.data(), 3), std::invalid_argument);
  EXPECT_THROW(cs.exec_gates(val.data(), 5, {}), std::invalid_argument);
}

}  // namespace
