// test_speculate.cpp — speculative parallel candidate scoring
// (logicopt/speculate.hpp) and its engine integrations.
//
// The contracts under test:
//  * bit-identity: the kept-rewrite sequence, final netlist and exit power
//    of every speculation-routed engine (datapath rewrite, window
//    resynthesis, factoring comparison) are identical at worker counts
//    {1, 2, 4, 8};
//  * the oracle fork (IncrementalAnalyzer::clone_for) scores a cloned
//    netlist exactly like a fresh analyzer, and outputs_digest() is a
//    faithful PO-stream witness;
//  * chaos hooks (force_throw_on_candidate, force_unsound_keeps) are
//    consumed at deterministic commit points, so fault injection behaves
//    identically under concurrency and a mid-speculation fault unwinds to
//    the caller's epoch exactly like the sequential engine;
//  * speculation conflicts and serial re-scores are surfaced in the result
//    (and logicopt.spec.* metrics) — never silent.

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <vector>

#include "core/diag.hpp"
#include "core/flows.hpp"
#include "core/parallel.hpp"
#include "logicopt/candidate.hpp"
#include "logicopt/resynth.hpp"
#include "logicopt/rewrite/engine.hpp"
#include "logicopt/rewrite/rules.hpp"
#include "logicopt/speculate.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "power/incremental.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;
namespace speculate = logicopt::speculate;
using logicopt::rewrite::RewriteOptions;
using logicopt::rewrite::RewriteResult;
using logicopt::rewrite::rewrite_datapath;

// ---- knob plumbing --------------------------------------------------------

TEST(SpeculateKnob, ResolveAndScopedOverride) {
  int def = speculate::default_workers();
  EXPECT_GE(def, 1);
  EXPECT_EQ(speculate::resolve_workers(0), def);
  EXPECT_EQ(speculate::resolve_workers(3), 3);
  EXPECT_EQ(speculate::resolve_workers(-5), def);
  EXPECT_EQ(speculate::resolve_workers(100000), 256);  // clamped
  {
    speculate::ScopedWorkers guard(6);
    EXPECT_EQ(speculate::default_workers(), 6);
    EXPECT_EQ(speculate::resolve_workers(0), 6);
    EXPECT_EQ(speculate::resolve_workers(2), 2);  // explicit beats default
    {
      speculate::ScopedWorkers inner(2);
      EXPECT_EQ(speculate::default_workers(), 2);
    }
    EXPECT_EQ(speculate::default_workers(), 6);
  }
  EXPECT_EQ(speculate::default_workers(), def);
}

// ---- delta scoring and id-set helpers -------------------------------------

TEST(SpeculateUnit, ScoreDeltaSumsFootprintAndClockTerm) {
  power::Analysis before, after;
  before.report.node_power_w = {1.0, 2.0, 3.0, 4.0};
  after.report.node_power_w = {1.0, 2.5, 3.0, 3.25};
  before.clock_power_w = after.clock_power_w = 0.75;
  std::vector<NodeId> fp{1, 3};
  auto d = speculate::score_delta(before, after, fp);
  EXPECT_FALSE(d.clock_moved);
  EXPECT_DOUBLE_EQ(d.delta_w, (2.5 - 2.0) + (3.25 - 4.0));
  // Footprint entries beyond either vector score as zero (created/removed
  // nodes).
  std::vector<NodeId> fp2{1, 9};
  auto d2 = speculate::score_delta(before, after, fp2);
  EXPECT_DOUBLE_EQ(d2.delta_w, 0.5);
  // A moved clock term is flagged and included.
  after.clock_power_w = 0.5;
  auto d3 = speculate::score_delta(before, after, fp);
  EXPECT_TRUE(d3.clock_moved);
  EXPECT_DOUBLE_EQ(d3.delta_w, (2.5 - 2.0) + (3.25 - 4.0) + (0.5 - 0.75));
}

TEST(SpeculateUnit, ReadClosureCoversFaninsSharingScansAndFanouts) {
  Netlist net("closure");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId c = net.add_input("c");
  NodeId g1 = net.add_and(a, b);
  NodeId g2 = net.add_or(g1, c);
  NodeId g3 = net.add_xor(g2, a);
  net.add_output(g3, "f");
  const NodeId seeds[1] = {g2};
  auto closure = speculate::read_closure(net, seeds, 3);
  auto has = [&](NodeId id) {
    return std::find(closure.begin(), closure.end(), id) != closure.end();
  };
  EXPECT_TRUE(has(g2));
  EXPECT_TRUE(has(g1));  // fanin
  EXPECT_TRUE(has(a));   // transitive fanin
  EXPECT_TRUE(has(g3));  // fanout of the seed (sharing-scan context)
  // Sorted unique.
  for (std::size_t i = 1; i < closure.size(); ++i)
    EXPECT_LT(closure[i - 1], closure[i]);
}

TEST(SpeculateUnit, ConflictSetIgnoresIdsBeyondSnapshot) {
  speculate::ConflictSet set(4);
  EXPECT_TRUE(set.empty());
  std::vector<NodeId> keep{2, 9};  // 9 is past the snapshot: ignored
  set.add(keep);
  std::vector<NodeId> probe_hit{0, 2};
  std::vector<NodeId> probe_miss{0, 3};
  std::vector<NodeId> probe_new{9};
  EXPECT_TRUE(set.hits(probe_hit));
  EXPECT_FALSE(set.hits(probe_miss));
  EXPECT_FALSE(set.hits(probe_new));
}

TEST(SpeculateUnit, ConflictSetWithFootprintCatchesActivityReconvergence) {
  // A keep at g1 dirties the toggle counters of its whole downstream cone.
  // A later candidate at g3 shares no structure with the keep, but its
  // delta reads counters the keep changed — so the conflict set must carry
  // the keep's dirty activity footprint, not just its touched ids, or the
  // candidate transplants a pre-keep delta (the E26 identity regression).
  Netlist net("reconv");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId g1 = net.add_and(a, b);
  NodeId g2 = net.add_or(g1, b);
  NodeId g3 = net.add_xor(g2, a);
  net.add_output(g3, "f");
  Netlist::TouchedNodes keep;
  keep.ids = {g1};
  keep.value_roots = {g1};
  std::vector<NodeId> fp = speculate::dirty_footprint(net, keep);
  speculate::ConflictSet ids_only(net.size());
  ids_only.add(keep.ids);
  speculate::ConflictSet with_fp(net.size());
  with_fp.add(keep.ids);
  with_fp.add(fp);
  std::vector<NodeId> later_fp{g3};  // downstream candidate's footprint
  EXPECT_FALSE(ids_only.hits(later_fp));  // structural-only set misses it
  EXPECT_TRUE(with_fp.hits(later_fp));
}

TEST(SpeculateUnit, SameTouchedComparesCanonicalSetsBelowSnapshot) {
  Netlist::TouchedNodes live;
  live.ids = {5, 3, 3, 12};  // 12 is past the snapshot: ignored
  live.value_roots = {3, 12};
  std::vector<NodeId> snap_ids{3, 5};
  std::vector<NodeId> snap_roots{3};
  EXPECT_TRUE(speculate::same_touched(snap_ids, snap_roots, live, 10));
  // A differing pre-snapshot touched id is a mismatch ...
  live.ids.push_back(7);
  EXPECT_FALSE(speculate::same_touched(snap_ids, snap_roots, live, 10));
  // ... and so is a differing value-root set with identical ids.
  live.ids = {3, 5};
  live.value_roots = {5};
  EXPECT_FALSE(speculate::same_touched(snap_ids, snap_roots, live, 10));
}

TEST(SpeculateUnit, RethrowIfCancelledPropagatesOnlyCancellation) {
  speculate::rethrow_if_cancelled(nullptr);  // null: no-op
  std::exception_ptr plain =
      std::make_exception_ptr(std::runtime_error("worker died"));
  EXPECT_NO_THROW(speculate::rethrow_if_cancelled(plain));
  std::exception_ptr cancel =
      std::make_exception_ptr(core::CancelledError());
  EXPECT_THROW(speculate::rethrow_if_cancelled(cancel),
               core::CancelledError);
}

// ---- oracle fork and PO-stream digest -------------------------------------

static power::AnalysisOptions zd_options(std::size_t vectors = 1024,
                                         std::uint64_t seed = 7) {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = vectors;
  ao.seed = seed;
  return ao;
}

TEST(SpeculateOracle, CloneForScoresACloneLikeAFreshAnalyzer) {
  Netlist net = bench::ripple_carry_adder(4);
  power::IncrementalAnalyzer oracle(net, zd_options());

  Netlist clone = net.clone();
  power::IncrementalAnalyzer fork = oracle.clone_for(clone);
  EXPECT_EQ(fork.analysis().report.breakdown.total_w(),
            oracle.analysis().report.breakdown.total_w());

  // Mutate the clone and reanalyze through the fork: the result must be
  // bit-identical to a fresh full analysis of the mutated clone.
  auto cands = logicopt::rewrite::match_rules(clone);
  ASSERT_FALSE(cands.empty());
  clone.begin_undo();
  bool applied = false;
  std::size_t used = 0;
  for (; used < cands.size(); ++used) {
    if ((applied = logicopt::rewrite::apply_rule(clone, cands[used]))) break;
  }
  ASSERT_TRUE(applied);
  auto touched = clone.touched_nodes();
  fork.reanalyze(touched);
  clone.commit_undo();
  auto full = power::analyze(clone, zd_options());
  EXPECT_EQ(fork.analysis().report.breakdown.total_w(),
            full.report.breakdown.total_w());
  ASSERT_EQ(fork.analysis().report.node_power_w.size(),
            full.report.node_power_w.size());
  for (std::size_t i = 0; i < full.report.node_power_w.size(); ++i)
    EXPECT_EQ(fork.analysis().report.node_power_w[i],
              full.report.node_power_w[i])
        << "node " << i;
  // The source oracle never noticed.
  EXPECT_EQ(oracle.analysis().report.breakdown.total_w(),
            power::analyze(net, zd_options()).report.breakdown.total_w());
}

// clone_for copies the ZeroDelay frame cache; a Timed oracle, which would
// have none to copy, cannot be built in the first place.
TEST(SpeculateOracle, CloneForRequiresAZeroDelayBaseline) {
  Netlist net = bench::ripple_carry_adder(4);
  power::AnalysisOptions ao = zd_options(256);
  ao.mode = power::ActivityMode::Timed;
  EXPECT_THROW(power::IncrementalAnalyzer(net, ao), diag::CheckError);
}

TEST(SpeculateOracle, OutputsDigestWitnessesPoStreams) {
  Netlist net("digest");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId g = net.add_and(a, b);
  net.add_output(g, "f");
  power::IncrementalAnalyzer oracle(net, zd_options());
  std::uint64_t d0 = oracle.outputs_digest();

  // An inexact edit (And -> Or) changes the PO stream: the digest moves,
  // and reverting restores it.
  net.begin_undo();
  NodeId g2 = net.add_or(a, b);
  net.substitute(g, g2);
  net.sweep();
  auto touched = net.touched_nodes();
  oracle.reanalyze(touched);
  EXPECT_NE(oracle.outputs_digest(), d0);
  net.rollback_undo();
  oracle.revert_last();
  EXPECT_EQ(oracle.outputs_digest(), d0);

  // previous_analysis() is only defined while an update is pending.
  EXPECT_THROW((void)oracle.previous_analysis(), std::logic_error);
}

// ---- engine identity across worker counts ---------------------------------

static RewriteResult run_rewrite(Netlist& net, int workers) {
  RewriteOptions ro;
  ro.workers = workers;
  return rewrite_datapath(net, ro);
}

TEST(SpeculateRewrite, NetlistAndKeptSequenceIdenticalAcrossWorkerCounts) {
  std::vector<bench::NamedNetlist> fam;
  fam.push_back({"mult4", bench::array_multiplier(4)});
  fam.push_back({"alu4", bench::alu(4)});
  fam.push_back({"dct8", bench::dct_butterfly(8)});
  for (auto& [name, input] : fam) {
    Netlist base = input.clone();
    RewriteResult r1 = run_rewrite(base, 1);
    EXPECT_EQ(r1.workers_used, 1) << name;
    EXPECT_EQ(r1.spec_batches, 0u) << name;
    for (int w : {2, 4, 8}) {
      Netlist net = input.clone();
      RewriteResult rw = run_rewrite(net, w);
      EXPECT_EQ(structural_hash(net), structural_hash(base))
          << name << " workers=" << w;
      EXPECT_EQ(rw.kept, r1.kept) << name << " workers=" << w;
      EXPECT_EQ(rw.reverted, r1.reverted) << name << " workers=" << w;
      EXPECT_EQ(rw.stale, r1.stale) << name << " workers=" << w;
      EXPECT_EQ(rw.unsound, r1.unsound) << name << " workers=" << w;
      EXPECT_EQ(rw.candidates_seen, r1.candidates_seen)
          << name << " workers=" << w;
      EXPECT_EQ(rw.candidates_scored, r1.candidates_scored)
          << name << " workers=" << w;
      // Bitwise, not approximately: the delta rule transplants exactly.
      EXPECT_EQ(rw.power_after_w, r1.power_after_w)
          << name << " workers=" << w;
      EXPECT_EQ(rw.workers_used, w) << name;
      if (rw.kept + rw.reverted > 0) {
        EXPECT_GT(rw.spec_batches, 0u) << name << " workers=" << w;
      }
      // Conflict accounting is never silent and never loses a candidate.
      EXPECT_EQ(rw.candidates_scored, rw.kept + rw.reverted)
          << name << " workers=" << w;
      EXPECT_GE(rw.spec_conflicts, rw.spec_rescored)
          << name << " workers=" << w;
    }
  }
}

TEST(SpeculateRewrite, VerifyFullModeStaysIdentical) {
  Netlist input = bench::dct_butterfly(6);
  Netlist a = input.clone();
  Netlist b = input.clone();
  RewriteOptions ro;
  ro.verify_frames = 256;
  ro.workers = 1;
  RewriteResult ra = rewrite_datapath(a, ro);
  ro.workers = 4;
  RewriteResult rb = rewrite_datapath(b, ro);
  EXPECT_EQ(structural_hash(a), structural_hash(b));
  EXPECT_EQ(ra.kept, rb.kept);
  EXPECT_EQ(ra.unsound, rb.unsound);
  EXPECT_EQ(ra.power_after_w, rb.power_after_w);
}

TEST(SpeculateRewrite, ChaosUnsoundHookFiresIdenticallyUnderConcurrency) {
  Netlist input = bench::dct_butterfly(6);
  Netlist a = input.clone();
  Netlist b = input.clone();
  logicopt::candidate::detail::force_unsound_keeps(2);
  RewriteResult ra = run_rewrite(a, 1);
  logicopt::candidate::detail::force_unsound_keeps(2);
  RewriteResult rb = run_rewrite(b, 4);
  logicopt::candidate::detail::force_unsound_keeps(0);
  // The hook is consumed at the commit point, in queue order — the same
  // candidate eats it at any worker count.
  EXPECT_EQ(ra.unsound, 1u);
  EXPECT_EQ(rb.unsound, 1u);
  EXPECT_EQ(structural_hash(a), structural_hash(b));
  EXPECT_EQ(ra.kept, rb.kept);
  EXPECT_EQ(ra.reverted, rb.reverted);
}

TEST(SpeculateRewrite, MidSpeculationFaultUnwindsToTheCallersEpoch) {
  Netlist net = bench::dct_butterfly(6);
  std::uint64_t h0 = structural_hash(net);
  net.begin_undo();  // the caller's (stage) epoch
  logicopt::candidate::detail::force_throw_on_candidate(3);
  RewriteOptions ro;
  ro.workers = 4;
  EXPECT_THROW(rewrite_datapath(net, ro), std::runtime_error);
  logicopt::candidate::detail::force_throw_on_candidate(0);
  // The engine died right after the 3rd candidate's epoch opened: the open
  // candidate epoch plus the caller's stage epoch are still on the stack,
  // exactly like the sequential engine's failure mode.
  EXPECT_EQ(net.undo_depth(), 2u);
  net.rollback_undo();
  net.rollback_undo();
  EXPECT_EQ(net.undo_depth(), 0u);
  EXPECT_EQ(structural_hash(net), h0);
  EXPECT_EQ(net.check(), "");
}

// ---- resynthesis identity -------------------------------------------------

TEST(SpeculateResynth, ResultsIdenticalAcrossWorkerCounts) {
  std::vector<bench::NamedNetlist> fam;
  fam.push_back({"alu4", bench::alu(4)});
  fam.push_back({"dct8", bench::dct_butterfly(8)});
  for (auto& [name, input] : fam) {
    auto st = sim::measure_activity(input, 64, 5);
    logicopt::ResynthOptions o1;
    o1.workers = 1;
    Netlist base = input.clone();
    auto r1 = logicopt::resynthesize_windows(base, st.transition_prob, o1);
    EXPECT_EQ(r1.spec_batches, 0u) << name;
    for (int w : {2, 4, 8}) {
      Netlist net = input.clone();
      logicopt::ResynthOptions ow;
      ow.workers = w;
      auto rw = logicopt::resynthesize_windows(net, st.transition_prob, ow);
      EXPECT_EQ(structural_hash(net), structural_hash(base))
          << name << " workers=" << w;
      EXPECT_EQ(rw.nodes_rewritten, r1.nodes_rewritten)
          << name << " workers=" << w;
      EXPECT_EQ(rw.windows_examined, r1.windows_examined)
          << name << " workers=" << w;
      EXPECT_EQ(rw.windows_capped, r1.windows_capped)
          << name << " workers=" << w;
      EXPECT_EQ(rw.rescored, r1.rescored) << name << " workers=" << w;
      EXPECT_EQ(rw.gates_after, r1.gates_after) << name << " workers=" << w;
      EXPECT_EQ(rw.workers_used, w) << name;
      if (rw.windows_examined > 0) {
        EXPECT_GT(rw.spec_batches, 0u) << name << " workers=" << w;
      }
      EXPECT_GE(rw.spec_conflicts, rw.spec_rescored)
          << name << " workers=" << w;
      // Still functionally the same circuit.
      EXPECT_TRUE(sim::equivalent_random(input, net, 128, 77))
          << name << " workers=" << w;
    }
  }
}

// ---- flow / pass plumbing -------------------------------------------------

TEST(SpeculateFlow, OptWorkersThreadsThroughTheCombinationalFlow) {
  Netlist input = bench::dct_butterfly(8);
  core::FlowOptions o1;
  o1.estimate_mode = power::ActivityMode::ZeroDelay;
  o1.opt_workers = 1;
  auto r1 = core::optimize_combinational(input, o1);
  core::FlowOptions o4 = o1;
  o4.opt_workers = 4;
  auto r4 = core::optimize_combinational(input, o4);
  EXPECT_EQ(structural_hash(r1.circuit), structural_hash(r4.circuit));
  ASSERT_EQ(r1.stages.size(), r4.stages.size());
  for (std::size_t i = 0; i < r1.stages.size(); ++i)
    EXPECT_EQ(r1.stages[i].status, r4.stages[i].status) << i;
}

}  // namespace
