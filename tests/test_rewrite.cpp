// test_rewrite.cpp — datapath rewrite engine: rule soundness, the power
// oracle protocol, nested undo epochs, and flow/pass rollback accounting.
//
// The contracts under test:
//  * every rule in logicopt/rewrite/rules.hpp is an exact identity — the
//    fuzzer applies every rule at every match site of the generated
//    adder/multiplier/ALU family and random DAGs and checks the
//    interpreter's functional trace (sim::functional_trace) bit for bit;
//  * apply_rule() on a stale candidate mutates nothing, and a variant past
//    a rule's last is stale;
//  * match_rules() and apply_rule() agree with the two-copy matcher they
//    replaced (tests/rules_reference.hpp) candidate for candidate, on the
//    suite, its strashed forms, random DAGs and the datapath family, also
//    after every kept rewrite of an engine run;
//  * the engine's scoring is live: a kept rewrite re-scores later
//    candidates (A flipping B's profitability is decided correctly);
//  * Netlist undo epochs nest (candidate epochs inside a stage epoch);
//  * StageReport/PassRecord rollback accounting matches the journal's own
//    rollback counter, including when a transform dies with an inner epoch
//    still open (fault injection via the engine's chaos hooks).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/pass.hpp"
#include "logicopt/candidate.hpp"
#include "logicopt/resynth.hpp"
#include "logicopt/rewrite/engine.hpp"
#include "netlist/benchmarks.hpp"
#include "power/incremental.hpp"
#include "rules_reference.hpp"
#include "sim/compiled.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;
using logicopt::rewrite::apply_rule;
using logicopt::rewrite::Candidate;
using logicopt::rewrite::match_rules;
using logicopt::rewrite::RewriteOptions;
using logicopt::rewrite::rewrite_datapath;
using logicopt::rewrite::RuleKind;

sim::SimTrace interp_trace(const Netlist& net, std::size_t frames = 64,
                           std::uint64_t seed = 33) {
  return sim::functional_trace(net, frames, seed);
}

// ---- rule soundness fuzzer ------------------------------------------------

std::vector<bench::NamedNetlist> rewrite_family() {
  std::vector<bench::NamedNetlist> fam;
  fam.push_back({"rca4", bench::ripple_carry_adder(4)});
  fam.push_back({"csel8", bench::carry_select_adder(8, 2)});
  fam.push_back({"mult3", bench::array_multiplier(3)});
  fam.push_back({"alu3", bench::alu(3)});
  fam.push_back({"dct4", bench::dct_butterfly(4)});
  fam.push_back({"addsub4", bench::alu_addsub(4)});
  for (std::uint32_t seed : {11u, 12u, 13u})
    fam.push_back({"dag" + std::to_string(seed),
                   bench::random_dag(6, 60, seed)});
  return fam;
}

TEST(RewriteRules, EveryMatchSiteIsExact) {
  for (const auto& [name, net] : rewrite_family()) {
    sim::SimTrace ref = interp_trace(net);
    auto candidates = match_rules(net);
    EXPECT_FALSE(candidates.empty()) << name;
    std::size_t applied = 0;
    for (const Candidate& c : candidates) {
      Netlist work = net.clone();
      if (!logicopt::rewrite::apply_rule(work, c)) continue;
      ++applied;
      ASSERT_EQ(work.check(), "")
          << name << " rule " << logicopt::rewrite::rule_name(c.rule)
          << " target " << c.target << " variant " << int(c.variant);
      EXPECT_EQ(interp_trace(work), ref)
          << name << " rule " << logicopt::rewrite::rule_name(c.rule)
          << " target " << c.target << " variant " << int(c.variant);
    }
    EXPECT_GT(applied, 0u) << name;
  }
}

TEST(RewriteRules, ChainedApplicationStaysExactAndStaleMatchesDontMutate) {
  for (const auto& [name, net] : rewrite_family()) {
    sim::SimTrace ref = interp_trace(net);
    Netlist work = net.clone();
    // Apply the whole (pre-enumerated) queue in order: earlier keeps
    // invalidate later matches, so this drives apply_rule's re-validation.
    auto candidates = match_rules(work);
    for (const Candidate& c : candidates) {
      std::uint64_t before = structural_hash(work);
      if (!logicopt::rewrite::apply_rule(work, c)) {
        EXPECT_EQ(structural_hash(work), before)
            << name << ": stale candidate mutated the netlist";
      }
    }
    ASSERT_EQ(work.check(), "") << name;
    EXPECT_EQ(interp_trace(work), ref) << name;
  }
}

// ---- one match per (rule, variant) ----------------------------------------

std::string describe(const Candidate& c) {
  return std::string(logicopt::rewrite::rule_name(c.rule)) + " target " +
         std::to_string(c.target) + " variant " + std::to_string(c.variant) +
         " aux " + std::to_string(c.aux);
}

// The same candidates as the reference matcher, in the same order, and
// every one applies on clones through both implementations to the same
// verdict and the same structure.
void expect_matches_reference(const Netlist& net, const std::string& what) {
  for (bool fold_only : {true, false}) {
    const auto got = match_rules(net, fold_only);
    const auto want = reference::match_rules(net, fold_only);
    ASSERT_EQ(got.size(), want.size()) << what << " fold_only " << fold_only;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(describe(got[i]), describe(want[i]))
          << what << " fold_only " << fold_only << " candidate " << i;
    }
    if (fold_only) continue;
    for (const Candidate& c : got) {
      Netlist mine = net.clone(), ref = net.clone();
      const bool applied = apply_rule(mine, c);
      ASSERT_EQ(applied, reference::apply_rule(ref, c))
          << what << ": " << describe(c);
      ASSERT_EQ(structural_hash(mine), structural_hash(ref))
          << what << ": " << describe(c);
    }
  }
}

// rewrite_datapath's sequential loop — the fold prephase to a fixpoint,
// then full-rule rounds — calling `on_keep` after every kept rewrite.
void serial_rewrite(Netlist& net,
                    const std::function<void(const Netlist&)>& on_keep) {
  const RewriteOptions ro;
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = ro.sim_vectors;
  ao.seed = ro.seed;
  power::IncrementalAnalyzer oracle(net, ao);
  logicopt::candidate::Kernel kernel(net, oracle,
                                     {.engine = "rewrite",
                                      .min_gain_w = ro.min_gain_w,
                                      .verify_frames = ro.verify_frames});
  auto run_queue = [&](const std::vector<Candidate>& queue) {
    EXPECT_LE(queue.size(), ro.max_candidates);
    std::size_t kept = 0;
    for (const Candidate& c : queue) {
      auto p = kernel.apply([&] { return apply_rule(net, c); });
      if (!p.applied) continue;
      kernel.score(p);
      if (!kernel.settle(p)) continue;
      ++kept;
      on_keep(net);
    }
    return kept;
  };
  for (int pass = 0; pass < 256; ++pass) {
    auto queue = match_rules(net, /*fold_only=*/true);
    if (queue.empty() || run_queue(queue) == 0) break;
  }
  for (int round = 0; round < 4; ++round)
    if (run_queue(match_rules(net)) == 0) break;
}

TEST(RewriteRules, MatchesReferenceMatcher) {
  std::vector<bench::NamedNetlist> nets;
  for (auto& [name, net] : bench::default_suite()) {
    nets.push_back({name + "/strash", strash(net)});
    nets.push_back({name, std::move(net)});
  }
  for (std::uint32_t seed = 1; seed <= 6; ++seed)
    nets.push_back({"dag32x150/" + std::to_string(seed),
                    bench::random_dag(32, 150, seed)});
  nets.push_back({"dag64x2000/1", bench::random_dag(64, 2000, 1)});
  {
    // Shapes no generator builds, where the enumeration's exclusions
    // decide: a gate whose equal fanins are constants (Fold 0 and 1 both
    // hold), and equal mux arms that are constant or a same-select mux
    // (MuxRule 1 with 2, and 1 with 3).
    Netlist edges("edges");
    NodeId s = edges.add_input("s");
    NodeId x = edges.add_input("x");
    NodeId y = edges.add_input("y");
    NodeId c0 = edges.add_const(false);
    NodeId c1 = edges.add_const(true);
    NodeId inner = edges.add_gate(GateType::Mux, {s, x, y});
    edges.add_output(edges.add_gate(GateType::And, {c0, c0}), "f0");
    edges.add_output(edges.add_gate(GateType::Mux, {s, c1, c1}), "f1");
    edges.add_output(edges.add_gate(GateType::Mux, {s, inner, inner}), "f2");
    nets.push_back({"edges", std::move(edges)});
  }
  for (const auto& [name, net] : nets) {
    SCOPED_TRACE(name);
    expect_matches_reference(net, name);
  }

  // The E25 datapath family, before the engine and after every keep of its
  // sequential run; the run must be the engine's own (same final netlist).
  const std::vector<bench::NamedNetlist> family = {
      {"mult4", bench::array_multiplier(4)},
      {"mult8", bench::array_multiplier(8)},
      {"alu4", bench::alu(4)},
      {"addsub8", bench::alu_addsub(8)},
      {"dct8", bench::dct_butterfly(8)},
      {"dct16", bench::dct_butterfly(16)}};
  for (const auto& [name, net] : family) {
    SCOPED_TRACE(name);
    expect_matches_reference(net, name);
    Netlist work = net.clone();
    std::size_t keeps = 0;
    serial_rewrite(work, [&](const Netlist& now) {
      ++keeps;
      expect_matches_reference(now, name + " keep " + std::to_string(keeps));
    });
    EXPECT_GT(keeps, 0u);
    Netlist engine = net.clone();
    RewriteOptions ro;
    ro.workers = 1;
    rewrite_datapath(engine, ro);
    EXPECT_EQ(structural_hash(work), structural_hash(engine));
  }
}

TEST(RewriteRules, OutOfRangeVariantIsStale) {
  // Variants per rule, in RuleKind order.
  constexpr std::uint8_t kVariants[] = {4, 2, 5, 4, 5, 2, 1};
  auto expect_stale = [](const Netlist& net, const Candidate& c) {
    Netlist work = net.clone();
    EXPECT_FALSE(apply_rule(work, c)) << describe(c);
    EXPECT_EQ(structural_hash(work), structural_hash(net)) << describe(c);
  };
  // Every enumerated site, pushed past its rule's last variant.  The
  // reference accepted some of these as a lower variant.
  std::size_t reference_accepted = 0;
  std::vector<bench::NamedNetlist> nets = bench::default_suite();
  nets.push_back({"dag32x150/3", bench::random_dag(32, 150, 3)});
  for (const auto& [name, net] : nets) {
    SCOPED_TRACE(name);
    for (const Candidate& site : match_rules(net)) {
      for (std::uint8_t past = 0; past < 3; ++past) {
        Candidate c = site;
        c.variant = static_cast<std::uint8_t>(
            kVariants[static_cast<int>(site.rule)] + past);
        expect_stale(net, c);
        Netlist ref = net.clone();
        if (reference::apply_rule(ref, c)) ++reference_accepted;
      }
    }
  }
  EXPECT_GT(reference_accepted, 0u);

  // The two sites the reference ran as another variant.
  const Netlist dag = bench::random_dag(32, 150, 3);
  const Netlist mult4 = bench::array_multiplier(4);
  for (const auto& [net, c] :
       {std::pair{&dag, Candidate{RuleKind::Reassoc, 140, 2}},
        std::pair{&mult4, Candidate{RuleKind::Distrib, 14, 1}}}) {
    Netlist ref = net->clone();
    EXPECT_TRUE(reference::apply_rule(ref, c)) << describe(c);
    expect_stale(*net, c);
  }
}

// ---- nested undo epochs ---------------------------------------------------

TEST(NestedJournal, InnerRollbackLeavesOuterEpochArmed) {
  Netlist n("nest");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_and(a, b);
  n.add_output(g, "f");
  std::uint64_t h0 = structural_hash(n);

  n.begin_undo();
  NodeId o1 = n.add_or(a, b);
  n.substitute(g, o1);
  std::uint64_t h1 = structural_hash(n);

  n.begin_undo();
  EXPECT_EQ(n.undo_depth(), 2u);
  NodeId x1 = n.add_xor(a, b);
  n.substitute(o1, x1);
  EXPECT_NE(structural_hash(n), h1);
  n.rollback_undo();  // inner only
  EXPECT_EQ(n.undo_depth(), 1u);
  EXPECT_EQ(structural_hash(n), h1);

  n.rollback_undo();  // outer
  EXPECT_EQ(structural_hash(n), h0);
  EXPECT_EQ(n.undo_rollbacks(), 2u);
}

TEST(NestedJournal, CommittedInnerEpochMergesIntoParent) {
  Netlist n("merge");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_and(a, b);
  n.add_output(g, "f");
  std::uint64_t h0 = structural_hash(n);

  n.begin_undo();
  NodeId o1 = n.add_or(a, b);
  n.substitute(g, o1);
  n.begin_undo();
  NodeId x1 = n.add_xor(a, b);
  n.substitute(o1, x1);
  n.sweep();
  n.commit_undo();  // inner changes now belong to the outer epoch
  EXPECT_EQ(n.undo_depth(), 1u);
  auto touched = n.touched_nodes();
  EXPECT_FALSE(touched.all);
  // The outer epoch must cover the inner epoch's edits too.
  bool covers_inner = false;
  for (NodeId id : touched.ids) covers_inner |= id == x1;
  EXPECT_TRUE(covers_inner);
  n.rollback_undo();  // outer rollback undoes both
  EXPECT_EQ(structural_hash(n), h0);
  EXPECT_EQ(n.check(), "");
}

TEST(NestedJournal, CandidateEpochsInsideStageEpochRestoreExactly) {
  // The engine's exact usage pattern: stage epoch, then per-candidate
  // epochs that individually commit or roll back, then a stage rollback.
  Netlist net = bench::dct_butterfly(4);
  std::uint64_t h0 = structural_hash(net);
  net.begin_undo();  // stage
  auto candidates = match_rules(net);
  ASSERT_GE(candidates.size(), 4u);
  std::size_t applied = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    net.begin_undo();  // candidate
    bool ok = logicopt::rewrite::apply_rule(net, candidates[i]);
    applied += ok;
    if (i % 2 == 0)
      net.commit_undo();
    else
      net.rollback_undo();
  }
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(net.undo_depth(), 1u);
  net.rollback_undo();  // stage epoch undoes every committed candidate
  EXPECT_EQ(structural_hash(net), h0);
  EXPECT_EQ(net.check(), "");
}

// ---- the oracle protocol --------------------------------------------------

TEST(ScoreCandidate, ProbeMatchesFullAnalysisAndRevertsExactly) {
  Netlist net = bench::alu_addsub(4);
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 2048;
  ao.seed = 9;
  power::IncrementalAnalyzer inc(net, ao);
  double p0 = inc.analysis().report.breakdown.total_w();

  auto candidates = match_rules(net);
  ASSERT_FALSE(candidates.empty());
  bool probed = false;
  for (const Candidate& c : candidates) {
    net.begin_undo();
    if (!logicopt::rewrite::apply_rule(net, c)) {
      net.commit_undo();
      continue;
    }
    auto touched = net.touched_nodes();
    double scored = inc.score_candidate(touched);
    // The probe must equal a fresh full analysis of the mutated circuit.
    EXPECT_EQ(scored, power::analyze(net, ao).report.breakdown.total_w());
    net.rollback_undo();
    inc.revert_last();
    probed = true;
    break;
  }
  ASSERT_TRUE(probed);
  // After reject: estimate and netlist agree with the pre-probe state.
  EXPECT_EQ(inc.analysis().report.breakdown.total_w(), p0);
  EXPECT_EQ(inc.analysis().report.breakdown.total_w(),
            power::analyze(net, ao).report.breakdown.total_w());
}

// ---- engine behavior ------------------------------------------------------

TEST(RewriteEngine, SavesSwitchingPowerOnTheDatapathFamily) {
  for (auto* build : {+[] { return bench::dct_butterfly(8); },
                      +[] { return bench::alu_addsub(8); }}) {
    Netlist net = build();
    Netlist original = net.clone();
    auto res = rewrite_datapath(net);
    EXPECT_GT(res.kept, 0u);
    EXPECT_LT(res.power_after_w, res.power_before_w);
    EXPECT_EQ(res.unsound, 0u);
    EXPECT_EQ(net.check(), "");
    EXPECT_TRUE(sim::equivalent_random(original, net, 256, 77));
    // Accounting: every scored candidate was kept or reverted.
    EXPECT_EQ(res.candidates_scored, res.kept + res.reverted);
  }
}

TEST(RewriteEngine, KeptSequenceInvariantAcrossSimEnginesAndThreads) {
  Netlist a = bench::dct_butterfly(6);
  Netlist b = a.clone();
  logicopt::rewrite::RewriteResult ra, rb;
  {
    sim::ScopedSimOptions guard({.width = sim::SimdWidth::Scalar});
    core::ScopedThreads t(1);
    ra = rewrite_datapath(a);
  }
  {
    sim::ScopedSimOptions guard({.width = sim::SimdWidth::Auto});
    core::ScopedThreads t(4);
    rb = rewrite_datapath(b);
  }
  EXPECT_EQ(structural_hash(a), structural_hash(b));
  EXPECT_EQ(ra.kept, rb.kept);
  EXPECT_EQ(ra.reverted, rb.reverted);
  EXPECT_EQ(ra.power_after_w, rb.power_after_w);
}

// Rewrite A flips the profitability of rewrite B: B (reassociation of
// Or(Or(q,x),y)) is gate-neutral on the input circuit — it must *build*
// Or(x,y) — so it is rejected.  A (distribution: Or(And(a,x),And(a,y)) ->
// And(a,Or(x,y))) is a clear win and leaves Or(x,y) live, after which B
// reuses it and removes a gate.  A stale-oracle engine that scored the
// whole queue against the input circuit would reject B forever; the live
// oracle accepts it on the next round.
TEST(RewriteEngine, EarlierKeepFlipsLaterCandidateProfitability) {
  Netlist net("flip");
  NodeId a = net.add_input("a");
  NodeId x = net.add_input("x");
  NodeId y = net.add_input("y");
  NodeId q = net.add_input("q");
  NodeId f1 = net.add_or(net.add_and(a, x), net.add_and(a, y));  // A site
  net.add_output(f1, "f1");
  NodeId g1 = net.add_or(net.add_or(q, x), y);  // B site
  net.add_output(g1, "g1");
  Netlist original = net.clone();
  ASSERT_EQ(net.num_gates(), 5u);

  RewriteOptions opt;
  // Reject noise-level "wins": a neutral rewrite re-samples one gate's
  // toggles and can drift a fraction of a gate's power in either
  // direction; a genuine structural win removes a whole gate.
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = opt.sim_vectors;
  ao.seed = opt.seed;
  double total = power::analyze(net, ao).report.breakdown.total_w();
  ASSERT_GT(total, 0.0);
  opt.min_gain_w = 0.3 * total / static_cast<double>(net.num_gates());

  auto res = rewrite_datapath(net, opt);
  EXPECT_EQ(res.kept, 2u);          // A, then B on the re-scored circuit
  EXPECT_GE(res.reverted, 1u);      // B's first scoring lost
  EXPECT_EQ(net.num_gates(), 3u);   // And(a,s), s = Or(x,y), Or(q,s)
  EXPECT_TRUE(sim::equivalent_random(original, net, 256, 77));
}

TEST(RewriteEngine, QueueCapIsNeverSilent) {
  core::metrics::reset();
  Netlist net = bench::dct_butterfly(6);
  RewriteOptions opt;
  opt.max_candidates = 2;
  auto res = rewrite_datapath(net, opt);
  EXPECT_TRUE(res.capped);
  EXPECT_GT(core::metrics::value("logicopt.rewrite.capped"), 0.0);
  EXPECT_EQ(net.check(), "");
  EXPECT_TRUE(sim::equivalent_random(bench::dct_butterfly(6), net, 256, 77));
}

TEST(RewriteEngine, InjectedUnsoundRewriteIsRolledBackAndCounted) {
  core::metrics::reset();
  // dct_butterfly(8) is known to yield kept candidates (see
  // SavesSwitchingPowerOnTheDatapathFamily); the chaos hook fires on the
  // first candidate that was about to be kept.
  Netlist net = bench::dct_butterfly(8);
  Netlist original = net.clone();
  logicopt::candidate::detail::force_unsound_keeps(1);
  auto res = rewrite_datapath(net);
  logicopt::candidate::detail::force_unsound_keeps(0);
  EXPECT_EQ(res.unsound, 1u);
  EXPECT_EQ(core::metrics::value("logicopt.rewrite.unsound"), 1.0);
  EXPECT_EQ(net.check(), "");
  EXPECT_TRUE(sim::equivalent_random(original, net, 256, 77));
}

// ---- stale cost oracle in resynth -----------------------------------------

TEST(ResynthRescore, DecisionsComeFromTheLiveOracleNotTheStaleVector) {
  // With re-scoring on, the pass must be invariant to whatever activity
  // vector the caller captured before the pass — including an empty one
  // (the shape of the original bug: nodes beyond the vector's end scored
  // as toggle-free).
  for (auto* build : {+[] { return bench::carry_select_adder(8, 2); },
                      +[] { return bench::comparator_gt(6); }}) {
    Netlist n1 = build();
    Netlist n2 = build();
    auto st = sim::measure_activity(n1, 64, 5);
    logicopt::ResynthOptions opt;  // power_aware: re-scores activities
    auto r1 = logicopt::resynthesize_windows(n1, st.transition_prob, opt);
    auto r2 = logicopt::resynthesize_windows(n2, {}, opt);
    EXPECT_EQ(structural_hash(n1), structural_hash(n2));
    EXPECT_EQ(r1.nodes_rewritten, r2.nodes_rewritten);
    // Every kept rewrite refreshed the oracle.
    EXPECT_EQ(r1.rescored, r1.nodes_rewritten);
    EXPECT_TRUE(sim::equivalent_random(build(), n1, 256, 77));
  }
}

TEST(ResynthCaps, TruncationIsSurfacedInResultMetricsAndNote) {
  core::metrics::reset();
  Netlist net = bench::alu(4);
  logicopt::ResynthOptions opt;
  opt.max_window_inputs = 1;  // every window over budget
  auto st = sim::measure_activity(net, 64, 5);
  auto res = logicopt::resynthesize_windows(net, st.transition_prob, opt);
  EXPECT_GT(res.windows_capped, 0);
  EXPECT_FALSE(res.note.empty());
  EXPECT_GT(core::metrics::value("logicopt.resynth.capped"), 0.0);

  core::metrics::reset();
  Netlist net2 = bench::carry_select_adder(8, 2);
  logicopt::ResynthOptions opt2;
  opt2.max_rewrites = 1;
  auto st2 = sim::measure_activity(net2, 64, 5);
  auto res2 = logicopt::resynthesize_windows(net2, st2.transition_prob, opt2);
  if (res2.nodes_rewritten >= 1) {
    EXPECT_TRUE(res2.rewrites_capped);
    EXPECT_FALSE(res2.note.empty());
    EXPECT_GT(core::metrics::value("logicopt.resynth.rewrites_capped"), 0.0);
  }
}

TEST(ResynthCaps, BddNodeLimitIsSurfacedInResultMetricsAndSummary) {
  core::metrics::reset();
  Netlist net = bench::alu(4);
  logicopt::ResynthOptions opt;
  opt.bdd_limit = 16;  // far below what alu4's global BDDs need
  auto st = sim::measure_activity(net, 64, 5);
  auto res = logicopt::resynthesize_windows(net, st.transition_prob, opt);
  EXPECT_TRUE(res.limited);
  EXPECT_NE(res.note.find("BDD node limit hit"), std::string::npos);
  EXPECT_EQ(core::metrics::value("logicopt.resynth.limited"), 1.0);

  core::PassManager pm;
  pm.add(core::make_resynth_pass(5, opt));
  Netlist net2 = bench::alu(4);
  auto records = pm.run(net2);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok());
  EXPECT_NE(records[0].summary.find("BDD node limit hit"), std::string::npos)
      << records[0].summary;
}

// ---- flow & pass rollback accounting --------------------------------------

TEST(FlowAccounting, StageRollbackCountsMatchTheJournalCounter) {
  for (auto* build : {+[] { return bench::dct_butterfly(8); },
                      +[] { return bench::array_multiplier(4); }}) {
    Netlist input = build();
    core::FlowOptions opt;
    opt.estimate_mode = power::ActivityMode::ZeroDelay;
    auto res = core::optimize_combinational(input, opt);
    std::size_t reported = 0;
    for (const auto& s : res.stages) reported += s.rollbacks;
    EXPECT_EQ(reported, res.circuit.undo_rollbacks())
        << "flow summary disagrees with the journal's rollback count";
    // Status vs journal: reverted/failed stages must have rewound at least
    // the stage epoch itself.
    for (const auto& s : res.stages) {
      if (s.status != "kept") {
        EXPECT_GE(s.rollbacks, 1u) << s.stage;
      }
    }
    EXPECT_TRUE(sim::equivalent_random(input, res.circuit, 256, 77));
  }
}

TEST(FlowAccounting, MidCandidateFaultUnwindsToTheStageEpoch) {
  Netlist input = bench::dct_butterfly(6);
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  opt.run_dontcare = false;  // datapath is the first journaled stage
  opt.run_balance = false;
  opt.run_sizing = false;
  // Blow up inside the 3rd candidate, after its inner epoch opened (and
  // typically after earlier candidates committed into the stage epoch).
  logicopt::candidate::detail::force_throw_on_candidate(3);
  auto res = core::optimize_combinational(input, opt);
  logicopt::candidate::detail::force_throw_on_candidate(0);

  const core::StageReport* datapath = nullptr;
  for (const auto& s : res.stages)
    if (s.stage.rfind("datapath", 0) == 0) datapath = &s;
  ASSERT_NE(datapath, nullptr);
  EXPECT_EQ(datapath->status, "failed");
  // The unwind popped the open candidate epoch AND the stage epoch.
  EXPECT_GE(datapath->rollbacks, 2u);
  std::size_t reported = 0;
  for (const auto& s : res.stages) reported += s.rollbacks;
  EXPECT_EQ(reported, res.circuit.undo_rollbacks());
  // The failed stage must leave the strashed input untouched.
  EXPECT_TRUE(sim::equivalent_random(input, res.circuit, 256, 77));
  EXPECT_EQ(res.circuit.undo_depth(), 0u);
}

TEST(PassAccounting, MidCandidateFaultRollsBackThePassEpoch) {
  Netlist net = bench::dct_butterfly(6);
  std::uint64_t h0 = structural_hash(net);
  core::PassManager pm{core::PassManager::Options{}};
  pm.add(core::make_datapath_rewrite_pass());
  logicopt::candidate::detail::force_throw_on_candidate(3);
  auto records = pm.run(net);
  logicopt::candidate::detail::force_throw_on_candidate(0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok());
  EXPECT_EQ(records[0].status, "failed");
  EXPECT_EQ(structural_hash(net), h0);
  EXPECT_EQ(net.undo_depth(), 0u);
  EXPECT_EQ(net.check(), "");

  // And without the fault, the same pass runs clean end to end.
  auto clean = pm.run(net);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_TRUE(clean[0].ok());
  EXPECT_TRUE(sim::equivalent_random(bench::dct_butterfly(6), net, 256, 77));
}

TEST(FlowStage, DatapathStageIsWiredIntoTheCombinationalFlow) {
  Netlist input = bench::dct_butterfly(8);
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  auto res = core::optimize_combinational(input, opt);
  bool saw_datapath = false;
  for (const auto& s : res.stages)
    saw_datapath |= s.stage.rfind("datapath", 0) == 0;
  EXPECT_TRUE(saw_datapath);
  // The datapath family is exactly where the stage should win.
  const core::StageReport* datapath = nullptr;
  for (const auto& s : res.stages)
    if (s.stage == "datapath") datapath = &s;
  ASSERT_NE(datapath, nullptr) << "datapath stage was reverted or failed";
  EXPECT_EQ(datapath->status, "kept");
  EXPECT_TRUE(sim::equivalent_random(input, res.circuit, 256, 77));
}

}  // namespace
