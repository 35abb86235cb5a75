// Parameterized property sweeps across the library's invariants
// (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <random>

#include "logicsim_reference.hpp"
#include "bdd/bdd_netlist.hpp"
#include "coding/bus_invert.hpp"
#include "logicopt/path_balance.hpp"
#include "logicopt/decompose_power.hpp"
#include "logicopt/techmap.hpp"
#include "seq/retiming.hpp"
#include "sop/minimize.hpp"
#include "netlist/benchmarks.hpp"
#include "seq/encoding.hpp"
#include "seq/precompute.hpp"
#include "sim/waveform.hpp"
#include "sim/logicsim.hpp"

namespace lps {
namespace {

// --- strash is semantics-preserving on random DAGs -------------------------

class StrashProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StrashProperty, PreservesFunctionAndNeverGrows) {
  auto net = bench::random_dag(10, 80, GetParam());
  auto s = strash(net);
  EXPECT_LE(s.num_gates(), net.num_gates());
  EXPECT_TRUE(sim::equivalent_random(net, s, 128, GetParam()));
  EXPECT_EQ(s.check(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrashProperty,
                         ::testing::Range(1u, 21u));

// --- full balancing always kills glitches, at unchanged delay --------------

class BalanceProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BalanceProperty, ZeroGlitchAtSameCriticalDelay) {
  auto net = bench::random_dag(8, 60, GetParam());
  auto golden = net.clone();
  int delay = net.critical_delay();
  logicopt::full_balance(net);
  EXPECT_EQ(net.critical_delay(), delay);
  EXPECT_TRUE(sim::equivalent_random(golden, net, 128, GetParam() * 3));
  auto ts = sim::measure_timed_activity(net, 200, GetParam());
  EXPECT_NEAR(ts.glitch_fraction(), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalanceProperty, ::testing::Range(1u, 13u));

// --- technology mapping preserves function on random logic -----------------

class TechMapProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TechMapProperty, MappingIsEquivalent) {
  auto net = bench::random_dag(8, 50, GetParam());
  auto lib = logicopt::standard_library();
  auto subject = logicopt::subject_graph(net);
  for (auto obj : {logicopt::MapObjective::Area,
                   logicopt::MapObjective::Power}) {
    auto mapped = logicopt::tech_map(net, lib, obj).to_netlist(subject);
    EXPECT_TRUE(sim::equivalent_random(net, mapped, 128, GetParam() * 7));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TechMapProperty, ::testing::Range(1u, 11u));

// --- bus-invert: lossless, bounded, never worse than raw + 1 line ----------

class BusInvertProperty : public ::testing::TestWithParam<int> {};

TEST_P(BusInvertProperty, LosslessAndBounded) {
  int width = GetParam();
  auto s = sim::uniform_stream(width, 3000, width * 31u);
  coding::BusInvertEncoder enc(width);
  std::uint64_t mask = width >= 64 ? ~0ULL : ((1ULL << width) - 1);
  std::uint64_t prev_wires = 0;
  bool prev_inv = false;
  bool first = true;
  for (auto w : s) {
    auto sym = enc.encode(w);
    EXPECT_EQ(coding::bus_invert_decode(sym.wire_word, sym.invert, width),
              w & mask);
    if (!first) {
      int toggles = std::popcount(sym.wire_word ^ prev_wires) +
                    (sym.invert != prev_inv ? 1 : 0);
      EXPECT_LE(toggles, (width + 1) / 2 + 1);
    }
    prev_wires = sym.wire_word;
    prev_inv = sym.invert;
    first = false;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BusInvertProperty,
                         ::testing::Values(2, 3, 4, 7, 8, 12, 16, 24, 32,
                                           48, 63));

// --- precomputation: trace-exact and honest about hit rate -----------------

class PrecomputeProperty : public ::testing::TestWithParam<int> {};

TEST_P(PrecomputeProperty, ComparatorAllWidths) {
  int n = GetParam();
  auto comb = bench::comparator_gt(n);
  auto sel = seq::select_precompute_inputs(comb, 2);
  EXPECT_NEAR(sel.hit_probability, 0.5, 1e-9);
  auto pre = seq::apply_precomputation(comb, sel.subset);
  auto base = seq::registered_baseline(comb);
  // Trace equivalence.
  reference::LogicSim sa(base), sb(pre.circuit);
  std::vector<std::uint64_t> qa(base.dffs().size()),
      qb(pre.circuit.dffs().size());
  auto da = base.dffs();
  auto db = pre.circuit.dffs();
  for (std::size_t i = 0; i < da.size(); ++i)
    qa[i] = base.node(da[i]).init_value ? ~0ULL : 0;
  for (std::size_t i = 0; i < db.size(); ++i)
    qb[i] = pre.circuit.node(db[i]).init_value ? ~0ULL : 0;
  std::mt19937_64 rng(n * 101u);
  std::vector<std::uint64_t> pi(base.inputs().size());
  for (int cyc = 0; cyc < 20; ++cyc) {
    for (auto& w : pi) w = rng();
    auto fa = sa.eval(pi, qa);
    auto fb = sb.eval(pi, qb);
    ASSERT_EQ(sa.outputs_of(fa), sb.outputs_of(fb));
    qa = sa.next_state_of(fa);
    qb = sb.next_state_of(fb);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PrecomputeProperty,
                         ::testing::Values(2, 3, 4, 6, 8, 10, 12));

// --- low-power encoding validity over FSM families -------------------------

class EncodingProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EncodingProperty, AnnealedEncodingValidAndNoWorse) {
  auto stg = seq::random_fsm(5 + GetParam() % 8, 2, 2, GetParam());
  ASSERT_EQ(stg.check(), "");
  auto bin = seq::binary_encoding(stg);
  seq::AnnealOptions opt;
  opt.seed = GetParam();
  opt.iterations = 5000;
  auto low = seq::low_power_encoding(stg, opt);
  EXPECT_TRUE(low.valid(stg.num_states()));
  EXPECT_LE(low.weighted_switching(stg),
            bin.weighted_switching(stg) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingProperty, ::testing::Range(1u, 16u));

// --- adders of every width add -----------------------------------------------

class AdderProperty : public ::testing::TestWithParam<int> {};

TEST_P(AdderProperty, RippleEqualsCarrySelectEqualsArithmetic) {
  int w = GetParam();
  auto rca = bench::ripple_carry_adder(w);
  auto csa = bench::carry_select_adder(w, std::max(1, w / 3));
  EXPECT_TRUE(bdd::equivalent_bdd(rca, csa));
  // Arithmetic spot check on lane-parallel random patterns.
  reference::LogicSim s(rca);
  std::mt19937_64 rng(w * 7u);
  std::vector<std::uint64_t> pi(rca.inputs().size());
  for (auto& x : pi) x = rng();
  auto f = s.eval(pi);
  for (int lane = 0; lane < 8; ++lane) {
    std::uint64_t a = 0, b = 0, cin = (pi[2 * w] >> lane) & 1;
    for (int i = 0; i < w; ++i) {
      a |= ((pi[i] >> lane) & 1) << i;
      b |= ((pi[w + i] >> lane) & 1) << i;
    }
    std::uint64_t expect = a + b + cin;
    std::uint64_t got = 0;
    for (int i = 0; i <= w; ++i)
      got |= ((f[rca.outputs()[i]] >> lane) & 1) << i;
    EXPECT_EQ(got, expect & ((2ULL << w) - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 16, 24, 32));

// --- two-level minimization: idempotent and monotone ------------------------

class MinimizeIdempotent : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MinimizeIdempotent, SecondPassIsNoop) {
  std::mt19937 rng(GetParam());
  unsigned nv = 5;
  sop::Sop f(nv);
  for (int c = 0; c < 6; ++c) {
    sop::Cube cu(nv);
    for (unsigned v = 0; v < nv; ++v)
      switch (rng() % 3) {
        case 0: cu.set_pos(v); break;
        case 1: cu.set_neg(v); break;
        default: break;
      }
    if (!cu.contradictory()) f.add_cube(cu);
  }
  if (f.empty()) return;
  auto once = sop::minimize(f);
  auto twice = sop::minimize(once);
  EXPECT_LE(twice.num_literals(), once.num_literals());
  EXPECT_TRUE(sop::sop_equal(once, twice));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeIdempotent, ::testing::Range(1u, 11u));

// --- decomposition composes with mapping ------------------------------------

class DecomposeMapProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DecomposeMapProperty, DecomposedCircuitStillMapsEquivalently) {
  auto net = bench::random_dag(8, 40, GetParam());
  auto st = sim::measure_activity(net, 32, GetParam());
  logicopt::decompose_wide_gates(net, logicopt::DecomposeShape::Huffman,
                                 st.transition_prob);
  auto lib = logicopt::standard_library();
  auto subject = logicopt::subject_graph(net);
  auto mapped = logicopt::tech_map(net, lib, logicopt::MapObjective::Power)
                    .to_netlist(subject);
  EXPECT_TRUE(sim::equivalent_random(net, mapped, 128, GetParam() * 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposeMapProperty,
                         ::testing::Range(1u, 9u));

// --- retiming graph: achieved period honours the witness --------------------

class RetimeGraphProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RetimeGraphProperty, WitnessAchievesReportedPeriod) {
  std::mt19937 rng(GetParam());
  seq::RetimeGraph g;
  int n = 6 + static_cast<int>(rng() % 10);
  for (int v = 0; v < n; ++v) g.add_vertex(1 + static_cast<int>(rng() % 6));
  // A ring guarantees every vertex lies on a cycle with registers.
  for (int v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n, rng() % 2);
  g.add_edge(0, n / 2, 1 + static_cast<int>(rng() % 2));
  for (int extra = 0; extra < n / 2; ++extra) {
    int a = static_cast<int>(rng() % n), b = static_cast<int>(rng() % n);
    if (a != b) g.add_edge(a, b, 1 + static_cast<int>(rng() % 2));
  }
  auto [best, r] = g.min_period_retiming();
  auto rg = g.retimed(r);
  EXPECT_EQ(rg.period(), best);
  EXPECT_LE(best, g.period());
  for (const auto& e : rg.edges())
    EXPECT_GE(e.weight, 0) << "illegal negative register count";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetimeGraphProperty,
                         ::testing::Range(1u, 13u));

}  // namespace
}  // namespace lps
