// BDD package tests: canonicity, Boolean algebra, quantification,
// counting, netlist bridging.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "logicsim_reference.hpp"
#include "bdd/bdd.hpp"
#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "netlist/benchmarks.hpp"
#include "sim/logicsim.hpp"

namespace lps {
namespace {

using bdd::kFalse;
using bdd::kTrue;

TEST(Bdd, Canonicity) {
  bdd::Manager m(3);
  auto a = m.var(0), b = m.var(1);
  // a AND b built two ways must be the same node.
  EXPECT_EQ(m.land(a, b), m.ite(b, a, kFalse));
  EXPECT_EQ(m.lnot(m.lnot(a)), a);
  EXPECT_EQ(m.lxor(a, a), kFalse);
  EXPECT_EQ(m.lxnor(a, a), kTrue);
  EXPECT_EQ(m.lor(a, m.lnot(a)), kTrue);
  // De Morgan.
  EXPECT_EQ(m.lnot(m.land(a, b)), m.lor(m.lnot(a), m.lnot(b)));
}

TEST(Bdd, EvalMatchesSemantics) {
  bdd::Manager m(3);
  auto f = m.lor(m.land(m.var(0), m.var(1)), m.var(2));
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<bool> a{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    EXPECT_EQ(m.eval(f, a), (a[0] && a[1]) || a[2]);
  }
}

TEST(Bdd, CofactorAndQuantification) {
  bdd::Manager m(2);
  auto f = m.land(m.var(0), m.var(1));
  EXPECT_EQ(m.cofactor(f, 0, true), m.var(1));
  EXPECT_EQ(m.cofactor(f, 0, false), kFalse);
  EXPECT_EQ(m.exists(f, 0), m.var(1));
  EXPECT_EQ(m.forall(f, 0), kFalse);
  auto g = m.lor(m.var(0), m.var(1));
  EXPECT_EQ(m.forall(g, 0), m.var(1));
  EXPECT_EQ(m.exists(g, 0), kTrue);
}

TEST(Bdd, Compose) {
  bdd::Manager m(3);
  // f = x0 XOR x1; substitute x1 := x2 AND x0.
  auto f = m.lxor(m.var(0), m.var(1));
  auto g = m.land(m.var(2), m.var(0));
  auto h = m.compose(f, 1, g);
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<bool> a{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    bool expect = a[0] != (a[2] && a[0]);
    EXPECT_EQ(m.eval(h, a), expect);
  }
}

TEST(Bdd, SatCountAndProbability) {
  bdd::Manager m(3);
  auto f = m.lor(m.land(m.var(0), m.var(1)), m.var(2));
  // Minterms: x2=1 (4) plus x0=x1=1,x2=0 (1) = 5.
  EXPECT_NEAR(m.sat_count(f), 5.0, 1e-9);
  std::vector<double> p{0.5, 0.5, 0.5};
  EXPECT_NEAR(m.probability(f, p), 5.0 / 8.0, 1e-12);
  std::vector<double> q{1.0, 1.0, 0.0};
  EXPECT_NEAR(m.probability(f, q), 1.0, 1e-12);
}

TEST(Bdd, SupportAndSize) {
  bdd::Manager m(4);
  auto f = m.land(m.var(0), m.var(3));
  auto s = m.support(f);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 0u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(m.size(f), 2u);
  EXPECT_EQ(m.size(kTrue), 0u);
}

TEST(Bdd, AnySat) {
  bdd::Manager m(2);
  EXPECT_FALSE(m.any_sat(kFalse).has_value());
  auto f = m.land(m.var(0), m.lnot(m.var(1)));
  auto a = m.any_sat(f);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(m.eval(f, *a));
}

TEST(Bdd, Cubes) {
  bdd::Manager m(2);
  auto f = m.lxor(m.var(0), m.var(1));
  auto cs = m.cubes(f, 2);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0], "01");
  EXPECT_EQ(cs[1], "10");
}

TEST(Bdd, NodeLimit) {
  bdd::Manager m(40, 64);  // absurdly small budget
  bdd::Ref f = kTrue;
  EXPECT_THROW(
      {
        for (unsigned v = 0; v < 40; ++v)
          f = m.land(f, m.lxor(m.var(v), m.var((v + 7) % 40)));
      },
      bdd::NodeLimitExceeded);
}

// ---- synthesis-scale substrate: complement edges, GC, sifting ----------

TEST(Bdd, ComplementEdgeConstantTimeNegation) {
  bdd::Manager m(4);
  ASSERT_TRUE(m.complement_edges());
  auto f = m.lor(m.land(m.var(0), m.var(1)), m.var(2));
  std::size_t pool = m.num_nodes();
  auto g = m.lnot(f);  // O(1): flips the tag bit, allocates nothing
  EXPECT_EQ(m.num_nodes(), pool);
  EXPECT_EQ(g, f ^ 1u);
  EXPECT_EQ(m.lnot(g), f);
  // Both polarities of a literal share one node (the hi-regular rule).
  EXPECT_EQ(bdd::regular(m.var(3)), bdd::regular(m.nvar(3)));
  EXPECT_EQ(m.nvar(3), m.lnot(m.var(3)));
}

// Differential against the no-complement build (the seed manager's
// encoding): random expression DAGs over 8 variables must compute the same
// functions in both modes, and the complement-edge pool must never be
// larger (node sharing across polarities only merges, never splits).
TEST(Bdd, ComplementDifferentialAgainstPlainBuild) {
  bdd::Config plain;
  plain.complement_edges = false;
  plain.auto_gc = false;
  bdd::Manager mc(8), mp(8, plain);
  ASSERT_FALSE(mp.complement_edges());
  std::vector<bdd::Ref> fc, fp;
  for (unsigned v = 0; v < 8; ++v) {
    fc.push_back(mc.var(v));
    fp.push_back(mp.var(v));
  }
  std::mt19937 rng(77);
  for (int i = 0; i < 150; ++i) {
    std::size_t a = rng() % fc.size(), b = rng() % fc.size();
    switch (rng() % 5) {
      case 0:
        fc.push_back(mc.land(fc[a], fc[b]));
        fp.push_back(mp.land(fp[a], fp[b]));
        break;
      case 1:
        fc.push_back(mc.lor(fc[a], fc[b]));
        fp.push_back(mp.lor(fp[a], fp[b]));
        break;
      case 2:
        fc.push_back(mc.lxor(fc[a], fc[b]));
        fp.push_back(mp.lxor(fp[a], fp[b]));
        break;
      case 3:
        fc.push_back(mc.lnot(fc[a]));
        fp.push_back(mp.lnot(fp[a]));
        break;
      default: {
        std::size_t c = rng() % fc.size();
        fc.push_back(mc.ite(fc[a], fc[b], fc[c]));
        fp.push_back(mp.ite(fp[a], fp[b], fp[c]));
        break;
      }
    }
  }
  for (int bits = 0; bits < 256; ++bits) {
    std::vector<bool> a(8);
    for (int v = 0; v < 8; ++v) a[v] = (bits >> v) & 1;
    for (std::size_t k = 8; k < fc.size(); k += 7)
      ASSERT_EQ(mc.eval(fc[k], a), mp.eval(fp[k], a)) << "fn " << k;
  }
  EXPECT_LE(mc.num_nodes(), mp.num_nodes());
  // Canonicity holds in both modes: equal functions got equal Refs, so
  // XOR-of-equals collapsed to the terminal without a differential check.
  EXPECT_EQ(mc.lxor(fc.back(), fc.back()), kFalse);
  EXPECT_EQ(mp.lxor(fp.back(), fp.back()), kFalse);
}

TEST(Bdd, GcChurnReusesFreedNodes) {
  bdd::Config cfg;
  cfg.auto_gc = false;
  bdd::Manager m(16, cfg);
  bdd::Manager m_nogc(16, cfg);  // same build, never collected
  std::vector<bdd::Ref> roots;
  for (unsigned v = 0; v + 1 < 16; v += 2)
    roots.push_back(m.ref(m.lxor(m.var(v), m.var(v + 1))));
  std::mt19937 rng(3);
  for (int round = 0; round < 50; ++round) {
    bdd::Ref t = kTrue, t2 = kTrue;
    for (int i = 0; i < 12; ++i) {
      unsigned a = rng() % 16, b = rng() % 16;
      t = m.land(t, m.lor(m.var(a), m.lnot(m.var(b))));
      t2 = m_nogc.land(t2, m_nogc.lor(m_nogc.var(a), m_nogc.lnot(m_nogc.var(b))));
    }
    m.gc();
  }
  EXPECT_EQ(m.gc_runs(), 50u);
  EXPECT_GT(m.gc_swept(), 0u);
  // Free-list reuse: the collected manager's node pool stays bounded by
  // round-local demand, while the uncollected twin accumulates every
  // round's churn.  Identical workload, so the gap is pure reclamation.
  EXPECT_LT(4 * m.num_nodes(), m_nogc.num_nodes());
  // Rooted functions survived every sweep, identity and value intact.
  for (int bits = 0; bits < 64; ++bits) {
    std::vector<bool> a(16);
    for (int v = 0; v < 16; ++v) a[v] = ((bits * 2654435761u) >> v) & 1;
    for (std::size_t k = 0; k < roots.size(); ++k)
      ASSERT_EQ(m.eval(roots[k], a), a[2 * k] != a[2 * k + 1]);
  }
  // deref + gc reclaims: dropping all roots empties the live set.
  for (bdd::Ref r : roots) m.deref(r);
  m.gc();
  EXPECT_EQ(m.live_nodes(), 0u);
}

TEST(Bdd, AutoGcCollectsDuringRootedBuild) {
  bdd::Config cfg;
  cfg.auto_gc = true;
  cfg.gc_trigger = 1u << 8;  // the configurable floor
  bdd::Manager m(12, cfg);
  ASSERT_TRUE(m.auto_gc_enabled());
  // build_into-style loop: the running function is rooted after every
  // step (the auto-GC contract), all intermediate scaffolding is garbage.
  std::mt19937 rng(11);
  bdd::Ref f = kFalse;
  m.ref(f);
  for (int i = 0; i < 200; ++i) {
    unsigned a = rng() % 12, b = rng() % 12, c = rng() % 12;
    // Each public call may collect, so both intermediates must be rooted
    // before the next call (the contract); only the per-call internals
    // are scaffolding the collector is free to sweep.
    bdd::Ref hi = m.ref(m.lxor(f, m.var(b)));
    bdd::Ref lo = m.ref(m.land(f, m.var(c)));
    bdd::Ref t = m.ref(m.ite(m.var(a), hi, lo));
    m.deref(hi);
    m.deref(lo);
    m.deref(f);
    f = t;
  }
  EXPECT_GT(m.gc_runs(), 0u);
  EXPECT_GT(m.gc_swept(), 0u);
  EXPECT_LE(m.live_nodes(), m.num_nodes());
  // The function survived the collections: replay the same recurrence on
  // scalar booleans for a sample of assignments.
  std::vector<std::vector<bool>> samples;
  for (int s = 0; s < 32; ++s) {
    std::vector<bool> a(12);
    for (int v = 0; v < 12; ++v) a[v] = ((s * 40503u + 7u) >> v) & 1;
    samples.push_back(a);
  }
  std::mt19937 rng2(11);
  std::vector<bool> val(samples.size(), false);
  for (int i = 0; i < 200; ++i) {
    unsigned a = rng2() % 12, b = rng2() % 12, c = rng2() % 12;
    for (std::size_t s = 0; s < samples.size(); ++s)
      val[s] = samples[s][a] ? (val[s] != samples[s][b])
                             : (val[s] && samples[s][c]);
  }
  for (std::size_t s = 0; s < samples.size(); ++s)
    ASSERT_EQ(m.eval(f, samples[s]), val[s]) << "sample " << s;
}

TEST(Bdd, SiftingPreservesFunctionsAndShrinksBlockedOrder) {
  bdd::Manager m(8);
  // x0x4 + x1x5 + x2x6 + x3x7: exponential in the blocked initial order
  // (operands 0-3 before 4-7), linear interleaved — the canonical sifting
  // test function.
  bdd::Ref f = kFalse;
  for (unsigned v = 0; v < 4; ++v)
    f = m.lor(f, m.land(m.var(v), m.var(v + 4)));
  m.ref(f);
  std::size_t before = m.size(f);
  m.sift();
  EXPECT_GT(m.sift_swaps(), 0u);
  EXPECT_LT(m.size(f), before);  // blocked order is strictly suboptimal
  auto check = [&] {
    for (int bits = 0; bits < 256; ++bits) {
      std::vector<bool> a(8);
      for (int v = 0; v < 8; ++v) a[v] = (bits >> v) & 1;
      bool expect = (a[0] && a[4]) || (a[1] && a[5]) || (a[2] && a[6]) ||
                    (a[3] && a[7]);
      ASSERT_EQ(m.eval(f, a), expect) << bits;
    }
  };
  check();
  // var_order stays a permutation and level_of stays its inverse.
  auto ord = m.var_order();
  ASSERT_EQ(ord.size(), 8u);
  for (unsigned l = 0; l < 8; ++l) EXPECT_EQ(m.level_of(ord[l]), l);
  std::sort(ord.begin(), ord.end());
  for (unsigned v = 0; v < 8; ++v) EXPECT_EQ(ord[v], v);
  // Activity-weighted sifting also preserves the function.
  std::vector<double> w{8, 7, 6, 5, 4, 3, 2, 1};
  bdd::Manager::SiftOptions so;
  so.weights = w;
  m.sift(so);
  check();
}

TEST(Bdd, CountersFlushOnClearCachesAndDestruction) {
  core::metrics::reset();
  double after_clear = 0.0;
  {
    bdd::Manager m(4);
    m.land(m.var(0), m.var(1));
    m.clear_caches();  // flushes and zeroes the manager-local counters
    after_clear = core::metrics::value("bdd.nodes");
    EXPECT_GT(after_clear, 0.0);
    m.land(m.var(2), m.var(3));
  }  // destructor flushes what accrued after the clear — no double count
  EXPECT_GT(core::metrics::value("bdd.nodes"), after_clear);
  EXPECT_EQ(core::metrics::value("bdd.managers"), 1.0);
}

TEST(Bdd, HalvedNodeLimitSucceedsWithComplementAndGc) {
  // 40-variable parity chain: one node per level with complement edges,
  // two per level without (both polarities of every tail parity are
  // distinct nodes in the plain encoding).  At a 96-node budget the plain
  // build — the seed manager's encoding — must throw, while complement
  // edges + auto-GC (sweeping the dead prefix parities) complete in half
  // the footprint.
  auto build_parity = [](bdd::Manager& m) {
    bdd::Ref f = m.ref(kFalse);
    for (unsigned v = 0; v < 40; ++v) {
      // var() is itself a public call that may collect, so the running
      // function stays rooted until the new tail parity is.
      bdd::Ref x = m.ref(m.var(v));
      bdd::Ref t = m.ref(m.lxor(f, x));
      m.deref(x);
      m.deref(f);
      f = t;
    }
    return f;
  };
  bdd::Config plain;
  plain.complement_edges = false;
  plain.auto_gc = true;
  plain.node_limit = 96;
  bdd::Manager mp(40, plain);
  EXPECT_THROW(build_parity(mp), bdd::NodeLimitExceeded);

  bdd::Config cfg;
  cfg.auto_gc = true;
  cfg.node_limit = 96;
  bdd::Manager m(40, cfg);
  bdd::Ref f = build_parity(m);
  EXPECT_LE(m.peak_live_nodes(), 96u);
  std::vector<bool> a(40, false);
  EXPECT_FALSE(m.eval(f, a));
  a[3] = true;
  EXPECT_TRUE(m.eval(f, a));
  a[17] = true;
  EXPECT_FALSE(m.eval(f, a));
}

TEST(BddNetlist, AgreesWithSimulation) {
  for (const auto& [name, net] : bench::default_suite()) {
    if (!net.dffs().empty() || net.inputs().size() > 24) continue;
    auto b = bdd::build_bdds(net);
    reference::LogicSim s(net);
    std::vector<std::uint64_t> pi(net.inputs().size());
    std::mt19937_64 rng(5);
    for (int round = 0; round < 4; ++round) {
      for (auto& w : pi) w = rng();
      auto frame = s.eval(pi);
      // Check lane 0 against BDD eval.
      std::vector<bool> assignment(b.mgr.num_vars(), false);
      for (std::size_t i = 0; i < net.inputs().size(); ++i)
        assignment[b.var_of.at(net.inputs()[i])] = (pi[i] & 1) != 0;
      for (NodeId o : net.outputs())
        EXPECT_EQ(b.mgr.eval(b.node_fn[o], assignment),
                  (frame[o] & 1) != 0)
            << name;
    }
  }
}

// The shared gate lowering agrees with the simulator's gate semantics for
// every logic gate type at every arity up to 5, on all 2^k assignments.
TEST(BddNetlist, GateLoweringMatchesEvalGate) {
  const GateType types[] = {GateType::Const0, GateType::Const1,
                            GateType::Buf,    GateType::Not,
                            GateType::And,    GateType::Nand,
                            GateType::Or,     GateType::Nor,
                            GateType::Xor,    GateType::Xnor,
                            GateType::Mux};
  for (GateType t : types) {
    const std::size_t max_k = std::min<std::size_t>(5, gate_max_arity(t));
    for (std::size_t k = gate_min_arity(t); k <= max_k; ++k) {
      Netlist net("gate");
      std::vector<NodeId> ins;
      for (std::size_t i = 0; i < k; ++i)
        ins.push_back(net.add_input("x" + std::to_string(i)));
      const NodeId g = net.add_gate(t, ins);
      bdd::Manager m(static_cast<unsigned>(k));
      std::vector<bdd::Ref> fn(net.size(), kFalse);
      for (std::size_t i = 0; i < k; ++i)
        fn[ins[i]] = m.var(static_cast<unsigned>(i));
      const bdd::Ref f = bdd::lower_gate(m, net.node(g), fn);
      for (std::uint32_t a = 0; a < (1u << k); ++a) {
        std::vector<bool> assignment(k);
        std::vector<std::uint64_t> words(k);
        for (std::size_t i = 0; i < k; ++i) {
          assignment[i] = ((a >> i) & 1u) != 0;
          words[i] = assignment[i] ? ~0ULL : 0ULL;
        }
        EXPECT_EQ(m.eval(f, assignment), (eval_gate(t, words) & 1ULL) != 0)
            << to_string(t) << " arity " << k << " assignment " << a;
      }
    }
  }
}

TEST(BddNetlist, EquivalenceDistinguishes) {
  auto rca = bench::ripple_carry_adder(8);
  auto csa = bench::carry_select_adder(8, 3);
  EXPECT_TRUE(bdd::equivalent_bdd(rca, csa));
  auto cmp = bench::comparator_gt(4);
  auto par = bench::parity_tree(8);
  EXPECT_FALSE(bdd::equivalent_bdd(cmp, par));
}

TEST(BddNetlist, SynthesizeBddRoundTrip) {
  auto net = bench::comparator_gt(4);
  auto b = bdd::build_bdds(net);
  Netlist rebuilt("rb");
  std::vector<NodeId> var_node(b.mgr.num_vars());
  for (NodeId pi : net.inputs())
    var_node[b.var_of.at(pi)] = rebuilt.add_input(net.node(pi).name);
  NodeId out = bdd::synthesize_bdd(rebuilt, b.mgr,
                                   b.node_fn[net.outputs()[0]], var_node);
  rebuilt.add_output(out, "gt");
  EXPECT_TRUE(sim::equivalent_random(net, rebuilt, 128, 9));
}

}  // namespace
}  // namespace lps
