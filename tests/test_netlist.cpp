// Unit tests for the Boolean-network substrate.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>
#include <unordered_map>

#include "logicsim_reference.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "netlist/netlist.hpp"
#include "netlist/timer.hpp"
#include "netlist/validate.hpp"
#include "sim/logicsim.hpp"

namespace lps {
namespace {

TEST(EvalGate, TruthTables) {
  std::uint64_t a = 0b1100, b = 0b1010;
  std::uint64_t w2[] = {a, b};
  EXPECT_EQ(eval_gate(GateType::And, w2) & 0xF, 0b1000u);
  EXPECT_EQ(eval_gate(GateType::Or, w2) & 0xF, 0b1110u);
  EXPECT_EQ(eval_gate(GateType::Nand, w2) & 0xF, 0b0111u);
  EXPECT_EQ(eval_gate(GateType::Nor, w2) & 0xF, 0b0001u);
  EXPECT_EQ(eval_gate(GateType::Xor, w2) & 0xF, 0b0110u);
  EXPECT_EQ(eval_gate(GateType::Xnor, w2) & 0xF, 0b1001u);
  std::uint64_t w1[] = {a};
  EXPECT_EQ(eval_gate(GateType::Not, w1) & 0xF, 0b0011u);
  EXPECT_EQ(eval_gate(GateType::Buf, w1) & 0xF, 0b1100u);
  std::uint64_t s = 0b1010;
  std::uint64_t w3[] = {s, a, b};  // s ? b : a
  EXPECT_EQ(eval_gate(GateType::Mux, w3) & 0xF, 0b1110u);
}

TEST(EvalGate, MuxSelectsCorrectArm) {
  // s=0 -> first data input, s=1 -> second.
  std::uint64_t w[] = {0, 0xF0, 0x0F};
  EXPECT_EQ(eval_gate(GateType::Mux, w), 0xF0u);
  w[0] = ~0ULL;
  EXPECT_EQ(eval_gate(GateType::Mux, w), 0x0Fu);
}

TEST(Netlist, BuildAndQuery) {
  Netlist n("t");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_and(a, b);
  n.add_output(g, "y");
  EXPECT_EQ(n.inputs().size(), 2u);
  EXPECT_EQ(n.outputs().size(), 1u);
  EXPECT_EQ(n.num_gates(), 1u);
  EXPECT_EQ(n.num_literals(), 2u);
  EXPECT_EQ(n.check(), "");
  EXPECT_EQ(n.find("a"), std::optional<NodeId>(a));
  EXPECT_FALSE(n.find("zzz").has_value());
}

TEST(Netlist, ArityValidation) {
  Netlist n;
  NodeId a = n.add_input("a");
  EXPECT_THROW(n.add_gate(GateType::And, {a}), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::Not, {a, a}), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::Mux, {a, a}), std::invalid_argument);
}

TEST(Netlist, TopoOrderRespectsDeps) {
  auto n = bench::ripple_carry_adder(8);
  auto order = n.topo_order();
  EXPECT_EQ(order.size(), n.num_live());
  std::vector<int> pos(n.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = (int)i;
  for (NodeId id : order) {
    if (n.node(id).type == GateType::Dff) continue;
    for (NodeId f : n.node(id).fanins) EXPECT_LT(pos[f], pos[id]);
  }
}

TEST(Netlist, LevelsAndArrival) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g1 = n.add_and(a, b);
  NodeId g2 = n.add_or(g1, a);
  n.add_output(g2, "y");
  // Unit delays: a node's arrival is its level.
  auto at = n.arrival_times();
  EXPECT_EQ(at[a], 0);
  EXPECT_EQ(at[g1], 1);
  EXPECT_EQ(at[g2], 2);
  EXPECT_EQ(n.critical_delay(), 2);
  // A register's enable pin is an endpoint too.
  NodeId slow = n.add_not(n.add_not(g2));
  n.set_dff_enable(n.add_dff(a), slow);
  EXPECT_EQ(n.critical_delay(), 4);
}

// The timer's cone update with undo tracks a seeded script of size edits
// under a load-dependent delay: after every step each arrival equals, bit
// for bit, a fresh full pass, and so does the critical delay.
TEST(Timer, UpdateMatchesFullPass) {
  Netlist net = bench::random_dag(64, 500, 3);
  std::vector<NodeId> gates;
  for (NodeId id : net.topo_order())
    if (!is_source(net.node(id).type)) gates.push_back(id);
  NodeId q = net.add_dff(gates[10]);
  net.set_dff_enable(q, net.add_and(gates[200], gates[300]));
  net.add_output(net.add_xor(q, gates[5]), "r");
  const Netlist& cnet = net;
  auto delay = [&cnet](NodeId n) {
    double load = 0.3;
    for (NodeId fo : cnet.node(n).fanouts) load += cnet.node(fo).size;
    return 0.5 + load / cnet.node(n).size;
  };
  Timer timer(cnet, delay);
  std::mt19937 rng(7);
  std::vector<NodeId> edited;
  for (int step = 0; step < 400; ++step) {
    const NodeId g = gates[rng() % gates.size()];
    const double old = cnet.node(g).size;
    net.node(g).size = 0.5 * (1 + rng() % 16);
    edited.assign(1, g);
    edited.insert(edited.end(), cnet.node(g).fanins.begin(),
                  cnet.node(g).fanins.end());
    timer.update(edited);
    if (rng() % 3 == 0) {
      net.node(g).size = old;
      timer.undo();
    }
    Timer fresh(cnet, delay);
    ASSERT_EQ(timer.arrivals(), fresh.arrivals()) << "step " << step;
    ASSERT_EQ(timer.critical(), fresh.critical()) << "step " << step;
  }
  // Cones, not whole passes.
  EXPECT_GT(timer.updates(), 0u);
  EXPECT_LT(timer.updates(), 400u * cnet.num_live() / 4);
}

TEST(Netlist, SubstituteRedirectsUsesAndOutputs) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g1 = n.add_and(a, b);
  NodeId g2 = n.add_or(g1, a);
  n.add_output(g1, "y1");
  n.add_output(g2, "y2");
  NodeId g3 = n.add_xor(a, b);
  n.substitute(g1, g3);
  EXPECT_TRUE(n.is_dead(g1));
  EXPECT_EQ(n.outputs()[0], g3);
  EXPECT_EQ(n.node(g2).fanins[0], g3);
  EXPECT_EQ(n.check(), "");
}

TEST(Netlist, SweepRemovesDanglingLogic) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId used = n.add_and(a, b);
  NodeId dead1 = n.add_or(a, b);
  NodeId dead2 = n.add_not(dead1);
  (void)dead2;
  n.add_output(used, "y");
  std::size_t removed = n.sweep();
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(n.num_gates(), 1u);
  EXPECT_EQ(n.check(), "");
}

TEST(Netlist, CompactRenumbers) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_and(a, b);
  NodeId dead = n.add_or(a, b);
  (void)dead;
  n.add_output(g, "y");
  n.sweep();
  std::size_t live = n.num_live();
  auto before = blif::write_string(n);
  (void)before;
  n.compact();
  EXPECT_EQ(n.size(), live);
  EXPECT_EQ(n.check(), "");
}

TEST(Netlist, CloneIsDeep) {
  auto n = bench::c17();
  auto c = n.clone();
  c.node(c.inputs()[0]).name = "renamed";
  EXPECT_NE(n.node(n.inputs()[0]).name, "renamed");
}

TEST(Netlist, ConeOf) {
  auto n = bench::c17();
  NodeId out = n.outputs()[0];
  auto mask = n.cone_of(std::vector<NodeId>{out});
  EXPECT_TRUE(mask[out]);
  int count = 0;
  for (NodeId i = 0; i < n.size(); ++i)
    if (mask[i]) ++count;
  EXPECT_GT(count, 3);
  EXPECT_LT(count, (int)n.num_live());
}

TEST(Strash, MergesDuplicatesAndPreservesFunction) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g1 = n.add_and(a, b);
  NodeId g2 = n.add_and(b, a);  // commutative duplicate
  NodeId g3 = n.add_or(g1, g2);
  n.add_output(g3, "y");
  Netlist s = strash(n);
  EXPECT_LT(s.num_gates(), n.num_gates());
  EXPECT_TRUE(sim::equivalent_random(n, s, 64, 1));
}

TEST(Strash, FoldsConstants) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId c1 = n.add_const(true);
  NodeId c0 = n.add_const(false);
  NodeId g1 = n.add_and(a, c1);   // = a
  NodeId g2 = n.add_or(g1, c0);   // = a
  NodeId g3 = n.add_and(g2, c0);  // = 0
  n.add_output(g2, "y1");
  n.add_output(g3, "y2");
  Netlist s = strash(n);
  EXPECT_EQ(s.num_gates(), 0u);
  EXPECT_TRUE(sim::equivalent_random(n, s, 64, 2));
}

TEST(Strash, SequentialPreserved) {
  auto n = bench::counter(4);
  Netlist s = strash(n);
  EXPECT_EQ(s.dffs().size(), 4u);
  EXPECT_TRUE(sim::equivalent_random(n, s, 64, 3));
}

TEST(Benchmarks, SuiteIsWellFormed) {
  for (const auto& [name, net] : bench::default_suite()) {
    EXPECT_EQ(net.check(), "") << name;
    EXPECT_GT(net.num_gates(), 0u) << name;
    EXPECT_FALSE(net.outputs().empty()) << name;
  }
}

TEST(Benchmarks, AdderAddsCorrectly) {
  auto n = bench::ripple_carry_adder(8);
  reference::LogicSim s(n);
  // a=100, b=55, cin=1 -> 156.
  std::vector<std::uint64_t> pi(n.inputs().size(), 0);
  for (int i = 0; i < 8; ++i) {
    pi[i] = (100 >> i & 1) ? ~0ULL : 0;
    pi[8 + i] = (55 >> i & 1) ? ~0ULL : 0;
  }
  pi[16] = ~0ULL;
  auto f = s.eval(pi);
  int sum = 0;
  for (int i = 0; i < 8; ++i)
    if (f[n.outputs()[i]] & 1) sum |= 1 << i;
  if (f[n.outputs()[8]] & 1) sum |= 1 << 8;
  EXPECT_EQ(sum, 156);
}

TEST(Benchmarks, MultiplierMultipliesCorrectly) {
  auto n = bench::array_multiplier(4);
  reference::LogicSim s(n);
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      std::vector<std::uint64_t> pi(8, 0);
      for (int i = 0; i < 4; ++i) {
        pi[i] = (a >> i & 1) ? ~0ULL : 0;
        pi[4 + i] = (b >> i & 1) ? ~0ULL : 0;
      }
      auto f = s.eval(pi);
      int prod = 0;
      for (std::size_t i = 0; i < n.outputs().size(); ++i)
        if (f[n.outputs()[i]] & 1) prod |= 1 << i;
      EXPECT_EQ(prod, a * b) << a << "*" << b;
    }
  }
}

TEST(Benchmarks, ComparatorComparesCorrectly) {
  auto n = bench::comparator_gt(6);
  reference::LogicSim s(n);
  for (int c = 0; c < 64; c += 3) {
    for (int d = 0; d < 64; d += 5) {
      std::vector<std::uint64_t> pi(12, 0);
      for (int i = 0; i < 6; ++i) {
        pi[i] = (c >> i & 1) ? ~0ULL : 0;
        pi[6 + i] = (d >> i & 1) ? ~0ULL : 0;
      }
      auto f = s.eval(pi);
      EXPECT_EQ((f[n.outputs()[0]] & 1) != 0, c > d) << c << " vs " << d;
    }
  }
}

TEST(Benchmarks, CounterCounts) {
  auto n = bench::counter(4);
  reference::LogicSim s(n);
  std::vector<std::uint64_t> en{~0ULL};
  std::vector<std::uint64_t> state(4, 0);
  for (int step = 1; step <= 20; ++step) {
    auto f = s.eval(en, state);
    state = s.next_state_of(f);
    int val = 0;
    for (int b = 0; b < 4; ++b)
      if (state[b] & 1) val |= 1 << b;
    EXPECT_EQ(val, step % 16);
  }
}

TEST(Benchmarks, CarrySelectEqualsRipple) {
  auto a = bench::ripple_carry_adder(16);
  auto b = bench::carry_select_adder(16, 4);
  EXPECT_TRUE(sim::equivalent_random(a, b, 256, 5));
}

TEST(Benchmarks, DecoderOneHot) {
  auto n = bench::decoder(3);
  reference::LogicSim s(n);
  for (int v = 0; v < 8; ++v) {
    std::vector<std::uint64_t> pi(3);
    for (int i = 0; i < 3; ++i) pi[i] = (v >> i & 1) ? ~0ULL : 0;
    auto f = s.eval(pi);
    for (int m = 0; m < 8; ++m)
      EXPECT_EQ((f[n.outputs()[m]] & 1) != 0, m == v);
  }
}

// validate_edit() against the full checker on random edits of valid
// networks (combinational and sequential).  Illegal edits cover the
// checker's classes: cycles through replace_fanin and substitute,
// duplicate PO names, killing a node that still has fanouts or drives a
// PO, raw bookkeeping and arity corruption, and the unscoped cases
// (strash, add_input, removing an input).
TEST(ValidateEdit, ScopeMatchesFullCheck) {
  std::mt19937 rng(0xC0DE);
  int agreed_valid = 0, agreed_invalid = 0;
  for (Netlist net : {bench::random_dag(8, 60, 7), bench::alu(3),
                      bench::counter(4), bench::shift_register(4)}) {
    const Netlist start = net.clone();
    int fresh = 0;
    auto any_live = [&] {
      for (;;) {
        NodeId id = static_cast<NodeId>(rng() % net.size());
        if (!net.is_dead(id)) return id;
      }
    };
    auto live_with_fanins = [&]() -> NodeId {
      for (int tries = 0; tries < 100; ++tries) {
        NodeId id = any_live();
        if (!net.node(id).fanins.empty()) return id;
      }
      return kNoNode;
    };
    // One random edit; true when it was a raw corruption, which ends the
    // script (the mutators assume a sane network).
    std::string script;  // the trial's op kinds, for a failure message
    auto edit = [&]() -> bool {
      const int op = static_cast<int>(rng() % 12);
      script += std::to_string(op) + ' ';
      switch (op) {
        case 0:
        case 1: {  // rewire, possibly into a cycle
          NodeId g = live_with_fanins();
          if (g != kNoNode)
            net.replace_fanin(g, rng() % net.node(g).fanins.size(),
                              any_live());
          return false;
        }
        case 2: {  // substitute, possibly by a node in its own fanout
          NodeId a = any_live(), b = any_live();
          if (a != b) net.substitute(a, b);
          return false;
        }
        case 3:
          net.add_gate(rng() % 2 ? GateType::And : GateType::Xor,
                       {any_live(), any_live()});
          return false;
        case 4: {  // fresh or duplicate PO name
          std::string name = rng() % 2 && !net.output_names().empty()
                                 ? net.output_names()[0]
                                 : "po_x" + std::to_string(fresh++);
          net.add_output(any_live(), name);
          return false;
        }
        case 5: {  // remove a fanout-free node (it may drive a PO)
          NodeId a = any_live();
          if (net.node(a).fanouts.empty()) net.remove(a);
          return false;
        }
        case 6:  // kill a node in place, fanouts and all
          net.node(any_live()).dead = true;
          return true;
        case 7: {  // one-sided bookkeeping
          NodeId g = live_with_fanins();
          if (g != kNoNode) net.node(g).fanins.push_back(any_live());
          return true;
        }
        case 8: {  // arity
          NodeId g = live_with_fanins();
          if (g != kNoNode) net.node(g).type = GateType::Not;
          return true;
        }
        case 9:
          net.node(any_live()).size = 2.0;
          return false;
        case 10:  // strash needs an acyclic network
          if (!net.check().empty()) return false;
          if (rng() % 4 == 0) net = strash(net);
          else net.sweep();
          return false;
        default:
          net.add_input("pi_x" + std::to_string(fresh++));
          return false;
      }
    };
    for (int trial = 0; trial < 400; ++trial) {
      script.clear();
      if (net.num_gates() < 4) net = start;  // sweeps and strash shrink it
      net.begin_undo();
      try {
        for (int k = 1 + static_cast<int>(rng() % 3); k > 0 && !edit(); --k) {
        }
      } catch (const diag::CheckError&) {  // a mutator refused the edit
        net.rollback_undo();
        continue;
      }
      const bool full = net.check().empty();
      ASSERT_EQ(validate_edit(net), full)
          << "trial " << trial << ", ops " << script << ": " << net.check();
      (full ? agreed_valid : agreed_invalid)++;
      // Walk through valid states; the scoped check assumes a valid start.
      if (full && rng() % 2)
        net.commit_undo();
      else
        net.rollback_undo();
    }
  }
  EXPECT_GT(agreed_valid, 300);
  EXPECT_GT(agreed_invalid, 300);
}

// A live gate reading a tombstone is one violation, not also a cycle: the
// cycle search skips references node checks already report.
TEST(Validate, DeadFaninIsNotACycle) {
  Netlist net;
  NodeId a = net.add_input("a");
  NodeId h = net.add_gate(GateType::Buf, {a});
  NodeId g = net.add_not(h);
  net.add_output(g, "y");
  // Tombstone h behind g's back: h unlinks from a, g still reads it.
  net.node(h).fanouts.clear();
  net.remove(h);
  diag::DiagEngine eng(8);
  validate(net, eng);
  ASSERT_EQ(eng.diagnostics().size(), 1u) << eng.str();
  EXPECT_EQ(eng.diagnostics()[0].message,
            "node 2 (NOT) references dead fanin 1 (BUF)");
}

// Each repeated PO name is reported at its slot, naming the first slot
// that used the name, in slot order.
TEST(Validate, DuplicateOutputNamesNameTheFirstSlot) {
  Netlist net;
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_not(a);
  for (const char* name : {"y", "z", "y", "w", "y", "z"}) net.add_output(g, name);
  diag::DiagEngine eng(8);
  validate(net, eng);
  std::vector<std::string> got;
  for (const auto& d : eng.diagnostics()) got.push_back(d.message);
  EXPECT_EQ(got, (std::vector<std::string>{
                     "duplicate primary output name \"y\" (slots 0 and 2)",
                     "duplicate primary output name \"y\" (slots 0 and 4)",
                     "duplicate primary output name \"z\" (slots 1 and 5)"}));
}

TEST(Netlist, PrintDoesNotCrash) {
  std::ostringstream os;
  os << bench::c17();
  EXPECT_NE(os.str().find("NAND"), std::string::npos);
}

// Distinct single-edit mutants of the suite and two register circuits all
// hash apart, and so do the pairs a hash without pin order, PI/PO
// positions or register identity would merge.
TEST(StructuralHash, NoCollisions) {
  std::vector<bench::NamedNetlist> circuits = bench::default_suite();
  circuits.push_back({"counter6", bench::counter(6)});
  circuits.push_back({"shift6", bench::shift_register(6)});
  std::unordered_map<std::uint64_t, std::string> seen;
  auto add = [&](const Netlist& net, const std::string& what) {
    auto [it, fresh] = seen.emplace(structural_hash(net), what);
    EXPECT_TRUE(fresh) << what << " collides with " << it->second;
  };
  for (const auto& c : circuits) add(c.net, c.name);

  static const GateType kNary[] = {GateType::And,  GateType::Or,
                                   GateType::Nand, GateType::Nor,
                                   GateType::Xor,  GateType::Xnor};
  std::mt19937 rng(29);
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::set<std::string> edits;
  std::size_t mutants = 0;
  while (mutants < 10000) {
    auto& [name, net] = circuits[pick(circuits.size())];
    const NodeId g = static_cast<NodeId>(pick(net.size()));
    if (net.is_dead(g)) continue;
    const Node& nd = net.node(g);
    std::string what = name + "/" + std::to_string(g);
    net.begin_undo();
    switch (pick(5)) {
      case 0: {  // a different driver outside g's fanout cone
        if (nd.fanins.empty()) break;
        const std::size_t k = pick(nd.fanins.size());
        const NodeId f = static_cast<NodeId>(pick(net.size()));
        if (net.is_dead(f) || f == nd.fanins[k]) break;
        if (nd.type != GateType::Dff &&
            net.fanout_cone_of(std::span<const NodeId>(&g, 1))[f])
          break;
        what += "/fanin" + std::to_string(k) + "=" + std::to_string(f);
        net.replace_fanin(g, k, f);
        break;
      }
      case 1:
        what += "/size";
        net.node(g).size += 1.0;
        break;
      case 2:
        what += "/delay";
        net.node(g).delay += 1;
        break;
      case 3:
        if (nd.type != GateType::Dff) break;
        what += "/init";
        net.node(g).init_value = !nd.init_value;
        break;
      case 4: {
        GateType t = nd.type;
        if (t == GateType::Buf || t == GateType::Not)
          t = t == GateType::Buf ? GateType::Not : GateType::Buf;
        else if (is_commutative(t))
          while (t == nd.type) t = kNary[pick(6)];
        else
          break;
        what += "/type=" + std::string(to_string(t));
        net.node(g).type = t;
        break;
      }
    }
    if (net.touched_nodes().ids.empty() || !edits.insert(what).second) {
      net.rollback_undo();
      continue;
    }
    add(net, what);
    net.rollback_undo();
    ++mutants;
  }
  for (const auto& c : circuits)
    EXPECT_EQ(seen.count(structural_hash(c.net)), 1u) << c.name << " restored";

  // Targeted pairs.
  auto differ = [](const Netlist& a, const Netlist& b, const char* what) {
    EXPECT_NE(structural_hash(a), structural_hash(b)) << what;
  };
  {
    Netlist a, b;
    for (Netlist* n : {&a, &b})
      for (const char* pi : {"s", "x", "y"}) n->add_input(pi);
    a.add_output(a.add_mux(0, 1, 2), "o");
    b.add_output(b.add_mux(0, 2, 1), "o");
    differ(a, b, "swapped Mux data fanins");
  }
  {
    Netlist a, b;
    const NodeId ax = a.add_input("x"), ay = a.add_input("y");
    const NodeId by = b.add_input("y"), bx = b.add_input("x");
    a.add_output(a.add_and(ax, a.add_not(ay)), "o");
    b.add_output(b.add_and(bx, b.add_not(by)), "o");
    differ(a, b, "swapped PI order");
  }
  {
    Netlist a, b;
    for (Netlist* n : {&a, &b}) {
      const NodeId x = n->add_input("x"), y = n->add_input("y");
      const NodeId p = n->add_and(x, y), q = n->add_or(x, y);
      if (n == &a) {
        n->add_output(p, "p");
        n->add_output(q, "q");
      } else {
        n->add_output(q, "q");
        n->add_output(p, "p");
      }
    }
    differ(a, b, "swapped PO order");
  }
  {
    Netlist a, b;
    for (Netlist* n : {&a, &b}) {
      const NodeId x = n->add_input("x"), y = n->add_input("y");
      const NodeId p = n->add_and(x, y), q = n->add_or(x, y);
      const bool swap = n == &b;
      n->add_output(n->add_dff(swap ? q : p), "q0");
      n->add_output(n->add_dff(swap ? p : q), "q1");
    }
    differ(a, b, "swapped D drivers of two registers with one init value");
  }
  {
    // Twins t1 (size 1) and t2 (size 2), each read by one inverter: the
    // inverters' sizes tie them to their twin.  Swapping the twins' sizes
    // or rewiring the inverters onto the other twin is one edit that
    // changes the sizing report but no node hash.
    auto twins = [](double t1, double t2, bool rewire) {
      Netlist n;
      const NodeId x = n.add_input("x"), y = n.add_input("y");
      const NodeId a1 = n.add_and(x, y), a2 = n.add_and(x, y);
      n.node(a1).size = t1;
      n.node(a2).size = t2;
      const NodeId u1 = n.add_not(rewire ? a2 : a1);
      const NodeId u2 = n.add_not(rewire ? a1 : a2);
      n.node(u1).size = 3.0;
      n.node(u2).size = 1.0;
      n.add_output(u1, "o1");
      n.add_output(u2, "o2");
      return n;
    };
    const Netlist a = twins(1.0, 2.0, false);
    differ(a, twins(2.0, 1.0, false), "swapped sizes of two twins");
    differ(a, twins(1.0, 2.0, true), "users rewired onto the other twin");
  }
}

}  // namespace
}  // namespace lps
