#include "netlist/benchmarks.hpp"

#include <random>
#include <stdexcept>

namespace lps::bench {

namespace {

std::vector<NodeId> add_bus(Netlist& n, const std::string& prefix, int width) {
  std::vector<NodeId> bus;
  bus.reserve(width);
  for (int i = 0; i < width; ++i)
    bus.push_back(n.add_input(prefix + std::to_string(i)));
  return bus;
}

// Full adder: returns {sum, carry}.
std::pair<NodeId, NodeId> full_adder(Netlist& n, NodeId a, NodeId b,
                                     NodeId c) {
  NodeId axb = n.add_xor(a, b);
  NodeId s = n.add_xor(axb, c);
  NodeId carry = n.add_or(n.add_and(a, b), n.add_and(axb, c));
  return {s, carry};
}

}  // namespace

Netlist c17() {
  Netlist n("c17");
  NodeId g1 = n.add_input("1");
  NodeId g2 = n.add_input("2");
  NodeId g3 = n.add_input("3");
  NodeId g6 = n.add_input("6");
  NodeId g7 = n.add_input("7");
  NodeId g10 = n.add_nand(g1, g3);
  NodeId g11 = n.add_nand(g3, g6);
  NodeId g16 = n.add_nand(g2, g11);
  NodeId g19 = n.add_nand(g11, g7);
  NodeId g22 = n.add_nand(g10, g16);
  NodeId g23 = n.add_nand(g16, g19);
  n.add_output(g22, "22");
  n.add_output(g23, "23");
  return n;
}

Netlist ripple_carry_adder(int w) {
  Netlist n("rca" + std::to_string(w));
  auto a = add_bus(n, "a", w);
  auto b = add_bus(n, "b", w);
  NodeId c = n.add_input("cin");
  for (int i = 0; i < w; ++i) {
    auto [s, co] = full_adder(n, a[i], b[i], c);
    n.add_output(s, "s" + std::to_string(i));
    c = co;
  }
  n.add_output(c, "cout");
  return n;
}

Netlist carry_select_adder(int w, int block) {
  if (block < 1) throw std::invalid_argument("carry_select_adder: block < 1");
  Netlist n("csa" + std::to_string(w));
  auto a = add_bus(n, "a", w);
  auto b = add_bus(n, "b", w);
  NodeId carry = n.add_input("cin");
  int lo = 0;
  while (lo < w) {
    int hi = std::min(lo + block, w);
    // Compute the block twice: once assuming carry-in 0, once 1.
    std::vector<NodeId> s0, s1;
    NodeId c0 = n.add_const(false), c1 = n.add_const(true);
    for (int i = lo; i < hi; ++i) {
      auto [x0, y0] = full_adder(n, a[i], b[i], c0);
      auto [x1, y1] = full_adder(n, a[i], b[i], c1);
      s0.push_back(x0);
      s1.push_back(x1);
      c0 = y0;
      c1 = y1;
    }
    for (int i = lo; i < hi; ++i)
      n.add_output(n.add_mux(carry, s0[i - lo], s1[i - lo]),
                   "s" + std::to_string(i));
    carry = n.add_mux(carry, c0, c1);
    lo = hi;
  }
  n.add_output(carry, "cout");
  return n;
}

Netlist array_multiplier(int w) {
  Netlist n("mult" + std::to_string(w));
  auto a = add_bus(n, "a", w);
  auto b = add_bus(n, "b", w);
  // Partial products pp[i][j] = a[j] & b[i].
  // Row-by-row carry-save reduction, final ripple for the top carries.
  std::vector<NodeId> row(w + 1, kNoNode);  // running sum, LSB-aligned per row
  NodeId zero = n.add_const(false);
  for (int i = 0; i <= w; ++i) row[i] = zero;
  std::vector<NodeId> product;
  std::vector<NodeId> sum(w, zero);
  std::vector<NodeId> carry(w, zero);
  for (int i = 0; i < w; ++i) {
    std::vector<NodeId> nsum(w, zero), ncarry(w, zero);
    for (int j = 0; j < w; ++j) {
      NodeId pp = n.add_and(a[j], b[i]);
      NodeId si = (j + 1 < w) ? sum[j + 1] : zero;
      auto [s, c] = full_adder(n, pp, si, carry[j]);
      nsum[j] = s;
      ncarry[j] = c;
    }
    product.push_back(nsum[0]);
    // shift: nsum[j] holds weight i+j; next row consumes nsum[j+1].
    sum = nsum;
    carry = ncarry;
  }
  // Final ripple over remaining sum/carry vectors.
  NodeId c = zero;
  for (int j = 1; j < w; ++j) {
    auto [s, co] = full_adder(n, sum[j], carry[j - 1], c);
    product.push_back(s);
    c = co;
  }
  auto [s_last, c_last] = full_adder(n, zero, carry[w - 1], c);
  product.push_back(s_last);
  (void)c_last;
  for (int k = 0; k < (int)product.size() && k < 2 * w; ++k)
    n.add_output(product[k], "p" + std::to_string(k));
  return n;
}

Netlist comparator_gt(int w) {
  Netlist n("cmp" + std::to_string(w));
  auto c = add_bus(n, "c", w);
  auto d = add_bus(n, "d", w);
  // MSB-first ripple: gt_i = gt_{i+1} OR (eq_{i+1} AND c_i AND NOT d_i)
  NodeId gt = n.add_const(false);
  NodeId eq = n.add_const(true);
  for (int i = w - 1; i >= 0; --i) {
    NodeId ci_gt_di = n.add_and(c[i], n.add_not(d[i]));
    gt = n.add_or(gt, n.add_and(eq, ci_gt_di));
    eq = n.add_and(eq, n.add_xnor(c[i], d[i]));
  }
  n.add_output(gt, "gt");
  return n;
}

Netlist parity_tree(int w, int radix) {
  if (radix < 2) radix = 2;
  Netlist n("parity" + std::to_string(w));
  std::vector<NodeId> level = add_bus(n, "x", w);
  while (level.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < level.size(); i += radix) {
      std::vector<NodeId> grp(level.begin() + i,
                              level.begin() +
                                  std::min(i + radix, level.size()));
      next.push_back(grp.size() == 1
                         ? grp[0]
                         : n.add_gate(GateType::Xor, std::move(grp)));
    }
    level = std::move(next);
  }
  n.add_output(level[0], "parity");
  return n;
}

Netlist and_tree(int w) {
  Netlist n("andtree" + std::to_string(w));
  std::vector<NodeId> level = add_bus(n, "x", w);
  while (level.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(n.add_and(level[i], level[i + 1]));
    if (level.size() % 2) next.push_back(level.back());
    level = std::move(next);
  }
  n.add_output(level[0], "out");
  return n;
}

Netlist decoder(int w) {
  Netlist n("dec" + std::to_string(w));
  auto x = add_bus(n, "x", w);
  std::vector<NodeId> xn;
  for (NodeId b : x) xn.push_back(n.add_not(b));
  for (int m = 0; m < (1 << w); ++m) {
    std::vector<NodeId> terms;
    for (int b = 0; b < w; ++b) terms.push_back((m >> b & 1) ? x[b] : xn[b]);
    NodeId g = (terms.size() == 1)
                   ? terms[0]
                   : n.add_gate(GateType::And, std::move(terms));
    n.add_output(g, "y" + std::to_string(m));
  }
  return n;
}

Netlist alu(int w) {
  Netlist n("alu" + std::to_string(w));
  auto a = add_bus(n, "a", w);
  auto b = add_bus(n, "b", w);
  NodeId op0 = n.add_input("op0");
  NodeId op1 = n.add_input("op1");
  // ADD
  std::vector<NodeId> addv;
  NodeId c = n.add_const(false);
  for (int i = 0; i < w; ++i) {
    auto [s, co] = full_adder(n, a[i], b[i], c);
    addv.push_back(s);
    c = co;
  }
  for (int i = 0; i < w; ++i) {
    NodeId andv = n.add_and(a[i], b[i]);
    NodeId orv = n.add_or(a[i], b[i]);
    NodeId xorv = n.add_xor(a[i], b[i]);
    // op: 00=add 01=and 10=or 11=xor
    NodeId lo = n.add_mux(op0, addv[i], andv);
    NodeId hi = n.add_mux(op0, orv, xorv);
    n.add_output(n.add_mux(op1, lo, hi), "y" + std::to_string(i));
  }
  return n;
}

Netlist dct_butterfly(int w) {
  Netlist n("dct" + std::to_string(w));
  auto a = add_bus(n, "a", w);
  auto b = add_bus(n, "b", w);
  // Sum chain: plain ripple a+b.
  NodeId c = n.add_const(false);
  for (int i = 0; i < w; ++i) {
    auto [s, co] = full_adder(n, a[i], b[i], c);
    n.add_output(s, "s" + std::to_string(i));
    c = co;
  }
  n.add_output(c, "sco");
  // Difference chain: a-b as a + ~b + 1, with ~b formed locally per bit
  // (no sharing with the sum chain — the naive elaboration).
  NodeId bc = n.add_const(true);
  for (int i = 0; i < w; ++i) {
    NodeId nb = n.add_not(b[i]);
    auto [d, co] = full_adder(n, a[i], nb, bc);
    n.add_output(d, "d" + std::to_string(i));
    bc = co;
  }
  n.add_output(bc, "dco");
  return n;
}

Netlist alu_addsub(int w) {
  Netlist n("addsub" + std::to_string(w));
  auto a = add_bus(n, "a", w);
  auto b = add_bus(n, "b", w);
  NodeId sub = n.add_input("sub");
  std::vector<NodeId> addv, subv;
  NodeId c0 = n.add_const(false);
  for (int i = 0; i < w; ++i) {
    auto [s, co] = full_adder(n, a[i], b[i], c0);
    addv.push_back(s);
    c0 = co;
  }
  NodeId c1 = n.add_const(true);
  for (int i = 0; i < w; ++i) {
    NodeId nb = n.add_not(b[i]);
    auto [s, co] = full_adder(n, a[i], nb, c1);
    subv.push_back(s);
    c1 = co;
  }
  for (int i = 0; i < w; ++i)
    n.add_output(n.add_mux(sub, addv[i], subv[i]), "y" + std::to_string(i));
  n.add_output(n.add_mux(sub, c0, c1), "co");
  return n;
}

Netlist random_dag(int n_inputs, int n_gates, std::uint32_t seed) {
  Netlist n("rand" + std::to_string(n_inputs) + "x" + std::to_string(n_gates));
  std::mt19937 rng(seed);
  std::vector<NodeId> pool = add_bus(n, "x", n_inputs);
  auto pick = [&](int bias_recent) -> NodeId {
    // Bias toward recently created nodes to get depth and reconvergence.
    std::size_t m = pool.size();
    if (bias_recent && m > 4 && (rng() & 1)) {
      std::uniform_int_distribution<std::size_t> d(m - std::min<std::size_t>(m, 8), m - 1);
      return pool[d(rng)];
    }
    std::uniform_int_distribution<std::size_t> d(0, m - 1);
    return pool[d(rng)];
  };
  static const GateType kinds[] = {GateType::And,  GateType::Or,
                                   GateType::Nand, GateType::Nor,
                                   GateType::Xor,  GateType::Not};
  for (int g = 0; g < n_gates; ++g) {
    GateType t = kinds[rng() % 6];
    NodeId a = pick(1);
    if (t == GateType::Not) {
      pool.push_back(n.add_not(a));
      continue;
    }
    NodeId b = pick(1);
    int guard = 0;
    while (b == a && guard++ < 8) b = pick(0);
    if (b == a) t = GateType::Not;
    pool.push_back(t == GateType::Not ? n.add_not(a)
                                      : n.add_gate(t, {a, b}));
  }
  // Expose all fanout-free nodes as outputs.
  int k = 0;
  for (NodeId id = 0; id < n.size(); ++id) {
    if (n.is_dead(id) || n.node(id).type == GateType::Input) continue;
    if (n.node(id).fanouts.empty())
      n.add_output(id, "y" + std::to_string(k++));
  }
  if (k == 0) n.add_output(pool.back(), "y0");
  return n;
}

Netlist counter(int w) {
  Netlist n("counter" + std::to_string(w));
  NodeId en = n.add_input("en");
  // Create FFs with placeholder D, then build increment logic.
  std::vector<NodeId> q;
  NodeId zero = n.add_const(false);
  for (int i = 0; i < w; ++i)
    q.push_back(n.add_dff(zero, false, "q" + std::to_string(i)));
  NodeId carry = en;
  for (int i = 0; i < w; ++i) {
    NodeId d = n.add_xor(q[i], carry);
    carry = n.add_and(q[i], carry);
    n.replace_fanin(q[i], 0, d);
    n.add_output(q[i], "out" + std::to_string(i));
  }
  return n;
}

Netlist shift_register(int w) {
  Netlist n("shreg" + std::to_string(w));
  NodeId din = n.add_input("din");
  NodeId prev = din;
  for (int i = 0; i < w; ++i) {
    prev = n.add_dff(prev, false, "q" + std::to_string(i));
  }
  n.add_output(prev, "dout");
  return n;
}

std::vector<NamedNetlist> default_suite() {
  std::vector<NamedNetlist> s;
  s.push_back({"c17", c17()});
  s.push_back({"rca8", ripple_carry_adder(8)});
  s.push_back({"rca16", ripple_carry_adder(16)});
  s.push_back({"csa16", carry_select_adder(16, 4)});
  s.push_back({"mult4", array_multiplier(4)});
  s.push_back({"mult8", array_multiplier(8)});
  s.push_back({"cmp8", comparator_gt(8)});
  s.push_back({"cmp16", comparator_gt(16)});
  s.push_back({"parity16", parity_tree(16)});
  s.push_back({"alu4", alu(4)});
  s.push_back({"dec4", decoder(4)});
  s.push_back({"rand32x200", random_dag(32, 200, 7)});
  s.push_back({"rand16x400", random_dag(16, 400, 11)});
  return s;
}

}  // namespace lps::bench
