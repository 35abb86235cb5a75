#include "seq/encoding.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <random>
#include <stdexcept>

#include "sim/logicsim.hpp"
#include "sop/factoring.hpp"
#include "sop/minimize.hpp"

namespace lps::seq {

namespace {

int min_bits(int num_states) {
  int b = 1;
  while ((1 << b) < num_states) ++b;
  return b;
}

// Literals of a state code on the state variables, which follow the inputs
// in the variable order (inputs..., state bits...).
void add_code_literals(sop::Cube& c, const Stg& stg, const Encoding& enc,
                       std::uint32_t code) {
  for (int b = 0; b < enc.bits; ++b) {
    if (code >> b & 1)
      c.set_pos(stg.num_inputs() + b);
    else
      c.set_neg(stg.num_inputs() + b);
  }
}

// A transition's cube: its input literals and its source state's code.
sop::Cube transition_cube(const Stg& stg, const Encoding& enc,
                          const StgTransition& t) {
  sop::Cube c(static_cast<unsigned>(stg.num_inputs() + enc.bits));
  for (int i = 0; i < stg.num_inputs(); ++i) {
    if (t.input[i] == '1') c.set_pos(i);
    if (t.input[i] == '0') c.set_neg(i);
  }
  add_code_literals(c, stg, enc, enc.codes[t.from]);
  return c;
}

// The unassigned state codes as don't-care cubes: unreachable from reset,
// so minimizing against them leaves behaviour from reset unchanged.  Past
// 2^30 codes the enumeration is skipped (an empty set).
sop::Sop unused_code_dc(const Stg& stg, const Encoding& enc) {
  const auto nv = static_cast<unsigned>(stg.num_inputs() + enc.bits);
  sop::Sop dc(nv);
  if (enc.bits >= 30) return dc;
  std::vector<bool> used(1u << enc.bits, false);
  for (auto code : enc.codes) used[code] = true;
  for (std::uint32_t code = 0; code < (1u << enc.bits); ++code) {
    if (used[code]) continue;
    sop::Cube c(nv);
    add_code_literals(c, stg, enc, code);
    dc.add_cube(c);
  }
  return dc;
}

}  // namespace

double Encoding::weighted_switching(const Stg& stg) const {
  auto w = stg.edge_weights();
  double total = 0.0;
  for (int s = 0; s < stg.num_states(); ++s)
    for (int q = 0; q < stg.num_states(); ++q) {
      if (w[s][q] <= 0) continue;
      total += w[s][q] * std::popcount(codes[s] ^ codes[q]);
    }
  return total;
}

bool Encoding::valid(int num_states) const {
  if (static_cast<int>(codes.size()) != num_states) return false;
  std::vector<std::uint32_t> c = codes;
  std::sort(c.begin(), c.end());
  if (std::adjacent_find(c.begin(), c.end()) != c.end()) return false;
  for (auto x : codes)
    if (bits < 32 && (x >> bits) != 0) return false;
  return true;
}

Encoding binary_encoding(const Stg& stg) {
  Encoding e;
  e.bits = min_bits(stg.num_states());
  for (int s = 0; s < stg.num_states(); ++s)
    e.codes.push_back(static_cast<std::uint32_t>(s));
  return e;
}

Encoding onehot_encoding(const Stg& stg) {
  Encoding e;
  e.bits = stg.num_states();
  for (int s = 0; s < stg.num_states(); ++s) e.codes.push_back(1u << s);
  return e;
}

Encoding random_encoding(const Stg& stg, std::uint32_t seed) {
  Encoding e;
  e.bits = min_bits(stg.num_states());
  std::vector<std::uint32_t> pool(1u << e.bits);
  for (std::uint32_t i = 0; i < pool.size(); ++i) pool[i] = i;
  std::mt19937 rng(seed);
  std::shuffle(pool.begin(), pool.end(), rng);
  e.codes.assign(pool.begin(), pool.begin() + stg.num_states());
  return e;
}

Encoding gray_walk_encoding(const Stg& stg) {
  Encoding e;
  int n = stg.num_states();
  e.bits = min_bits(n);
  auto pi = stg.steady_state();
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return pi[a] > pi[b]; });
  std::vector<bool> used(1u << e.bits, false);
  e.codes.assign(n, 0);
  std::uint32_t prev = 0;
  for (int k = 0; k < n; ++k) {
    // Pick the unused code closest (Hamming) to the previous hot code.
    int best_d = 64;
    std::uint32_t best = 0;
    for (std::uint32_t c = 0; c < used.size(); ++c) {
      if (used[c]) continue;
      int d = std::popcount(c ^ prev);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    used[best] = true;
    e.codes[order[k]] = best;
    prev = best;
  }
  return e;
}

Encoding low_power_encoding(const Stg& stg, const AnnealOptions& opt) {
  Encoding e = gray_walk_encoding(stg);
  int n = stg.num_states();
  if (opt.bits > 0) {
    if ((1 << opt.bits) < n)
      throw std::invalid_argument("low_power_encoding: width too small");
    e.bits = opt.bits;
  }
  // Precompute the weight matrix once; cost deltas are local.
  auto w = stg.edge_weights();
  // Symmetrize: switching cost counts both directions identically.
  std::vector<std::vector<double>> sym(n, std::vector<double>(n, 0.0));
  for (int s = 0; s < n; ++s)
    for (int q = 0; q < n; ++q) {
      if (s == q) continue;
      sym[s][q] = w[s][q] + w[q][s];
    }
  auto cost_of_state = [&](const std::vector<std::uint32_t>& codes, int s) {
    double c = 0.0;
    for (int q = 0; q < n; ++q)
      if (sym[s][q] > 0) c += sym[s][q] * std::popcount(codes[s] ^ codes[q]);
    return c;
  };

  std::mt19937 rng(opt.seed);
  std::vector<std::uint32_t> codes = e.codes;
  std::vector<bool> used(1u << e.bits, false);
  for (auto c : codes) used[c] = true;

  double best_cost = e.weighted_switching(stg) * 2.0;  // sym double-counts
  double cur = best_cost;
  std::vector<std::uint32_t> best = codes;
  double t = opt.t0;
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int it = 0; it < opt.iterations; ++it, t *= opt.cooling) {
    int s = static_cast<int>(rng() % n);
    double delta;
    int s2 = -1;
    std::uint32_t fresh = 0;
    if ((rng() & 1) && (1u << e.bits) > static_cast<unsigned>(n)) {
      // Reassign s to an unused code.
      do {
        fresh = rng() & ((1u << e.bits) - 1);
      } while (used[fresh]);
      double before = cost_of_state(codes, s);
      std::uint32_t old = codes[s];
      codes[s] = fresh;
      double after = cost_of_state(codes, s);
      codes[s] = old;
      delta = 2.0 * (after - before);
    } else {
      // Swap codes of s and s2.
      do {
        s2 = static_cast<int>(rng() % n);
      } while (s2 == s);
      double before = cost_of_state(codes, s) + cost_of_state(codes, s2) -
                      2.0 * sym[s][s2] * std::popcount(codes[s] ^ codes[s2]);
      std::swap(codes[s], codes[s2]);
      double after = cost_of_state(codes, s) + cost_of_state(codes, s2) -
                     2.0 * sym[s][s2] * std::popcount(codes[s] ^ codes[s2]);
      std::swap(codes[s], codes[s2]);
      delta = 2.0 * (after - before);
    }
    if (delta <= 0 || uni(rng) < std::exp(-delta / std::max(t, 1e-6))) {
      if (s2 >= 0) {
        std::swap(codes[s], codes[s2]);
      } else {
        used[codes[s]] = false;
        codes[s] = fresh;
        used[fresh] = true;
      }
      cur += delta;
      if (cur < best_cost - 1e-12) {
        best_cost = cur;
        best = codes;
      }
    }
  }
  e.codes = std::move(best);
  return e;
}

Netlist synthesize_fsm(const Stg& stg, const Encoding& enc,
                       const std::string& name) {
  if (!enc.valid(stg.num_states()))
    throw std::invalid_argument("synthesize_fsm: invalid encoding");
  Netlist n(name);
  std::vector<NodeId> in;
  for (int i = 0; i < stg.num_inputs(); ++i)
    in.push_back(n.add_input("i" + std::to_string(i)));

  std::uint32_t reset = enc.codes[stg.reset_state()];
  std::vector<NodeId> st;
  NodeId placeholder = n.add_const(false);
  for (int b = 0; b < enc.bits; ++b)
    st.push_back(n.add_dff(placeholder, (reset >> b & 1) != 0,
                           "st" + std::to_string(b)));

  // Build each next-state / output function as a two-level cover over the
  // variables (inputs..., state bits...), minimize it with the unassigned
  // state codes as don't-cares (unreachable from reset, so behaviour from
  // reset is unchanged), and share identical product terms across
  // functions when building gates.
  unsigned nv = static_cast<unsigned>(stg.num_inputs() + enc.bits);
  const sop::Sop dc = unused_code_dc(stg, enc);

  // Shared leaves: the var -> signal mapping for cube-to-gate expansion.
  std::vector<NodeId> leaf(nv);
  std::vector<NodeId> leaf_bar(nv);
  for (int i = 0; i < stg.num_inputs(); ++i) leaf[i] = in[i];
  for (int b = 0; b < enc.bits; ++b) leaf[stg.num_inputs() + b] = st[b];
  for (unsigned v = 0; v < nv; ++v) leaf_bar[v] = n.add_not(leaf[v]);

  std::map<std::string, NodeId> term_cache;  // cube string -> AND gate
  auto build_cover = [&](const sop::Sop& f) -> NodeId {
    std::vector<NodeId> terms;
    for (const auto& c : f.cubes()) {
      auto key = c.to_string();
      auto it = term_cache.find(key);
      if (it != term_cache.end()) {
        terms.push_back(it->second);
        continue;
      }
      std::vector<NodeId> lits;
      for (unsigned v = 0; v < nv; ++v) {
        if (c.has_pos(v)) lits.push_back(leaf[v]);
        if (c.has_neg(v)) lits.push_back(leaf_bar[v]);
      }
      NodeId term;
      if (lits.empty())
        term = n.add_const(true);
      else if (lits.size() == 1)
        term = lits[0];
      else
        term = n.add_gate(GateType::And, std::move(lits));
      term_cache.emplace(std::move(key), term);
      terms.push_back(term);
    }
    if (terms.empty()) return n.add_const(false);
    if (terms.size() == 1) return terms[0];
    return n.add_gate(GateType::Or, std::move(terms));
  };

  for (int b = 0; b < enc.bits; ++b) {
    sop::Sop f(nv);
    for (const auto& t : stg.transitions())
      if (enc.codes[t.to] >> b & 1)
        f.add_cube(transition_cube(stg, enc, t));
    n.replace_fanin(st[b], 0, build_cover(sop::minimize(f, dc)));
  }
  for (int j = 0; j < stg.num_outputs(); ++j) {
    sop::Sop f(nv);
    for (const auto& t : stg.transitions())
      if (t.output[j] == '1') f.add_cube(transition_cube(stg, enc, t));
    n.add_output(build_cover(sop::minimize(f, dc)), "o" + std::to_string(j));
  }
  n.sweep();
  return n;
}

Stg extract_stg(const Netlist& net, int max_state_bits) {
  auto dffs = net.dffs();
  int nb = static_cast<int>(dffs.size());
  int ni = static_cast<int>(net.inputs().size());
  if (nb > max_state_bits || ni > 20)
    throw std::invalid_argument("extract_stg: state/input space too large");
  const sim::CompiledSim cs(net);

  auto code_name = [&](std::uint32_t code) {
    std::string s(nb, '0');
    for (int b = 0; b < nb; ++b)
      if (code >> b & 1) s[b] = '1';
    return s;
  };

  Stg g(ni, static_cast<int>(net.outputs().size()));
  std::uint32_t reset = 0;
  for (int b = 0; b < nb; ++b)
    if (net.node(dffs[b]).init_value) reset |= 1u << b;

  std::vector<int> state_of_code(1u << nb, -1);
  std::vector<std::uint32_t> frontier{reset};
  state_of_code[reset] = g.add_state(code_name(reset));
  g.set_reset_state(0);

  std::vector<std::uint64_t> pi_words(net.inputs().size());
  std::vector<std::uint64_t> ff_words(dffs.size()), ns(dffs.size());
  sim::Frame f;
  while (!frontier.empty()) {
    std::uint32_t code = frontier.back();
    frontier.pop_back();
    int from = state_of_code[code];
    for (std::uint32_t m = 0; m < (1u << ni); ++m) {
      for (int i = 0; i < ni; ++i) pi_words[i] = (m >> i & 1) ? ~0ULL : 0;
      for (int b = 0; b < nb; ++b) ff_words[b] = (code >> b & 1) ? ~0ULL : 0;
      cs.eval_into(f, pi_words, ff_words);
      sim::clock_registers(net, dffs, f.data(), ns);
      std::uint32_t next = 0;
      for (int b = 0; b < nb; ++b)
        if (ns[b] & 1) next |= 1u << b;
      if (state_of_code[next] < 0) {
        state_of_code[next] = g.add_state(code_name(next));
        frontier.push_back(next);
      }
      std::string cube(ni, '0');
      for (int i = 0; i < ni; ++i)
        if (m >> i & 1) cube[i] = '1';
      std::string out(net.outputs().size(), '0');
      for (std::size_t j = 0; j < out.size(); ++j)
        if (f[net.outputs()[j]] & 1) out[j] = '1';
      g.add_transition(cube, from, state_of_code[next], out);
    }
  }
  return g;
}

int gate_self_loops_from_stg(Netlist& net, const Stg& stg,
                             const Encoding& enc) {
  auto dffs = net.dffs();
  if (static_cast<int>(dffs.size()) != enc.bits)
    throw std::invalid_argument("gate_self_loops_from_stg: wrong circuit");
  unsigned nv = static_cast<unsigned>(stg.num_inputs() + enc.bits);
  // Self-loop cover over (inputs..., state bits...).
  sop::Sop self_cover(nv);
  for (const auto& t : stg.transitions())
    if (t.from == t.to) self_cover.add_cube(transition_cube(stg, enc, t));
  if (self_cover.empty()) return 0;
  // Unassigned codes are free: minimize against them.
  const sop::Sop dc = unused_code_dc(stg, enc);
  auto cover = sop::minimize(self_cover, dc);

  std::vector<NodeId> leaf(nv);
  for (int i = 0; i < stg.num_inputs(); ++i) leaf[i] = net.inputs()[i];
  for (int b = 0; b < enc.bits; ++b) leaf[stg.num_inputs() + b] = dffs[b];
  std::size_t before = net.num_gates();
  NodeId self = sop::build_expr(net, sop::factor(cover), leaf);
  NodeId load = net.add_not(self);
  for (NodeId d : dffs) net.set_dff_enable(d, load);
  return static_cast<int>(net.num_gates() - before);
}

ReencodeResult reencode_for_power(const Netlist& net,
                                  const AnnealOptions& opt) {
  Stg stg = extract_stg(net);
  // The original encoding is the state codes themselves.
  Encoding before;
  before.bits = static_cast<int>(net.dffs().size());
  for (int s = 0; s < stg.num_states(); ++s) {
    std::uint32_t c = 0;
    const std::string& nm = stg.state_name(s);
    for (int b = 0; b < before.bits; ++b)
      if (nm[b] == '1') c |= 1u << b;
    before.codes.push_back(c);
  }
  Encoding after = low_power_encoding(stg, opt);
  ReencodeResult r{synthesize_fsm(stg, after, net.name() + "_reenc"),
                   before.weighted_switching(stg),
                   after.weighted_switching(stg)};
  return r;
}

}  // namespace lps::seq
