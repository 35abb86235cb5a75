#include "seq/clock_gating.hpp"

#include <algorithm>
#include <set>

#include "sim/logicsim.hpp"

namespace lps::seq {

std::vector<HoldPattern> detect_hold_patterns(const Netlist& net) {
  std::vector<HoldPattern> out;
  for (NodeId d : net.dffs()) {
    // Registers that already carry a load-enable pin gate trivially.
    if (net.node(d).fanins.size() == 2) {
      out.push_back({d, kNoNode, net.node(d).fanins[1],
                     net.node(d).fanins[0]});
      continue;
    }
    NodeId m = net.node(d).fanins[0];
    const Node& mn = net.node(m);
    if (mn.type != GateType::Mux) continue;
    // mux(s, a, b) = s ? b : a.  Hold pattern: s=0 keeps Q, i.e. a == d.
    if (mn.fanins[1] == d) {
      out.push_back({d, m, mn.fanins[0], mn.fanins[2]});
    } else if (mn.fanins[2] == d) {
      // s=1 holds: enable is the inverted select; record via a NOT if one
      // exists, otherwise skip (keep the pass read-only here).
      continue;
    }
  }
  return out;
}

ClockGatingResult apply_clock_gating(Netlist& net,
                                     const std::vector<HoldPattern>& ps) {
  ClockGatingResult r;
  std::set<NodeId> enables;
  for (const auto& p : ps) {
    if (p.mux != kNoNode) {
      // Bypass the recirculation mux: D = data, clocked by the enable.
      net.replace_fanin(p.dff, 0, p.data);
      if (net.node(p.dff).fanins.size() == 1)
        net.set_dff_enable(p.dff, p.enable);
    }
    ++r.gated_registers;
    enables.insert(p.enable);
  }
  net.sweep();
  r.gating_cells = static_cast<int>(enables.size());
  return r;
}

ClockActivityReport clock_activity(const Netlist& net,
                                   const std::vector<HoldPattern>& ps,
                                   std::size_t n_vectors,
                                   std::uint64_t seed) {
  ClockActivityReport r;
  r.ff_count = static_cast<double>(net.dffs().size());
  std::size_t frames = std::max<std::size_t>(1, n_vectors / 64);
  r.cycles = static_cast<double>(frames * 64);

  // Enable one-probabilities: the serial activity stream (one shard, as
  // the net is sequential) from `seed`.
  std::vector<double> p_one;
  if (!ps.empty()) p_one = sim::measure_activity(net, frames, seed).signal_prob;

  r.clock_toggles_ungated = 2.0 * r.ff_count * r.cycles;
  // Ungated FFs keep toggling their clock pins.
  std::set<NodeId> gated;
  for (const auto& p : ps) gated.insert(p.dff);
  double free_ffs = r.ff_count - static_cast<double>(gated.size());
  r.clock_toggles_gated = 2.0 * free_ffs * r.cycles;
  double duty_sum = 0.0;
  std::set<NodeId> distinct_enables;
  for (std::size_t k = 0; k < ps.size(); ++k) {
    double p1 = p_one[ps[k].enable];
    duty_sum += p1;
    r.clock_toggles_gated += 2.0 * p1 * r.cycles;
    distinct_enables.insert(ps[k].enable);
  }
  // Gating-cell overhead: the latch+AND cell sees the raw clock, ~one clock
  // pin per distinct enable.
  r.clock_toggles_gated +=
      2.0 * static_cast<double>(distinct_enables.size()) * r.cycles;
  r.enable_one_prob_mean = ps.empty() ? 0.0 : duty_sum / ps.size();
  return r;
}

}  // namespace lps::seq
