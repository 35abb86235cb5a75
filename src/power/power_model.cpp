#include "power/power_model.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace lps::power {

double node_capacitance(const Netlist& net, NodeId id, std::uint32_t po_count,
                        const PowerParams& p) {
  const Node& n = net.node(id);
  double c_ff = p.cself_ff * n.size;
  for (NodeId fo : n.fanouts) {
    // A load-enable pin is not a per-register input: the enable net
    // drives one integrated clock-gating cell per bank, charged
    // separately in the clock-power term.  Skip it here (the D pin is
    // still counted).
    const Node& fon = net.node(fo);
    if (fon.type == GateType::Dff && fon.fanins.size() == 2 &&
        fon.fanins[1] == id && fon.fanins[0] != id)
      continue;
    c_ff += p.cwire_ff;
    c_ff += p.cin_ff * fon.size;
  }
  // Primary outputs drive an off-block load comparable to one pin, added
  // once per occurrence (not k * cin_ff, which rounds differently).
  for (; po_count > 0; --po_count) c_ff += p.cin_ff;
  return c_ff * 1e-15;
}

std::vector<double> node_capacitances(const Netlist& net, const PowerParams& p) {
  // PO occurrences per node, counted once: a node listed k times as an
  // output carries k off-block pin loads.
  std::vector<std::uint32_t> po_count(net.size(), 0);
  for (NodeId o : net.outputs()) ++po_count[o];
  std::vector<double> cap(net.size());
  for (NodeId id = 0; id < net.size(); ++id)
    cap[id] = node_capacitance(net, id, po_count[id], p);
  return cap;
}

int transistor_count(const Node& n) {
  int k = static_cast<int>(n.fanins.size());
  switch (n.type) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
      return 0;
    case GateType::Buf:
      return 4;  // two inverters
    case GateType::Not:
      return 2;
    case GateType::And:
    case GateType::Or:
      return 2 * k + 2;  // NAND/NOR + inverter
    case GateType::Nand:
    case GateType::Nor:
      return 2 * k;
    case GateType::Xor:
    case GateType::Xnor:
      return 4 * std::max(1, k - 1) + 2 * k;  // cascaded 2-in XOR cells
    case GateType::Mux:
      return 6;  // transmission-gate mux + select inverter
    case GateType::Dff:
      return 8;
  }
  return 2 * k;
}

void compute_power(const Netlist& net, std::span<const double> toggles,
                   std::span<const double> cap, const PowerParams& p,
                   PowerReport& r) {
  if (toggles.size() != net.size() || cap.size() != net.size())
    throw std::invalid_argument("compute_power: per-node vector size mismatch");
  r.breakdown = {};
  r.total_cap_f = r.weighted_activity = 0.0;
  r.node_switching_w.assign(net.size(), 0.0);
  r.node_power_w.assign(net.size(), 0.0);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (net.is_dead(id)) continue;
    const Node& n = net.node(id);
    double c = cap[id];
    r.total_cap_f += c;
    double activity_charge = c * toggles[id];  // C * N, per cycle
    r.weighted_activity += activity_charge;
    double sw = 0.5 * activity_charge * p.vdd * p.vdd * p.freq;
    double sc = p.qsc_fraction * activity_charge * p.vdd * p.vdd * p.freq;
    double lk = transistor_count(n) * p.ileak_pa_per_transistor * 1e-12 * p.vdd;
    r.node_switching_w[id] = sw;
    r.node_power_w[id] = sw + sc + lk;
    r.breakdown.switching_w += sw;
    r.breakdown.short_circuit_w += sc;
    r.breakdown.leakage_w += lk;
  }
}

}  // namespace lps::power
