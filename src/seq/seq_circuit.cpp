#include "seq/seq_circuit.hpp"

#include <stdexcept>

#include "sim/compiled.hpp"

namespace lps::seq {

Netlist registered(const Netlist& comb, int extra_output_ranks) {
  if (!comb.dffs().empty())
    throw std::invalid_argument("registered: expects a combinational input");
  Netlist n(comb.name() + "_reg");
  std::vector<NodeId> map(comb.size(), kNoNode);
  for (NodeId pi : comb.inputs()) {
    NodeId x = n.add_input(comb.node(pi).name);
    map[pi] = n.add_dff(x, false, comb.node(pi).name + "_r");
  }
  for (NodeId id : comb.topo_order()) {
    const Node& nd = comb.node(id);
    if (nd.type == GateType::Input) continue;
    if (nd.type == GateType::Const0) {
      map[id] = n.add_const(false);
      continue;
    }
    if (nd.type == GateType::Const1) {
      map[id] = n.add_const(true);
      continue;
    }
    std::vector<NodeId> fi;
    for (NodeId f : nd.fanins) fi.push_back(map[f]);
    map[id] = n.add_gate(nd.type, std::move(fi), nd.name);
    n.node(map[id]).delay = nd.delay;
    n.node(map[id]).size = nd.size;
  }
  // Output registers reset to the settled all-zero response so the wrapped
  // circuit's trace is well-defined from cycle 0 (and comparable with the
  // precomputation architecture, which uses the same convention).
  sim::Frame frame;
  sim::CompiledSim(comb).eval_into(
      frame, std::vector<std::uint64_t>(comb.inputs().size(), 0));
  const auto& outs = comb.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    NodeId q = map[outs[i]];
    bool init = (frame[outs[i]] & 1ULL) != 0;
    for (int r = 0; r <= extra_output_ranks; ++r)
      q = n.add_dff(q, init,
                    comb.output_names()[i] + "_r" + std::to_string(r));
    n.add_output(q, comb.output_names()[i]);
  }
  return n;
}

Netlist register_file(int words, int width) {
  int abits = 1;
  while ((1 << abits) < words) ++abits;
  Netlist n("regfile");
  std::vector<NodeId> addr, wdata;
  for (int b = 0; b < abits; ++b)
    addr.push_back(n.add_input("addr" + std::to_string(b)));
  for (int b = 0; b < width; ++b)
    wdata.push_back(n.add_input("wdata" + std::to_string(b)));
  NodeId wen = n.add_input("wen");

  std::vector<NodeId> addr_bar;
  for (NodeId a : addr) addr_bar.push_back(n.add_not(a));

  std::vector<std::vector<NodeId>> bank(words);
  for (int wix = 0; wix < words; ++wix) {
    // Address decode for this word.
    std::vector<NodeId> lits;
    for (int b = 0; b < abits; ++b)
      lits.push_back((wix >> b & 1) ? addr[b] : addr_bar[b]);
    lits.push_back(wen);
    NodeId sel = n.add_gate(GateType::And, lits);
    for (int b = 0; b < width; ++b) {
      std::string nm = "w" + std::to_string(wix) + "b" + std::to_string(b);
      // Recirculating hold: D = mux(sel, Q, wdata).
      NodeId placeholder = n.add_const(false);
      NodeId q = n.add_dff(placeholder, false, nm);
      n.replace_fanin(q, 0, n.add_mux(sel, q, wdata[b]));
      bank[wix].push_back(q);
    }
  }
  // Read port: mux tree over words by address.
  for (int b = 0; b < width; ++b) {
    std::vector<NodeId> level;
    for (int wix = 0; wix < words; ++wix) level.push_back(bank[wix][b]);
    int bit = 0;
    while (level.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2)
        next.push_back(n.add_mux(addr[bit], level[i], level[i + 1]));
      if (level.size() % 2) next.push_back(level.back());
      level = std::move(next);
      ++bit;
    }
    n.add_output(level[0], "rdata" + std::to_string(b));
  }
  return n;
}

}  // namespace lps::seq
