// blif_reference.hpp — the BLIF writer as it ran before the writer built
// its name index, kept as the differential reference for blif::write.
//
// The reference resolves every reference to an unnamed node through
// Netlist::find, a linear scan over the node array, so a write costs
// O(nodes x references).  The production writer looks names up in an
// index built once per write and must emit byte-identical text.

#pragma once

#include <bit>
#include <ostream>
#include <sstream>
#include <string>

#include "netlist/netlist.hpp"

namespace lps::reference {

namespace detail {

inline std::string node_ref(const Netlist& n, NodeId id) {
  const Node& nd = n.node(id);
  if (!nd.name.empty()) return nd.name;
  // Generated fallback names must not collide with an *explicit* name of a
  // different node, or the emitted file redefines that signal and fails to
  // re-parse (write -> parse -> write round trips hit this whenever a parse
  // assigned "n<k>" names and a later edit renumbered the nodes).
  std::string ref = "n" + std::to_string(id);
  while (true) {
    auto other = n.find(ref);
    if (!other || *other == id) return ref;
    ref += "_";
  }
}

}  // namespace detail

/// blif::write as it ran with the linear-scan name lookup.
inline void blif_write(std::ostream& os, const Netlist& n) {
  using detail::node_ref;
  os << ".model " << (n.name().empty() ? "lps" : n.name()) << "\n.inputs";
  for (NodeId i : n.inputs()) os << ' ' << node_ref(n, i);
  os << "\n.outputs";
  for (const auto& name : n.output_names()) os << ' ' << name;
  os << '\n';
  for (NodeId d : n.dffs()) {
    const Node& nd = n.node(d);
    std::string din = node_ref(n, nd.fanins[0]);
    if (nd.fanins.size() == 2) {
      // Load-enabled register: emit the hold mux explicitly, since BLIF
      // latches have no enable pin.  next = EN ? D : Q.
      std::string mux = node_ref(n, d) + "_le";
      os << ".names " << node_ref(n, nd.fanins[1]) << ' ' << din << ' '
         << node_ref(n, d) << ' ' << mux << "\n11- 1\n0-1 1\n";
      din = mux;
    }
    os << ".latch " << din << ' ' << node_ref(n, d) << ' '
       << (nd.init_value ? 1 : 0) << '\n';
  }

  for (NodeId id : n.topo_order()) {
    const Node& nd = n.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    os << ".names";
    for (NodeId f : nd.fanins) os << ' ' << node_ref(n, f);
    os << ' ' << node_ref(n, id) << '\n';
    std::size_t k = nd.fanins.size();
    switch (nd.type) {
      case GateType::Buf:
        os << "1 1\n";
        break;
      case GateType::Not:
        os << "0 1\n";
        break;
      case GateType::And:
        os << std::string(k, '1') << " 1\n";
        break;
      case GateType::Nand:
        for (std::size_t i = 0; i < k; ++i) {
          std::string row(k, '-');
          row[i] = '0';
          os << row << " 1\n";
        }
        break;
      case GateType::Or:
        for (std::size_t i = 0; i < k; ++i) {
          std::string row(k, '-');
          row[i] = '1';
          os << row << " 1\n";
        }
        break;
      case GateType::Nor:
        os << std::string(k, '0') << " 1\n";
        break;
      case GateType::Xor:
      case GateType::Xnor: {
        // Enumerate minterms with the right parity (fanin counts are small).
        bool want_odd = nd.type == GateType::Xor;
        for (std::size_t m = 0; m < (1ull << k); ++m) {
          bool odd = (std::popcount(m) % 2) == 1;
          if (odd != want_odd) continue;
          std::string row(k, '0');
          for (std::size_t b = 0; b < k; ++b)
            if (m >> b & 1) row[b] = '1';
          os << row << " 1\n";
        }
        break;
      }
      case GateType::Mux:
        os << "01- 1\n"
           << "1-1 1\n";
        break;
      default:
        break;
    }
  }
  // Constants referenced by outputs or as latch inputs.
  for (NodeId id : n.topo_order()) {
    const Node& nd = n.node(id);
    if (nd.type == GateType::Const1)
      os << ".names " << node_ref(n, id) << "\n1\n";
    else if (nd.type == GateType::Const0)
      os << ".names " << node_ref(n, id) << "\n";
  }
  // Outputs that alias internal signals with a different name.
  const auto& outs = n.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (n.output_names()[i] != node_ref(n, outs[i]))
      os << ".names " << node_ref(n, outs[i]) << ' ' << n.output_names()[i]
         << "\n1 1\n";
  }
  os << ".end\n";
}

inline std::string blif_write_string(const Netlist& n) {
  std::ostringstream os;
  blif_write(os, n);
  return os.str();
}

}  // namespace lps::reference
