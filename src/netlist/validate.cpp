#include "netlist/validate.hpp"

#include <algorithm>
#include <unordered_map>

namespace lps {

namespace {

std::string node_desc(const Netlist& net, NodeId n) {
  std::string s = std::to_string(n);
  if (n < net.size()) {
    const Node& nd = net.node(n);
    s += " (";
    s += to_string(nd.type);
    if (!nd.name.empty()) {
      s += ' ';
      s += nd.name;
    }
    s += ')';
  }
  return s;
}

// Find one combinational cycle and return it as "a -> b -> ... -> a".
// Precondition: the network has a cycle (topo order came up short).
std::string find_cycle(const Netlist& net) {
  const std::size_t n = net.size();
  std::vector<std::uint8_t> state(n, 0);  // 0=unseen 1=open 2=done
  std::vector<NodeId> path;               // current DFS chain
  for (NodeId root = 0; root < n; ++root) {
    if (net.is_dead(root) || state[root] != 0) continue;
    // Iterative DFS keeping the open path so the cycle can be extracted.
    std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next == 0) {
        state[v] = 1;
        path.push_back(v);
      }
      const Node& nd = net.node(v);
      bool descended = false;
      // Dff D-inputs close sequential loops legally; skip them.
      if (nd.type != GateType::Dff) {
        while (next < nd.fanins.size()) {
          NodeId f = nd.fanins[next++];
          if (f >= n || net.is_dead(f)) continue;  // reported elsewhere
          if (state[f] == 1) {
            // Cycle: path from f to v, then back to f.
            auto it = std::find(path.begin(), path.end(), f);
            std::string s;
            for (; it != path.end(); ++it) {
              s += node_desc(net, *it);
              s += " -> ";
            }
            s += std::to_string(f);
            return s;
          }
          if (state[f] == 0) {
            stack.push_back({f, 0});
            descended = true;
            break;
          }
        }
      }
      if (!descended) {
        state[v] = 2;
        path.pop_back();
        stack.pop_back();
      }
    }
  }
  return "(cycle nodes not recovered)";
}

// Primary outputs: in range, alive, names unique.
void check_outputs(const Netlist& net, diag::DiagEngine& eng) {
  const std::size_t n = net.size();
  auto err = [&](std::string msg) { eng.error(std::move(msg)); };
  const auto& outs = net.outputs();
  const auto& names = net.output_names();
  if (outs.size() != names.size())
    err("outputs/output_names size mismatch: " + std::to_string(outs.size()) +
        " vs " + std::to_string(names.size()));
  std::unordered_map<std::string, std::size_t> seen;
  for (std::size_t k = 0; k < outs.size() && !eng.saturated(); ++k) {
    NodeId o = outs[k];
    if (o >= n)
      err("primary output " + std::to_string(k) + " node id " +
          std::to_string(o) + " out of range");
    else if (net.node(o).dead)
      err("primary output " + (k < names.size() ? names[k] : "?") +
          " driven by dead node " + node_desc(net, o));
    if (k < names.size()) {
      auto [it, fresh] = seen.emplace(names[k], k);
      if (!fresh)
        err("duplicate primary output name \"" + names[k] + "\" (slots " +
            std::to_string(it->second) + " and " + std::to_string(k) + ")");
    }
  }
}

}  // namespace

std::size_t validate(const Netlist& net, diag::DiagEngine& eng) {
  std::size_t errors_before = eng.num_errors();
  const std::size_t n = net.size();
  auto err = [&](std::string msg) { eng.error(std::move(msg)); };

  bool refs_ok = true;  // gates the cycle check (needs in-range fanins)
  for (NodeId i = 0; i < n && !eng.saturated(); ++i) {
    const Node& nd = net.node(i);
    if (nd.dead) {
      if (!nd.fanouts.empty())
        err("dead node " + node_desc(net, i) + " still has " +
            std::to_string(nd.fanouts.size()) + " fanout entries");
      if (!nd.fanins.empty())
        err("dead node " + node_desc(net, i) + " still has fanins");
      continue;
    }
    if (nd.fanins.size() < gate_min_arity(nd.type) ||
        nd.fanins.size() > gate_max_arity(nd.type))
      err("node " + node_desc(net, i) + " arity violation: " +
          std::to_string(nd.fanins.size()) + " fanins, legal range [" +
          std::to_string(gate_min_arity(nd.type)) + ", " +
          (gate_max_arity(nd.type) == SIZE_MAX
               ? std::string("inf")
               : std::to_string(gate_max_arity(nd.type))) +
          "]");
    // Fanin side: in range, alive, and mirrored by the fanout list.
    for (NodeId f : nd.fanins) {
      if (f >= n) {
        err("node " + node_desc(net, i) + " fanin " + std::to_string(f) +
            " out of range (network has " + std::to_string(n) + " nodes)");
        refs_ok = false;
        continue;
      }
      if (net.node(f).dead) {
        err("node " + node_desc(net, i) + " references dead fanin " +
            node_desc(net, f));
        continue;
      }
      const auto& fo = net.node(f).fanouts;
      auto uses = static_cast<std::size_t>(
          std::count(nd.fanins.begin(), nd.fanins.end(), f));
      auto mirrored =
          static_cast<std::size_t>(std::count(fo.begin(), fo.end(), i));
      if (uses != mirrored)
        err("fanin/fanout bookkeeping mismatch: node " + node_desc(net, i) +
            " uses " + node_desc(net, f) + " " + std::to_string(uses) +
            "x but appears " + std::to_string(mirrored) +
            "x in its fanout list");
    }
    // Fanout side: every entry must be a live user that lists i as a fanin
    // (catches stale fanout entries the fanin-side pass never visits).
    for (NodeId u : nd.fanouts) {
      if (u >= n) {
        err("node " + node_desc(net, i) + " fanout entry " +
            std::to_string(u) + " out of range");
        continue;
      }
      const Node& un = net.node(u);
      if (un.dead) {
        err("node " + node_desc(net, i) + " has stale fanout entry to dead " +
            "node " + node_desc(net, u));
        continue;
      }
      if (std::find(un.fanins.begin(), un.fanins.end(), i) ==
          un.fanins.end())
        err("stale fanout entry: node " + node_desc(net, i) + " lists " +
            node_desc(net, u) + " as a user, but that node has no such fanin");
    }
  }

  // Primary-input list consistency.
  if (!eng.saturated()) {
    std::vector<std::size_t> listed(n, 0);
    for (NodeId i : net.inputs()) {
      if (i >= n) {
        err("inputs list entry " + std::to_string(i) + " out of range");
        continue;
      }
      ++listed[i];
      if (net.node(i).dead)
        err("inputs list references dead node " + node_desc(net, i));
      else if (net.node(i).type != GateType::Input)
        err("inputs list entry " + node_desc(net, i) + " is not an Input");
    }
    for (NodeId i = 0; i < n && !eng.saturated(); ++i) {
      if (net.is_dead(i) || net.node(i).type != GateType::Input) continue;
      if (listed[i] != 1)
        err("live Input " + node_desc(net, i) + " appears " +
            std::to_string(listed[i]) + "x in the inputs list");
    }
  }

  if (!eng.saturated()) check_outputs(net, eng);

  // Combinational acyclicity — only meaningful once references are sane.
  if (refs_ok && !eng.saturated()) {
    auto order = net.topo_order();
    if (order.size() != net.num_live()) {
      err("combinational cycle: " + find_cycle(net));
    } else {
      std::vector<int> pos(n, -1);
      for (std::size_t k = 0; k < order.size(); ++k)
        pos[order[k]] = static_cast<int>(k);
      for (NodeId v : order) {
        if (net.node(v).type == GateType::Dff) continue;
        // `>=`: a gate that reads itself is a cycle of length one.
        for (NodeId f : net.node(v).fanins)
          if (pos[f] >= pos[v]) {
            err("combinational cycle through " + node_desc(net, v) + " and " +
                node_desc(net, f));
            break;
          }
      }
    }
  }

  return eng.num_errors() - errors_before;
}

std::vector<diag::Diagnostic> validate(const Netlist& net,
                                       std::size_t max_diags) {
  diag::DiagEngine eng(max_diags);
  validate(net, eng);
  return eng.diagnostics();
}

bool validate_edit(const Netlist& net) {
  const Netlist::UndoLog* u = net.undo_log();
  if (!u || u->full_saved || (u->io_saved && u->inputs != net.inputs())) {
    diag::DiagEngine eng(1);
    return validate(net, eng) == 0;
  }
  const std::size_t n = net.size();
  // The edited nodes with their pre-images (nullptr: created this epoch).
  std::vector<std::pair<NodeId, const Node*>> edited;
  edited.reserve(u->node_images.size() + (n - u->base_nodes));
  for (const auto& [id, img] : u->node_images) edited.emplace_back(id, &img);
  for (NodeId id = static_cast<NodeId>(u->base_nodes); id < n; ++id)
    edited.emplace_back(id, nullptr);

  // Fanin/fanout bookkeeping of one (user, used) pair: the use count is
  // mirrored, and only live nodes use each other.  A pair can only break
  // when one side was edited, and then that side's old or new fanin or
  // fanout list names the other.
  auto pair_ok = [&](NodeId user, NodeId used) {
    if (user >= n || used >= n) return false;
    const Node& a = net.node(user);
    const Node& b = net.node(used);
    auto uses = std::count(a.fanins.begin(), a.fanins.end(), used);
    auto mirrored = std::count(b.fanouts.begin(), b.fanouts.end(), user);
    return uses == mirrored && (uses == 0 || (!a.dead && !b.dead));
  };
  bool any_dead = false;
  std::vector<NodeId> roots;  // fanins reached over an edge the edit added
  for (auto [id, old] : edited) {
    const Node& cur = net.node(id);
    if (cur.dead) {
      if (!cur.fanins.empty() || !cur.fanouts.empty()) return false;
      any_dead = true;
    } else if (cur.fanins.size() < gate_min_arity(cur.type) ||
               cur.fanins.size() > gate_max_arity(cur.type)) {
      return false;
    }
    // The PI list is unchanged, so a node listed there must stay a live
    // Input and no other node may become one.
    bool was_input = old && !old->dead && old->type == GateType::Input;
    if (was_input != (!cur.dead && cur.type == GateType::Input)) return false;
    for (NodeId f : cur.fanins)
      if (!pair_ok(id, f)) return false;
    for (NodeId v : cur.fanouts)
      if (!pair_ok(v, id)) return false;
    if (old) {
      for (NodeId f : old->fanins)
        if (!pair_ok(id, f)) return false;
      for (NodeId v : old->fanouts)
        if (!pair_ok(v, id)) return false;
    }
    if (cur.dead || cur.type == GateType::Dff) continue;
    bool all_new = !old || old->dead || old->type == GateType::Dff;
    for (NodeId f : cur.fanins)
      if (all_new || std::find(old->fanins.begin(), old->fanins.end(), f) ==
                         old->fanins.end())
        roots.push_back(f);
  }

  // The PO list, when it changed or a node it may name died.
  if ((u->io_saved && (u->outputs != net.outputs() ||
                       u->output_names != net.output_names())) ||
      any_dead) {
    diag::DiagEngine eng(1);
    check_outputs(net, eng);
    if (!eng.ok()) return false;
  }

  // The network was acyclic before, so a new cycle runs through an added
  // edge: search the fanin cones of those edges' fanins (Dff D/EN pins
  // close sequential loops legally and are not followed).
  std::vector<std::uint8_t> state(roots.empty() ? 0 : n, 0);  // 1 open, 2 done
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (NodeId r : roots) {
    if (state[r]) continue;
    state[r] = 1;
    stack.push_back({r, 0});
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const Node& nd = net.node(v);
      if (nd.type != GateType::Dff && next < nd.fanins.size()) {
        NodeId f = nd.fanins[next++];
        if (state[f] == 1) return false;
        if (state[f] == 0) {
          state[f] = 1;
          stack.push_back({f, 0});
        }
        continue;
      }
      state[v] = 2;
      stack.pop_back();
    }
  }
  return true;
}

}  // namespace lps
