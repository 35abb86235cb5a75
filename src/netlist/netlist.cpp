#include "netlist/netlist.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>

#include "core/diag.hpp"
#include "netlist/hasher.hpp"
#include "netlist/timer.hpp"
#include "netlist/validate.hpp"

namespace lps {

std::string_view to_string(GateType t) {
  switch (t) {
    case GateType::Input: return "INPUT";
    case GateType::Const0: return "CONST0";
    case GateType::Const1: return "CONST1";
    case GateType::Buf: return "BUF";
    case GateType::Not: return "NOT";
    case GateType::And: return "AND";
    case GateType::Or: return "OR";
    case GateType::Nand: return "NAND";
    case GateType::Nor: return "NOR";
    case GateType::Xor: return "XOR";
    case GateType::Xnor: return "XNOR";
    case GateType::Mux: return "MUX";
    case GateType::Dff: return "DFF";
  }
  return "?";
}

std::uint64_t eval_gate(GateType t, std::span<const std::uint64_t> w) {
  switch (t) {
    case GateType::Const0: return 0;
    case GateType::Const1: return ~0ULL;
    case GateType::Input:
    case GateType::Buf:
    case GateType::Dff:
      return w[0];
    case GateType::Not: return ~w[0];
    case GateType::And: {
      std::uint64_t r = ~0ULL;
      for (auto x : w) r &= x;
      return r;
    }
    case GateType::Or: {
      std::uint64_t r = 0;
      for (auto x : w) r |= x;
      return r;
    }
    case GateType::Nand: {
      std::uint64_t r = ~0ULL;
      for (auto x : w) r &= x;
      return ~r;
    }
    case GateType::Nor: {
      std::uint64_t r = 0;
      for (auto x : w) r |= x;
      return ~r;
    }
    case GateType::Xor: {
      std::uint64_t r = 0;
      for (auto x : w) r ^= x;
      return r;
    }
    case GateType::Xnor: {
      std::uint64_t r = 0;
      for (auto x : w) r ^= x;
      return ~r;
    }
    case GateType::Mux:
      return (~w[0] & w[1]) | (w[0] & w[2]);
  }
  return 0;
}

std::size_t gate_min_arity(GateType t) {
  switch (t) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
      return 0;
    case GateType::Buf:
    case GateType::Not:
    case GateType::Dff:
      return 1;
    case GateType::Mux:
      return 3;
    default:
      return 2;
  }
}

std::size_t gate_max_arity(GateType t) {
  switch (t) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
      return 0;
    case GateType::Buf:
    case GateType::Not:
      return 1;
    case GateType::Dff:
      return 2;  // optional enable pin
    case GateType::Mux:
      return 3;
    default:
      return SIZE_MAX;
  }
}

Netlist::Netlist(const Netlist& o)
    : name_(o.name_),
      nodes_(o.nodes_),
      inputs_(o.inputs_),
      outputs_(o.outputs_),
      output_names_(o.output_names_) {}

Netlist& Netlist::operator=(const Netlist& o) {
  if (this == &o) return *this;
  touch_all();
  name_ = o.name_;
  nodes_ = o.nodes_;
  inputs_ = o.inputs_;
  outputs_ = o.outputs_;
  output_names_ = o.output_names_;
  return *this;  // an active journal survives the wholesale replacement
}

Netlist& Netlist::operator=(Netlist&& o) {
  if (this == &o) return *this;
  touch_all();
  name_ = std::move(o.name_);
  nodes_ = std::move(o.nodes_);
  inputs_ = std::move(o.inputs_);
  outputs_ = std::move(o.outputs_);
  output_names_ = std::move(o.output_names_);
  return *this;
}

void Netlist::begin_undo() {
  auto log = std::make_unique<UndoLog>();
  log->base_nodes = nodes_.size();
  log->dirty.assign(nodes_.size(), 0);
  undo_.push_back(std::move(log));
}

void Netlist::commit_undo() {
  if (undo_.empty()) return;
  if (undo_.size() == 1) {
    undo_.clear();
    return;
  }
  // Merge the inner epoch into its parent.  Every inner pre-image was taken
  // at or after the parent's begin_undo(), so the parent keeps whichever
  // image is *older*: its own entry wins, an inner entry fills a gap.
  std::unique_ptr<UndoLog> inner_p = std::move(undo_.back());
  undo_.pop_back();
  UndoLog& inner = *inner_p;
  UndoLog& outer = *undo_.back();
  if (outer.full_saved) return;  // parent already rewinds past the inner epoch
  if (inner.full_saved) {
    // The inner wholesale image post-dates the parent's incremental entries;
    // rollback applies it first, then overrides with the older node/io
    // images — same ordering contract as a touch_all() inside one epoch.
    outer.full_saved = true;
    outer.full_nodes = std::move(inner.full_nodes);
    outer.full_inputs = std::move(inner.full_inputs);
    outer.full_outputs = std::move(inner.full_outputs);
    outer.full_output_names = std::move(inner.full_output_names);
    outer.full_name = std::move(inner.full_name);
  }
  // Inner node images are appended *after* the parent's: reverse replay in
  // rollback_undo applies them first, so the parent's older images override.
  for (auto& [id, img] : inner.node_images) {
    if (id >= outer.base_nodes) continue;  // parent truncates it anyway
    if (outer.dirty[id]) continue;         // parent holds an older image
    outer.dirty[id] = 1;
    outer.node_images.emplace_back(id, std::move(img));
  }
  if (inner.io_saved && !outer.io_saved) {
    outer.io_saved = true;
    outer.inputs = std::move(inner.inputs);
    outer.outputs = std::move(inner.outputs);
    outer.output_names = std::move(inner.output_names);
    outer.name = std::move(inner.name);
  }
}

void Netlist::rollback_undo() {
  LPS_CHECK(!undo_.empty(), "rollback_undo: no active undo log");
  rewind(*undo_.back(), /*consume=*/true);
  undo_.pop_back();
  ++undo_rollbacks_;
}

void Netlist::rewind(UndoLog& u, bool consume) {
  auto take = [consume](auto& v) { return consume ? std::move(v) : v; };
  // Restore order matters: a wholesale pre-image rewinds to the point it
  // was taken; node/io images (recorded before it) then rewind the earlier
  // incremental edits; finally nodes created after begin_undo are dropped.
  if (u.full_saved) {
    nodes_ = take(u.full_nodes);
    inputs_ = take(u.full_inputs);
    outputs_ = take(u.full_outputs);
    output_names_ = take(u.full_output_names);
    name_ = take(u.full_name);
  }
  for (auto it = u.node_images.rbegin(); it != u.node_images.rend(); ++it)
    nodes_[it->first] = take(it->second);
  if (u.io_saved) {
    inputs_ = take(u.inputs);
    outputs_ = take(u.outputs);
    output_names_ = take(u.output_names);
    name_ = take(u.name);
  }
  if (nodes_.size() > u.base_nodes) nodes_.resize(u.base_nodes);
}

Netlist::UndoFrame Netlist::commit_undo_frame() {
  LPS_CHECK(undo_.size() == 1, "commit_undo_frame: outermost epoch expected");
  UndoFrame f = std::move(undo_.back());
  undo_.clear();
  std::vector<char>().swap(f->dirty);  // only journaling reads it
  return f;
}

void Netlist::restore_frame(const UndoFrame& f) {
  LPS_CHECK(!undo_.empty(), "restore_frame: no active undo log");
  LPS_CHECK(f->full_saved || nodes_.size() >= f->base_nodes,
            "restore_frame: a later frame still stands");
  // Journal everything the rewind overwrites into the active epoch.
  if (f->full_saved || nodes_.size() > f->base_nodes) {
    touch_all();
  } else {
    for (const auto& [id, img] : f->node_images) touch_node(id);
    if (f->io_saved) touch_io();
  }
  rewind(*f, /*consume=*/false);
}

std::size_t Netlist::UndoLog::bytes() const {
  std::size_t b = sizeof(UndoLog);
  auto add = [&b](const Node& n) {
    b += sizeof(Node) + (n.fanins.size() + n.fanouts.size()) * sizeof(NodeId);
  };
  for (const auto& [id, img] : node_images) add(img);
  for (const Node& n : full_nodes) add(n);
  return b;
}

void Netlist::touch_io() {
  if (undo_.empty()) return;
  UndoLog& u = *undo_.back();
  if (u.full_saved || u.io_saved) return;
  u.io_saved = true;
  u.inputs = inputs_;
  u.outputs = outputs_;
  u.output_names = output_names_;
  u.name = name_;
}

void Netlist::touch_all() {
  if (undo_.empty()) return;
  UndoLog& u = *undo_.back();
  if (u.full_saved) return;
  u.full_saved = true;
  u.full_nodes = nodes_;
  u.full_inputs = inputs_;
  u.full_outputs = outputs_;
  u.full_output_names = output_names_;
  u.full_name = name_;
}

NodeId Netlist::add_input(std::string name) {
  touch_io();
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.type = GateType::Input;
  n.name = std::move(name);
  n.delay = 0;
  nodes_.push_back(std::move(n));
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_const(bool value) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.type = value ? GateType::Const1 : GateType::Const0;
  n.delay = 0;
  nodes_.push_back(std::move(n));
  return id;
}

NodeId Netlist::add_gate(GateType t, std::vector<NodeId> fanins,
                         std::string name) {
  if (fanins.size() < gate_min_arity(t) || fanins.size() > gate_max_arity(t))
    throw std::invalid_argument("add_gate: bad arity for " +
                                std::string(to_string(t)));
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.type = t;
  n.fanins = std::move(fanins);
  n.name = std::move(name);
  n.delay = (t == GateType::Buf) ? 1 : 1;
  nodes_.push_back(std::move(n));
  for (NodeId f : nodes_[id].fanins) link_fanin(id, f);
  return id;
}

NodeId Netlist::add_dff(NodeId d, bool init, std::string name) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.type = GateType::Dff;
  n.fanins = {d};
  n.name = std::move(name);
  n.init_value = init;
  n.delay = 0;
  nodes_.push_back(std::move(n));
  link_fanin(id, d);
  return id;
}

void Netlist::set_dff_enable(NodeId dff, NodeId enable) {
  touch_node(dff);
  Node& n = nodes_[dff];
  if (n.type != GateType::Dff || n.fanins.size() != 1)
    throw std::invalid_argument("set_dff_enable: plain Dff expected");
  n.fanins.push_back(enable);
  link_fanin(dff, enable);
}

void Netlist::add_output(NodeId n, std::string name) {
  touch_io();
  outputs_.push_back(n);
  if (name.empty()) {
    name = nodes_[n].name.empty() ? ("po" + std::to_string(outputs_.size() - 1))
                                  : nodes_[n].name;
  }
  output_names_.push_back(std::move(name));
}

std::vector<NodeId> Netlist::dffs() const {
  std::vector<NodeId> r;
  for (NodeId i = 0; i < nodes_.size(); ++i)
    if (!nodes_[i].dead && nodes_[i].type == GateType::Dff) r.push_back(i);
  return r;
}

std::size_t Netlist::num_live() const {
  std::size_t c = 0;
  for (const auto& n : nodes_)
    if (!n.dead) ++c;
  return c;
}

std::size_t Netlist::num_gates() const {
  std::size_t c = 0;
  for (const auto& n : nodes_)
    if (!n.dead && !is_source(n.type) && n.type != GateType::Dff) ++c;
  return c;
}

std::size_t Netlist::num_literals() const {
  std::size_t c = 0;
  for (const auto& n : nodes_)
    if (!n.dead && !is_source(n.type) && n.type != GateType::Dff)
      c += n.fanins.size();
  return c;
}

std::optional<NodeId> Netlist::find(std::string_view name) const {
  for (NodeId i = 0; i < nodes_.size(); ++i)
    if (!nodes_[i].dead && nodes_[i].name == name) return i;
  return std::nullopt;
}

void Netlist::link_fanin(NodeId user, NodeId used) {
  touch_node(used);
  nodes_[used].fanouts.push_back(user);
}

void Netlist::unlink_fanin(NodeId user, NodeId used) {
  touch_node(used);
  auto& fo = nodes_[used].fanouts;
  auto it = std::find(fo.begin(), fo.end(), user);
  LPS_CHECK(it != fo.end(), "unlink_fanin: node " + std::to_string(used) +
                                " has no fanout entry for user " +
                                std::to_string(user));
  fo.erase(it);  // removes one occurrence only (multi-edges are legal)
}

void Netlist::substitute(NodeId old_node, NodeId new_node) {
  LPS_CHECK(old_node != new_node,
            "substitute: node " + std::to_string(old_node) + " with itself");
  touch_io();  // POs may be redirected below
  // Redirect fanins of every user.  Copy the fanout list since we mutate it.
  std::vector<NodeId> users = nodes_[old_node].fanouts;
  for (NodeId u : users) {
    touch_node(u);
    auto& f = nodes_[u].fanins;
    for (std::size_t k = 0; k < f.size(); ++k) {
      if (f[k] == old_node) {
        f[k] = new_node;
        unlink_fanin(u, old_node);
        link_fanin(u, new_node);
      }
    }
  }
  for (std::size_t i = 0; i < outputs_.size(); ++i)
    if (outputs_[i] == old_node) outputs_[i] = new_node;
  remove(old_node);
}

void Netlist::replace_fanin(NodeId n, std::size_t k, NodeId nf) {
  NodeId old = nodes_[n].fanins.at(k);
  if (old == nf) return;
  touch_node(n);
  nodes_[n].fanins[k] = nf;
  unlink_fanin(n, old);
  link_fanin(n, nf);
}

void Netlist::remove(NodeId n) {
  LPS_CHECK(!nodes_[n].dead,
            "remove: node " + std::to_string(n) + " already removed");
  LPS_CHECK(nodes_[n].fanouts.empty(),
            "remove: node " + std::to_string(n) + " still has " +
                std::to_string(nodes_[n].fanouts.size()) + " fanouts");
  touch_node(n);
  for (NodeId f : nodes_[n].fanins) unlink_fanin(n, f);
  nodes_[n].fanins.clear();
  nodes_[n].dead = true;
  if (nodes_[n].type == GateType::Input) {
    touch_io();
    auto it = std::find(inputs_.begin(), inputs_.end(), n);
    if (it != inputs_.end()) inputs_.erase(it);
  }
}

std::size_t Netlist::sweep() {
  // Mark everything reachable backwards from POs and Dff D-inputs.
  std::vector<bool> live(nodes_.size(), false);
  std::vector<NodeId> stack;
  auto push = [&](NodeId n) {
    if (!live[n] && !nodes_[n].dead) {
      live[n] = true;
      stack.push_back(n);
    }
  };
  for (NodeId o : outputs_) push(o);
  for (NodeId i = 0; i < nodes_.size(); ++i)
    if (!nodes_[i].dead && nodes_[i].type == GateType::Dff) push(i);
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    for (NodeId f : nodes_[n].fanins) push(f);
  }
  // Remove the unmarked gates in one pass: a gate goes once its last fanout
  // has gone, so the removal of its last user pushes it onto the worklist.
  auto removable = [&](NodeId n) {
    const Node& nd = nodes_[n];
    return !nd.dead && !live[n] && nd.type != GateType::Input &&
           nd.fanouts.empty();
  };
  for (NodeId i = 0; i < nodes_.size(); ++i)
    if (removable(i)) stack.push_back(i);
  std::size_t removed = 0;
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (!removable(n)) continue;  // a fanin with users left, or a repeat
    stack.insert(stack.end(), nodes_[n].fanins.begin(), nodes_[n].fanins.end());
    remove(n);
    ++removed;
  }
  return removed;
}

std::vector<NodeId> Netlist::compact() {
  touch_all();  // renumbering invalidates per-node journal entries
  std::vector<NodeId> remap(nodes_.size(), kNoNode);
  std::vector<Node> fresh;
  fresh.reserve(num_live());
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].dead) continue;
    remap[i] = static_cast<NodeId>(fresh.size());
    fresh.push_back(std::move(nodes_[i]));
  }
  for (auto& n : fresh) {
    for (auto& f : n.fanins) f = remap[f];
    for (auto& f : n.fanouts) f = remap[f];
  }
  for (auto& i : inputs_) i = remap[i];
  for (auto& o : outputs_) o = remap[o];
  nodes_ = std::move(fresh);
  return remap;
}

std::vector<NodeId> Netlist::topo_order() const {
  std::vector<NodeId> order;
  order.reserve(num_live());
  std::vector<std::uint8_t> state(nodes_.size(), 0);  // 0=unseen 1=open 2=done
  std::vector<NodeId> stack;
  for (NodeId root = 0; root < nodes_.size(); ++root) {
    if (nodes_[root].dead || state[root] == 2) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      NodeId n = stack.back();
      if (state[n] == 2) {
        stack.pop_back();
        continue;
      }
      if (state[n] == 1) {
        state[n] = 2;
        order.push_back(n);
        stack.pop_back();
        continue;
      }
      state[n] = 1;
      // Dff is a sequential source; its D-fanin is not a combinational dep.
      if (nodes_[n].type != GateType::Dff) {
        for (NodeId f : nodes_[n].fanins) {
          if (state[f] == 0) stack.push_back(f);
        }
      }
    }
  }
  return order;
}

std::vector<int> Netlist::arrival_times() const {
  return Timer(*this, [this](NodeId n) { return nodes_[n].delay; }).arrivals();
}

int Netlist::critical_delay() const {
  return Timer(*this, [this](NodeId n) { return nodes_[n].delay; }).critical();
}

std::vector<bool> Netlist::cone_of(std::span<const NodeId> roots) const {
  std::vector<bool> mask(nodes_.size(), false);
  std::vector<NodeId> stack;
  for (NodeId r : roots) {
    if (!mask[r]) {
      mask[r] = true;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (nodes_[n].type == GateType::Dff) continue;
    for (NodeId f : nodes_[n].fanins) {
      if (!mask[f]) {
        mask[f] = true;
        stack.push_back(f);
      }
    }
  }
  return mask;
}

std::vector<bool> Netlist::fanout_cone_of(std::span<const NodeId> roots,
                                          bool through_dffs) const {
  std::vector<bool> mask(nodes_.size(), false);
  std::vector<NodeId> stack;
  for (NodeId r : roots) {
    if (!mask[r]) {
      mask[r] = true;
      stack.push_back(r);
    }
  }
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    // A register reached through a pin marks a cycle boundary: its Q only
    // changes one clock later.  Roots that ARE registers always expand —
    // the change is at their output already.
    if (!through_dffs && nodes_[n].type == GateType::Dff) {
      bool is_root = false;
      for (NodeId r : roots)
        if (r == n) {
          is_root = true;
          break;
        }
      if (!is_root) continue;
    }
    for (NodeId fo : nodes_[n].fanouts) {
      if (!mask[fo]) {
        mask[fo] = true;
        stack.push_back(fo);
      }
    }
  }
  return mask;
}

Netlist::TouchedNodes Netlist::touched_nodes() const {
  TouchedNodes t;
  if (undo_.empty() || undo_.back()->full_saved) {
    t.all = true;
    return t;
  }
  const UndoLog& u = *undo_.back();
  // A PI-list change re-maps input positions to nodes, so every simulated
  // value is suspect; PO/name-only changes are harmless to node values.
  if (u.io_saved && u.inputs != inputs_) {
    t.all = true;
    return t;
  }
  t.ids.reserve(u.node_images.size() + (nodes_.size() - u.base_nodes));
  // Journaled pre-images: every touched node is reported, but only those
  // whose value-determining fields actually differ from the pre-image seed
  // a re-simulation cone.  Fanout-list, size, delay and name edits leave
  // the node's simulated words unchanged (capacitance is recomputed from
  // the live netlist on every estimate, so they still affect power).
  std::vector<NodeId> roots;
  for (const auto& [id, img] : u.node_images) {
    t.ids.push_back(id);
    const Node& cur = nodes_[id];
    if (img.type != cur.type || img.fanins != cur.fanins ||
        img.init_value != cur.init_value || img.dead != cur.dead)
      roots.push_back(id);
    else if (img.size != cur.size || img.delay != cur.delay)
      t.param_roots.push_back(id);
  }
  std::sort(t.ids.begin(), t.ids.end());
  std::sort(roots.begin(), roots.end());
  std::sort(t.param_roots.begin(), t.param_roots.end());
  for (NodeId n = static_cast<NodeId>(u.base_nodes); n < nodes_.size();
       ++n) {
    t.ids.push_back(n);
    roots.push_back(n);
  }
  t.value_roots = std::move(roots);
  return t;
}

std::string Netlist::check() const {
  diag::DiagEngine eng(/*max_kept=*/1);
  validate(*this, eng);
  if (eng.ok()) return {};
  return eng.diagnostics().front().message;
}

Netlist Netlist::clone() const { return *this; }

Netlist strash(const Netlist& src) {
  Netlist dst(src.name());
  std::vector<NodeId> map(src.size(), kNoNode);
  std::unordered_map<GateKey, NodeId, GateKeyHash> table;
  NodeId c0 = kNoNode, c1 = kNoNode;
  auto get_const = [&](bool v) -> NodeId {
    NodeId& c = v ? c1 : c0;
    if (c == kNoNode) c = dst.add_const(v);
    return c;
  };

  // Two passes so Dff outputs exist before combinational logic that reads
  // them; Dff D-inputs are patched afterwards.
  for (NodeId n : src.topo_order()) {
    const Node& nd = src.node(n);
    if (nd.type == GateType::Input) {
      map[n] = dst.add_input(nd.name);
      dst.node(map[n]).size = nd.size;
    } else if (nd.type == GateType::Const0) {
      map[n] = get_const(false);
    } else if (nd.type == GateType::Const1) {
      map[n] = get_const(true);
    } else if (nd.type == GateType::Dff) {
      // Temporarily wire D (and EN) to a placeholder; patched below.
      NodeId ph = get_const(false);
      map[n] = dst.add_dff(ph, nd.init_value, nd.name);
      if (nd.fanins.size() == 2) dst.set_dff_enable(map[n], ph);
    }
  }
  for (NodeId n : src.topo_order()) {
    const Node& nd = src.node(n);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    std::vector<NodeId> fi;
    fi.reserve(nd.fanins.size());
    for (NodeId f : nd.fanins) fi.push_back(map[f]);

    // Constant folding and single-input simplification.
    GateType t = nd.type;
    auto is_c = [&](NodeId x, bool v) { return x == (v ? c1 : c0); };
    if (t == GateType::Buf) {
      map[n] = fi[0];
      continue;
    }
    if (t == GateType::Not) {
      if (is_c(fi[0], false)) {
        map[n] = get_const(true);
        continue;
      }
      if (is_c(fi[0], true)) {
        map[n] = get_const(false);
        continue;
      }
    }
    if (t == GateType::And || t == GateType::Or || t == GateType::Nand ||
        t == GateType::Nor) {
      bool absorbing = (t == GateType::And || t == GateType::Nand) ? false
                                                                   : true;
      bool identity = !absorbing;
      bool hit_absorbing = false;
      std::vector<NodeId> keep;
      for (NodeId x : fi) {
        if (is_c(x, absorbing)) {
          hit_absorbing = true;
          break;
        }
        if (is_c(x, identity)) continue;
        keep.push_back(x);
      }
      bool invert = (t == GateType::Nand || t == GateType::Nor);
      if (hit_absorbing) {
        map[n] = get_const(absorbing != invert);
        continue;
      }
      if (keep.empty()) {
        map[n] = get_const(identity != invert);
        continue;
      }
      if (keep.size() == 1) {
        if (!invert) {
          map[n] = keep[0];
        } else {
          GateKey key{GateType::Not, keep};
          auto it = table.find(key);
          map[n] = (it != table.end())
                       ? it->second
                       : (table[key] = dst.add_gate(GateType::Not, keep));
        }
        continue;
      }
      fi = std::move(keep);
    }

    if (is_commutative(t)) std::sort(fi.begin(), fi.end());
    GateKey key{t, fi};
    auto it = table.find(key);
    if (it != table.end()) {
      map[n] = it->second;
    } else {
      NodeId g = dst.add_gate(t, fi);
      dst.node(g).size = nd.size;
      dst.node(g).delay = nd.delay;
      table.emplace(std::move(key), g);
      map[n] = g;
    }
  }
  // Patch Dff D (and EN) inputs.
  for (NodeId n = 0; n < src.size(); ++n) {
    if (src.is_dead(n) || src.node(n).type != GateType::Dff) continue;
    for (std::size_t k = 0; k < src.node(n).fanins.size(); ++k)
      dst.replace_fanin(map[n], k, map[src.node(n).fanins[k]]);
  }
  const auto& outs = src.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i)
    dst.add_output(map[outs[i]], src.output_names()[i]);
  dst.sweep();
  return dst;
}

std::uint64_t structural_hash(const Netlist& n) {
  return StructuralHasher(n).value();
}

std::ostream& operator<<(std::ostream& os, const Netlist& n) {
  os << "# netlist " << n.name() << ": " << n.inputs().size() << " PI, "
     << n.outputs().size() << " PO, " << n.num_gates() << " gates, "
     << n.dffs().size() << " FF\n";
  for (NodeId i = 0; i < n.size(); ++i) {
    if (n.is_dead(i)) continue;
    const Node& nd = n.node(i);
    os << i << ": " << to_string(nd.type);
    if (!nd.name.empty()) os << " \"" << nd.name << '"';
    if (!nd.fanins.empty()) {
      os << " <-";
      for (NodeId f : nd.fanins) os << ' ' << f;
    }
    os << '\n';
  }
  return os;
}

}  // namespace lps
