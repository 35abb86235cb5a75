#include "netlist/hasher.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/metrics.hpp"
#include "core/parallel.hpp"

namespace lps {

namespace {

constexpr std::uint32_t kReg = 0x80000000u;  // ord_ tag of a register

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return core::mix64(h ^ v);
}

// A node's key: its hash, size and delay.
std::uint64_t key(const Node& nd, std::uint64_t h) {
  std::uint64_t x = mix(h, std::bit_cast<std::uint64_t>(nd.size));
  return mix(x, static_cast<std::uint64_t>(static_cast<std::int64_t>(nd.delay)));
}

// What fanin pin k of a node keyed `e` adds to its driver's up-sum.
std::uint64_t edge(std::uint64_t e, std::size_t k) {
  return core::mix64(e + 0x9E3779B97F4A7C15ull * (k + 1));
}

// A live node's summand: its key and its up-sum.
std::uint64_t term(std::uint64_t e, std::uint64_t up) {
  return core::mix64(e ^ core::mix64(up + 0xA5A5A5A5A5A5A5A5ull));
}

bool is_reg(const Netlist& net, NodeId n) {
  return !net.is_dead(n) && net.node(n).type == GateType::Dff;
}

}  // namespace

StructuralHasher::StructuralHasher(const Netlist& net) : net_(net) { full(); }

std::uint64_t StructuralHasher::node_hash(NodeId n) const {
  const Node& nd = net_.node(n);
  std::uint64_t x = mix(0x5EEDF00Dull, static_cast<std::uint64_t>(nd.type) + 0x100);
  x = mix(x, nd.fanins.size());
  x = mix(x, nd.init_value ? 1 : 2);
  if (nd.type == GateType::Input || nd.type == GateType::Dff)
    return mix(x, ord_[n]);
  for (NodeId f : nd.fanins) x = mix(x, h_[f]);
  return x;
}

std::uint64_t StructuralHasher::up_sum(NodeId d) {
  // One term per edge.  A user that reads d on m pins appears m times in
  // d's fanout list; it adds its m terms on its first entry.
  if (++user_stamp_ == 0) {  // wrapped: clear the stamps once
    std::fill(user_.begin(), user_.end(), 0);
    user_stamp_ = 1;
  }
  std::uint64_t s = 0;
  for (NodeId u : net_.node(d).fanouts) {
    if (user_[u] == user_stamp_) continue;
    user_[u] = user_stamp_;
    const std::vector<NodeId>& fi = net_.node(u).fanins;
    edges_ += fi.size();
    for (std::size_t k = 0; k < fi.size(); ++k)
      if (fi[k] == d) s += edge(e_[u], k);
  }
  return s;
}

void StructuralHasher::rekey(NodeId u, std::uint64_t nh) {
  const Node& nd = net_.node(u);
  const std::uint64_t ne = key(nd, nh);
  if (nh == h_[u] && ne == e_[u]) return;
  // The fanins are unchanged unless u is touched, so u feeds the same
  // drivers on the same pins: their up-sums move by a delta.  Touched
  // drivers are re-summed whole afterwards.
  edges_ += nd.fanins.size();
  for (std::size_t k = 0; k < nd.fanins.size(); ++k) {
    const NodeId d = nd.fanins[k];
    if (touched_[d] == stamp_) continue;
    dirty(d);
    up_[d] += edge(ne, k) - edge(e_[u], k);
  }
  dirty(u);
  h_[u] = nh;
  e_[u] = ne;
}

void StructuralHasher::full() {
  const Netlist& net = net_;
  const std::size_t n = net.size();
  h_.assign(n, 0);
  e_.assign(n, 0);
  up_.assign(n, 0);
  term_.assign(n, 0);
  ord_.assign(n, 0);
  seen_.assign(n, 0);
  touched_.assign(n, 0);
  dirty_.assign(n, 0);
  user_.assign(n, 0);
  for (std::size_t i = 0; i < net.inputs().size(); ++i)
    ord_[net.inputs()[i]] = static_cast<std::uint32_t>(i + 1);
  std::uint32_t rank = 0;
  for (NodeId id = 0; id < n; ++id)
    if (is_reg(net, id)) ord_[id] = kReg | ++rank;
  const std::vector<NodeId> order = net.topo_order();
  std::uint64_t edges = 0;
  for (NodeId id : order) {
    h_[id] = node_hash(id);
    e_[id] = key(net.node(id), h_[id]);
    const std::vector<NodeId>& fi = net.node(id).fanins;
    for (std::size_t k = 0; k < fi.size(); ++k) up_[fi[k]] += edge(e_[id], k);
    edges += fi.size();
  }
  sum_ = 0;
  for (NodeId id : order) sum_ += term_[id] = term(e_[id], up_[id]);
  publish(order.size(), edges);
}

void StructuralHasher::publish(std::uint64_t nodes, std::uint64_t edges) {
  rehashed_ += nodes;
  edges_read_ += edges;
  core::metrics::count("netlist.hash.nodes", static_cast<double>(nodes));
  core::metrics::count("netlist.hash.edges", static_cast<double>(edges));
}

std::uint64_t StructuralHasher::value() const {
  const std::vector<NodeId>& outs = net_.outputs();
  std::uint64_t v = mix(core::mix64(sum_), outs.size());
  for (NodeId o : outs) v = mix(v, h_[o]);
  return v;
}

void StructuralHasher::dirty(NodeId n) {
  if (dirty_[n] == stamp_) return;
  dirty_[n] = stamp_;
  undo_.push_back({n, h_[n], e_[n], up_[n], term_[n]});
}

void StructuralHasher::update(const Netlist::TouchedNodes& touched) {
  const Netlist& net = net_;
  undo_.clear();
  undo_full_ = false;
  prev_sum_ = sum_;
  prev_size_ = h_.size();

  // A full pass when nothing can be scoped, or when the register set (and
  // with it every rank) changes; only a value root can change it.
  bool scoped = !touched.all;
  for (NodeId id : touched.value_roots)
    if (scoped && is_reg(net, id) != (id < ord_.size() && (ord_[id] & kReg)))
      scoped = false;
  if (!scoped) {
    undo_full_ = true;
    std::swap(h_, prev_h_);
    std::swap(e_, prev_e_);
    std::swap(up_, prev_up_);
    std::swap(term_, prev_term_);
    std::swap(ord_, prev_ord_);
    full();
    return;
  }

  const std::size_t n = net.size();
  if (h_.size() < n) {
    for (auto* v : {&h_, &e_, &up_, &term_}) v->resize(n, 0);
    ord_.resize(n, 0);
  }
  if (seen_.size() < n)
    for (auto* v : {&seen_, &touched_, &dirty_, &user_}) v->resize(n, 0);
  if (++stamp_ == 0) {  // wrapped: clear the stamps once
    for (auto* v : {&seen_, &touched_, &dirty_}) v->assign(v->size(), 0);
    stamp_ = 1;
  }
  for (NodeId id : touched.ids) touched_[id] = stamp_;

  // The cone in topological order: reverse DFS post-order over fanouts
  // from the roots.  Dffs are sources, so a Dff reached through its D or EN
  // pin keeps its hash and is not entered; a root Dff starts its own walk.
  order_.clear();
  auto walk = [&](NodeId r) {
    if (net.is_dead(r) || seen_[r] == stamp_) return;
    seen_[r] = stamp_;
    stack_.emplace_back(r, 0);
    while (!stack_.empty()) {
      auto& [u, i] = stack_.back();
      const std::vector<NodeId>& fos = net.node(u).fanouts;
      if (i == fos.size()) {
        order_.push_back(u);
        stack_.pop_back();
        continue;
      }
      const NodeId fo = fos[i++];
      if (seen_[fo] == stamp_ || net.node(fo).type == GateType::Dff) continue;
      seen_[fo] = stamp_;
      stack_.emplace_back(fo, 0);
    }
  };
  for (NodeId r : touched.value_roots) walk(r);

  // Re-hash the cone, then re-key the param roots: size and delay enter
  // a node's key but not its hash, so a param root moves its own term and
  // its drivers' up-sums, and no cone.
  edges_ = 0;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it)
    rekey(*it, node_hash(*it));
  for (NodeId id : touched.param_roots)
    if (!net.is_dead(id)) rekey(id, h_[id]);
  for (NodeId id : touched.ids) {
    dirty(id);
    if (net.is_dead(id)) {
      h_[id] = e_[id] = up_[id] = 0;
    } else {
      up_[id] = up_sum(id);
    }
  }
  for (const Saved& s : undo_) {
    const NodeId id = s.n;
    sum_ -= term_[id];
    term_[id] = net.is_dead(id) ? 0 : term(e_[id], up_[id]);
    sum_ += term_[id];
  }
  publish(order_.size() + touched.param_roots.size(), edges_);
}

void StructuralHasher::undo() {
  if (undo_full_) {
    std::swap(h_, prev_h_);
    std::swap(e_, prev_e_);
    std::swap(up_, prev_up_);
    std::swap(term_, prev_term_);
    std::swap(ord_, prev_ord_);
    undo_full_ = false;
  } else {
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      h_[it->n] = it->h;
      e_[it->n] = it->e;
      up_[it->n] = it->up;
      term_[it->n] = it->term;
    }
    for (auto* v : {&h_, &e_, &up_, &term_}) v->resize(prev_size_);
    ord_.resize(prev_size_);
  }
  undo_.clear();
  sum_ = prev_sum_;
}

}  // namespace lps
