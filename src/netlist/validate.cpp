#include "netlist/validate.hpp"

#include <algorithm>
#include <numeric>
#include <functional>

#include "core/metrics.hpp"

namespace lps {

namespace {

// The invariants, each written once.  The full check runs them over every
// node; the edit-scoped check over the nodes an undo epoch can have broken.
class Checker {
 public:
  Checker(const Netlist& net, diag::DiagEngine& eng)
      : net_(net), eng_(eng), n_(net.size()) {}

  // Index every fanout entry by the user it names, so a pair's mirrored
  // count reads the user's few claims instead of a fanout list that can be
  // long.  Worth it only when every node is checked.
  void index_claims() {
    claim_at_.assign(n_ + 1, 0);
    for (NodeId v = 0; v < n_; ++v)
      for (NodeId u : net_.node(v).fanouts)
        if (u < n_) ++claim_at_[u];
    std::partial_sum(claim_at_.begin(), claim_at_.end(), claim_at_.begin());
    claims_.resize(claim_at_[n_]);
    for (NodeId v = 0; v < n_; ++v)
      for (NodeId u : net_.node(v).fanouts)
        if (u < n_) claims_[--claim_at_[u]] = v;
  }

  // Node i's own references: a dead node holds none; a live one has a
  // legal arity, in-range live fanins whose fanout lists mirror each use,
  // and fanout entries naming live users that read it.
  void node(NodeId i) {
    const Node& nd = net_.node(i);
    if (nd.dead) {
      if (!nd.fanouts.empty())
        err("dead node " + desc(i) + " still has " +
            std::to_string(nd.fanouts.size()) + " fanout entries");
      if (!nd.fanins.empty()) err("dead node " + desc(i) + " still has fanins");
      return;
    }
    if (nd.fanins.size() < gate_min_arity(nd.type) ||
        nd.fanins.size() > gate_max_arity(nd.type))
      err("node " + desc(i) + " arity violation: " +
          std::to_string(nd.fanins.size()) + " fanins, legal range [" +
          std::to_string(gate_min_arity(nd.type)) + ", " +
          (gate_max_arity(nd.type) == SIZE_MAX
               ? std::string("inf")
               : std::to_string(gate_max_arity(nd.type))) +
          "]");
    for (NodeId f : nd.fanins) {
      if (f >= n_)
        err("node " + desc(i) + " fanin " + std::to_string(f) +
            " out of range (network has " + std::to_string(n_) + " nodes)");
      else if (net_.node(f).dead)
        err("node " + desc(i) + " references dead fanin " + desc(f));
      else
        pair(i, f);
    }
    for (NodeId u : nd.fanouts) {
      if (u >= n_) {
        err("node " + desc(i) + " fanout entry " + std::to_string(u) +
            " out of range");
        continue;
      }
      const Node& un = net_.node(u);
      if (un.dead)
        err("node " + desc(i) + " has stale fanout entry to dead node " +
            desc(u));
      else if (std::find(un.fanins.begin(), un.fanins.end(), i) ==
               un.fanins.end())
        err("stale fanout entry: node " + desc(i) + " lists " + desc(u) +
            " as a user, but that node has no such fanin");
    }
  }

  // Node i's primary-input membership, given how often the list names it:
  // a listed node is a live Input, and a live Input is listed once.
  void listing(NodeId i, std::size_t listed) {
    const Node& nd = net_.node(i);
    if (listed > 0 && nd.dead)
      err("inputs list references dead node " + desc(i));
    else if (listed > 0 && nd.type != GateType::Input)
      err("inputs list entry " + desc(i) + " is not an Input");
    else if (!nd.dead && nd.type == GateType::Input && listed != 1)
      err("live Input " + desc(i) + " appears " + std::to_string(listed) +
          "x in the inputs list");
  }

  // Primary outputs: in range, alive, names unique.
  void outputs() {
    const auto& outs = net_.outputs();
    const auto& names = net_.output_names();
    if (outs.size() != names.size())
      err("outputs/output_names size mismatch: " +
          std::to_string(outs.size()) + " vs " + std::to_string(names.size()));
    // Each named slot's first slot of the same name: sort (name hash,
    // slot) pairs, then look back among equal hashes for an equal name.
    const std::size_t named = std::min(outs.size(), names.size());
    std::vector<std::pair<std::size_t, std::uint32_t>> by_hash(named);
    for (std::size_t k = 0; k < named; ++k)
      by_hash[k] = {std::hash<std::string>{}(names[k]),
                    static_cast<std::uint32_t>(k)};
    std::sort(by_hash.begin(), by_hash.end());
    std::vector<std::uint32_t> first(named);
    for (std::size_t i = 0; i < named; ++i) {
      const std::uint32_t k = by_hash[i].second;
      first[k] = k;
      for (std::size_t j = i; j-- > 0 && by_hash[j].first == by_hash[i].first;)
        if (names[by_hash[j].second] == names[k]) {
          first[k] = first[by_hash[j].second];
          break;
        }
    }
    for (std::size_t k = 0; k < outs.size() && !eng_.saturated(); ++k) {
      NodeId o = outs[k];
      if (o >= n_)
        err("primary output " + std::to_string(k) + " node id " +
            std::to_string(o) + " out of range");
      else if (net_.node(o).dead)
        err("primary output " + (k < names.size() ? names[k] : "?") +
            " driven by dead node " + desc(o));
      if (k < named && first[k] != k)
        err("duplicate primary output name \"" + names[k] + "\" (slots " +
            std::to_string(first[k]) + " and " + std::to_string(k) + ")");
    }
  }

  // The first combinational cycle in the fanin cones of `roots`, reported
  // with its path ("12 (AND) -> 17 (OR f) -> 12").  Dff D/EN pins close
  // sequential loops legally and are not followed; out-of-range and dead
  // references are node()'s to report.
  void cycles(const std::vector<NodeId>& roots) {
    std::vector<std::uint8_t> state(n_, 0);  // 1 on the open path, 2 done
    std::vector<std::pair<NodeId, std::size_t>> path;  // node, next fanin
    auto live = [&](NodeId v) { return v < n_ && !net_.is_dead(v); };
    for (NodeId r : roots) {
      if (!live(r) || state[r]) continue;
      state[r] = 1;
      path.push_back({r, 0});
      while (!path.empty()) {
        auto& [v, next] = path.back();
        const Node& nd = net_.node(v);
        if (nd.type == GateType::Dff || next == nd.fanins.size()) {
          state[v] = 2;
          path.pop_back();
          continue;
        }
        NodeId f = nd.fanins[next++];
        if (!live(f) || state[f] == 2) continue;
        if (state[f] == 1) {
          std::string s;
          auto it = std::find_if(path.begin(), path.end(),
                                 [f](const auto& e) { return e.first == f; });
          for (; it != path.end(); ++it) s += desc(it->first) + " -> ";
          err("combinational cycle: " + s + std::to_string(f));
          return;
        }
        state[f] = 1;
        path.push_back({f, 0});
      }
    }
  }

 private:
  void err(std::string msg) { eng_.error(std::move(msg)); }
  std::string desc(NodeId n) const {
    std::string s = std::to_string(n);
    if (n >= n_) return s;
    const Node& nd = net_.node(n);
    s += " (" + std::string(to_string(nd.type));
    if (!nd.name.empty()) s += ' ' + nd.name;
    return s + ')';
  }

  // One (user, used) pair: each use is mirrored by one fanout entry.
  void pair(NodeId user, NodeId used) {
    const auto& fi = net_.node(user).fanins;
    const auto& fo = net_.node(used).fanouts;
    auto uses = std::count(fi.begin(), fi.end(), used);
    auto mirrored =
        claim_at_.empty()
            ? std::count(fo.begin(), fo.end(), user)
            : std::count(claims_.begin() + claim_at_[user],
                         claims_.begin() + claim_at_[user + 1], used);
    if (uses != mirrored)
      err("fanin/fanout bookkeeping mismatch: node " + desc(user) + " uses " +
          desc(used) + " " + std::to_string(uses) + "x but appears " +
          std::to_string(mirrored) + "x in its fanout list");
  }

  const Netlist& net_;
  diag::DiagEngine& eng_;
  const std::size_t n_;
  // claims_[claim_at_[u] .. claim_at_[u + 1]): every node whose fanout list
  // names u, once per entry (index_claims only).
  std::vector<std::uint32_t> claim_at_;
  std::vector<NodeId> claims_;
};

}  // namespace

std::size_t validate(const Netlist& net, diag::DiagEngine& eng) {
  core::metrics::count("netlist.check_full");
  const std::size_t errors_before = eng.num_errors();
  const std::size_t n = net.size();
  Checker c(net, eng);
  c.index_claims();
  for (NodeId i = 0; i < n && !eng.saturated(); ++i) c.node(i);

  if (!eng.saturated()) {
    std::vector<std::size_t> listed(n, 0);
    for (NodeId i : net.inputs()) {
      if (i < n)
        ++listed[i];
      else
        eng.error("inputs list entry " + std::to_string(i) + " out of range");
    }
    for (NodeId i = 0; i < n && !eng.saturated(); ++i) c.listing(i, listed[i]);
  }
  if (!eng.saturated()) c.outputs();
  if (!eng.saturated()) {
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), NodeId{0});
    c.cycles(all);
  }
  return eng.num_errors() - errors_before;
}

std::size_t validate_edit(const Netlist& net, diag::DiagEngine& eng) {
  const Netlist::UndoLog* u = net.undo_log();
  if (!u || u->full_saved || (u->io_saved && u->inputs != net.inputs()))
    return validate(net, eng);
  core::metrics::count("netlist.check_edit");
  const std::size_t errors_before = eng.num_errors();
  const std::size_t n = net.size();
  // The edited nodes with their pre-images (nullptr: created this epoch),
  // by id so diagnostics come in the full check's order.
  std::vector<std::pair<NodeId, const Node*>> edited;
  for (const auto& [id, img] : u->node_images) edited.emplace_back(id, &img);
  std::sort(edited.begin(), edited.end());
  for (NodeId id = static_cast<NodeId>(u->base_nodes); id < n; ++id)
    edited.emplace_back(id, nullptr);

  // A (user, used) pair can only break when one side was edited, and then
  // that side's old or new fanin or fanout list names the other: the scope
  // is the edited nodes and their old and new neighbours.
  bool any_dead = false;
  std::vector<NodeId> scope;
  std::vector<NodeId> roots;  // fanins reached over an edge the edit added
  for (auto [id, old] : edited) {
    const Node& cur = net.node(id);
    any_dead |= cur.dead;
    scope.push_back(id);
    for (const Node* img : {&cur, old}) {
      if (!img) continue;
      scope.insert(scope.end(), img->fanins.begin(), img->fanins.end());
      scope.insert(scope.end(), img->fanouts.begin(), img->fanouts.end());
    }
    if (cur.dead || cur.type == GateType::Dff) continue;
    bool all_new = !old || old->dead || old->type == GateType::Dff;
    for (NodeId f : cur.fanins)
      if (all_new || std::find(old->fanins.begin(), old->fanins.end(), f) ==
                         old->fanins.end())
        roots.push_back(f);
  }
  std::sort(scope.begin(), scope.end());
  scope.erase(std::unique(scope.begin(), scope.end()), scope.end());

  Checker c(net, eng);
  for (NodeId i : scope)
    if (i < n && !eng.saturated()) c.node(i);
  // The PI list is unchanged and was valid: it names exactly the nodes that
  // were live Inputs.
  for (auto [id, old] : edited)
    if (!eng.saturated())
      c.listing(id, old && !old->dead && old->type == GateType::Input);
  // The PO list, when the edit touched it or a node it may name died.
  if (!eng.saturated() && (u->io_saved || any_dead)) c.outputs();
  // The network was acyclic before, so a new cycle runs through an added
  // edge.
  if (!eng.saturated() && !roots.empty()) c.cycles(roots);
  return eng.num_errors() - errors_before;
}

bool validate_edit(const Netlist& net) {
  diag::DiagEngine eng(1);
  return validate_edit(net, eng) == 0;
}

}  // namespace lps
