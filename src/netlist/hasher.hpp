// hasher.hpp — the structural hash, kept per node across edits (DESIGN.md,
// "Structural hash").
//
// structural_hash() is a Merkle-multiset digest.  Each live node n has a
// node hash h(n) of its type, fanin count and init value.  A PI adds its
// position in inputs(); a Dff is a source and adds its rank among the live
// Dffs in id order, so register loops never recurse; any other node adds
// its fanins' hashes in order.  A node's key e(n) mixes h(n) with its size
// and delay.  Every edge — d feeding pin k of u, D and EN pins included —
// adds an edge term of (e(u), k) to d's up-sum, so nodes with equal h
// ("twins", common in SOP-decomposed BLIF) are told apart by what they
// drive and by those users' sizes and delays.  The value is the wrapping
// sum over the live nodes of a term mixing e(n) and its up-sum, followed by
// the PO list in order.  No node id enters it, so tombstones, compact() and
// names leave it unchanged.
//
// Limitation: the up-sum looks one level up, so what lies two or more
// levels above a twin is not tied to it.  With twins a1 (size 1) and a2
// (size 2), u1 = NOT(a1) and u2 = NOT(a2) of equal size are twins too, and
// exchanging the users of u1 and u2 keeps the value although the result
// need not be isomorphic.  That is a blind spot of the digest, not a
// ~2^-64 collision; seeing further up would re-hash each edit's fanin cone.
//
// update() re-hashes the fanout cone of the value roots (nodes whose type,
// fanins, init value or liveness changed), stopping at Dffs; a size or
// delay edit re-keys its node and moves its drivers' up-sums, O(fanin).
// undo() puts back what the last update() overwrote (Timer's pattern).

#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace lps {

class StructuralHasher {
 public:
  /// One full pass.  `net` must outlive the hasher.
  explicit StructuralHasher(const Netlist& net);

  /// structural_hash() of the bound netlist, provided every edit since the
  /// full pass was reported through update().
  std::uint64_t value() const;

  /// Re-hash after an edit.  `touched` is the open epoch's
  /// Netlist::touched_nodes(), and the netlist is in the edited state.
  /// `all`, or an edit that adds or removes a register (the ranks move),
  /// takes a full pass.
  void update(const Netlist::TouchedNodes& touched);

  /// Restore the state before the last update() (call after rolling the
  /// netlist back).  One level deep.
  void undo();

  /// Node hashes computed over the hasher's life (full passes count every
  /// live node), also published as the counter `netlist.hash.nodes`.
  std::uint64_t rehashed() const { return rehashed_; }
  /// Fanin entries read over the hasher's life (edge terms, and the user
  /// scans that re-sum a touched driver's up-sum), also published as the
  /// counter `netlist.hash.edges`.
  std::uint64_t edges_read() const { return edges_read_; }

 private:
  void full();
  std::uint64_t node_hash(NodeId n) const;
  std::uint64_t up_sum(NodeId d);
  // Set u's hash to nh and its key from it; move its untouched drivers'
  // up-sums by the change in its edge terms.
  void rekey(NodeId u, std::uint64_t nh);
  void publish(std::uint64_t nodes, std::uint64_t edges);
  // Journal n's h/e/up/term on its first change in this update.
  void dirty(NodeId n);

  const Netlist& net_;
  std::vector<std::uint64_t> h_, e_, up_, term_;
  // 1 + PI position, or kReg | (1 + Dff rank); 0 for other nodes.
  std::vector<std::uint32_t> ord_;
  std::uint64_t sum_ = 0;
  std::uint64_t rehashed_ = 0, edges_read_ = 0;

  // Per-update scratch: stamps instead of cleared masks.
  std::uint32_t stamp_ = 0, user_stamp_ = 0;  // user_: once per up_sum()
  std::vector<std::uint32_t> seen_, touched_, dirty_, user_;
  std::vector<NodeId> order_;
  std::uint64_t edges_ = 0;
  std::vector<std::pair<NodeId, std::size_t>> stack_;

  // What the last update() overwrote.
  struct Saved { NodeId n; std::uint64_t h, e, up, term; };
  std::vector<Saved> undo_;
  bool undo_full_ = false;
  std::vector<std::uint64_t> prev_h_, prev_e_, prev_up_, prev_term_;
  std::vector<std::uint32_t> prev_ord_;
  std::uint64_t prev_sum_ = 0;
  std::size_t prev_size_ = 0;
};

}  // namespace lps
