// netlist.hpp — gate-level Boolean network substrate.
//
// Every optimization surveyed in Devadas & Malik (DAC'95) operates on a
// technology-independent or mapped gate network.  This module provides that
// substrate: a DAG of typed logic gates with named primary inputs/outputs,
// optional D flip-flops (for the sequential techniques of §III-C), per-node
// drive size (for §II-B transistor sizing) and per-node delay (for §III-A.2
// path balancing and the timed glitch simulator).
//
// Design notes
//  - Nodes live in a flat vector and are addressed by NodeId; deletion marks
//    a tombstone so ids stay stable across passes (compact() renumbers).
//  - Fanouts are maintained incrementally so passes can query them cheaply.
//  - The network owns no technology information; the power model assigns
//    capacitance from gate type, size and fanout count (see power/).

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lps {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

enum class GateType : std::uint8_t {
  Input,   // primary input; no fanins
  Const0,  // constant 0
  Const1,  // constant 1
  Buf,     // 1 fanin
  Not,     // 1 fanin
  And,     // >= 2 fanins
  Or,      // >= 2 fanins
  Nand,    // >= 2 fanins
  Nor,     // >= 2 fanins
  Xor,     // >= 2 fanins (odd parity)
  Xnor,    // >= 2 fanins (even parity)
  Mux,     // 3 fanins: s, a, b -> s ? b : a
  Dff,     // 1 fanin (D) or 2 (D, EN): load-enabled register.  With an EN
           // pin the register keeps its value on EN=0 — the survey's "LE"
           // registers (Figure 1) and gated-clock banks, modelled inside
           // the flip-flop instead of as an external recirculating mux.
};

/// Printable mnemonic, e.g. "AND".
std::string_view to_string(GateType t);

/// True for Input/Const0/Const1 (gates with no logic fanin).
constexpr bool is_source(GateType t) {
  return t == GateType::Input || t == GateType::Const0 || t == GateType::Const1;
}

/// True for And/Or/Nand/Nor/Xor/Xnor, whose fanin order does not matter.
constexpr bool is_commutative(GateType t) {
  return t >= GateType::And && t <= GateType::Xnor;
}

/// Legal fanin-count range per gate type (gate_max_arity returns SIZE_MAX
/// for the unbounded n-ary gates).  Shared by add_gate, the invariant
/// checker (validate.hpp) and the fault-injection harness.
std::size_t gate_min_arity(GateType t);
std::size_t gate_max_arity(GateType t);

/// Evaluate one gate over 64 parallel bit patterns.  Dff is evaluated as a
/// buffer (the timed semantics live in the simulator).
std::uint64_t eval_gate(GateType t, std::span<const std::uint64_t> fanin_words);

struct Node {
  GateType type = GateType::Input;
  std::vector<NodeId> fanins;
  std::vector<NodeId> fanouts;  // maintained by Netlist mutators
  std::string name;             // unique when non-empty
  double size = 1.0;            // relative drive strength (transistor sizing)
  int delay = 1;                // gate delay in integer time units
  bool init_value = false;      // Dff reset state
  bool dead = false;            // tombstone after remove()
};

/// A gate-level Boolean network with named PIs and POs.
///
/// Invariants (checked by check()):
///  - fanin counts match gate arity rules above;
///  - fanin/fanout cross-references are consistent;
///  - the combinational part (ignoring Dff Q->D closure) is acyclic;
///  - no live node references a dead node.
class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // Copies never carry the mutation journal; assignment onto a journaled
  // netlist records a wholesale pre-image first (so `net = strash(net)`
  // remains rollback-able).  See the mutation-journal section below.
  Netlist(const Netlist& o);
  Netlist(Netlist&& o) noexcept = default;
  Netlist& operator=(const Netlist& o);
  Netlist& operator=(Netlist&& o);

  const std::string& name() const { return name_; }
  void set_name(std::string n) {
    touch_io();
    name_ = std::move(n);
  }

  // ---- construction -------------------------------------------------------
  NodeId add_input(std::string name);
  NodeId add_const(bool value);
  NodeId add_gate(GateType t, std::vector<NodeId> fanins, std::string name = {});
  NodeId add_dff(NodeId d, bool init = false, std::string name = {});
  /// Attach a load-enable pin to a plain Dff (EN=1 loads, EN=0 holds).
  void set_dff_enable(NodeId dff, NodeId enable);
  /// True when the Dff has a load-enable pin.
  bool dff_has_enable(NodeId dff) const {
    return nodes_[dff].type == GateType::Dff && nodes_[dff].fanins.size() == 2;
  }
  /// Mark an existing node as a primary output (a node may drive several
  /// outputs under different names).
  void add_output(NodeId n, std::string name = {});

  // Convenience builders for 2-input logic.
  NodeId add_and(NodeId a, NodeId b) { return add_gate(GateType::And, {a, b}); }
  NodeId add_or(NodeId a, NodeId b) { return add_gate(GateType::Or, {a, b}); }
  NodeId add_xor(NodeId a, NodeId b) { return add_gate(GateType::Xor, {a, b}); }
  NodeId add_xnor(NodeId a, NodeId b) { return add_gate(GateType::Xnor, {a, b}); }
  NodeId add_nand(NodeId a, NodeId b) { return add_gate(GateType::Nand, {a, b}); }
  NodeId add_not(NodeId a) { return add_gate(GateType::Not, {a}); }
  NodeId add_buf(NodeId a) { return add_gate(GateType::Buf, {a}); }
  NodeId add_mux(NodeId s, NodeId a, NodeId b) {
    return add_gate(GateType::Mux, {s, a, b});
  }

  // ---- access -------------------------------------------------------------
  std::size_t size() const { return nodes_.size(); }  // includes tombstones
  const Node& node(NodeId n) const { return nodes_[n]; }
  /// Mutable access journals the node's pre-image when an undo log is
  /// active (passes edit size/delay/init through this reference).
  Node& node(NodeId n) {
    touch_node(n);
    return nodes_[n];
  }
  bool is_dead(NodeId n) const { return nodes_[n].dead; }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  const std::vector<std::string>& output_names() const { return output_names_; }
  std::vector<NodeId> dffs() const;

  /// Number of live (non-tombstone) nodes.
  std::size_t num_live() const;
  /// Live nodes that are neither sources nor Dffs (i.e. logic gates).
  std::size_t num_gates() const;
  /// Total literal count (sum of fanin counts over live logic gates).
  std::size_t num_literals() const;

  std::optional<NodeId> find(std::string_view name) const;

  // ---- mutation -----------------------------------------------------------
  /// Redirect every use of `old_node` (fanins of other gates and POs) to
  /// `new_node`, then remove `old_node`.
  void substitute(NodeId old_node, NodeId new_node);
  /// Replace one fanin slot: node n's fanin at position k becomes `nf`.
  void replace_fanin(NodeId n, std::size_t k, NodeId nf);
  /// Remove a node with no fanouts and no PO reference.
  void remove(NodeId n);
  /// Remove all dead logic: gates with no path to a PO or a Dff input.
  std::size_t sweep();
  /// Renumber nodes to eliminate tombstones.  Returns old->new id map.
  std::vector<NodeId> compact();

  // ---- analysis -----------------------------------------------------------
  /// Topological order over live nodes; Dffs are treated as sources (their
  /// D-input closes the cycle and is not followed).
  std::vector<NodeId> topo_order() const;
  /// arrival[n] = longest path in *delay units* using Node::delay (one
  /// pass of the timer in netlist/timer.hpp).
  std::vector<int> arrival_times() const;
  /// Critical (max) arrival time over POs and every Dff pin (D and EN).
  int critical_delay() const;
  /// Transitive fanin cone of `roots`, as a node mask.
  std::vector<bool> cone_of(std::span<const NodeId> roots) const;
  /// Transitive fanout cone of `roots` (the nodes whose value can change
  /// when a root changes), as a node mask.  Registers reached through their
  /// D or EN pins are included; with `through_dffs` the traversal continues
  /// past them (their Q changes in later cycles), which is the dirty set an
  /// incremental re-estimator must re-simulate on a sequential netlist.
  std::vector<bool> fanout_cone_of(std::span<const NodeId> roots,
                                   bool through_dffs = false) const;

  /// Validate invariants; returns an error description or empty string.
  /// The full checker (every violation as a positioned diagnostic, cycle
  /// membership reporting) lives in netlist/validate.hpp; this is the
  /// first-error convenience used by assertions and the pass manager.
  std::string check() const;

  /// Deep structural clone.
  Netlist clone() const;

  // ---- mutation journal ---------------------------------------------------
  // Alternative to cloning the whole netlist for rollback: begin_undo()
  // starts recording pre-images of everything a pass touches — node
  // pre-images on first write (copy-on-touch, one per node), the PI/PO
  // lists on first change, or a single wholesale pre-image when the pass
  // replaces the network outright (assignment, compact()).  rollback_undo()
  // restores the exact begin_undo() state; commit_undo() drops the log.
  // Cost scales with the pass's edit size, not the circuit size.
  //
  // Epochs nest: begin_undo() inside an active log opens an inner epoch.
  // Mutations journal into the innermost epoch only; commit_undo() merges
  // the inner epoch's pre-images into its parent (entries the parent
  // already holds an older image for are dropped, as are entries for nodes
  // the parent will discard by truncation), and rollback_undo() restores
  // exactly the innermost begin_undo() point, leaving outer epochs armed.
  // This is what lets a rewrite engine try one candidate at a time inside
  // a flow stage's all-or-nothing journal: candidate epochs commit or roll
  // back individually while the stage epoch still covers the whole batch.

  void begin_undo();
  /// Keep the innermost epoch's changes: merge its journal into the parent
  /// epoch, or discard it when it is the outermost.
  void commit_undo();
  /// Restore the exact state captured by the innermost begin_undo();
  /// discards that epoch (outer epochs stay armed).
  void rollback_undo();
  bool undo_active() const { return !undo_.empty(); }
  /// Nesting depth of active epochs.
  std::size_t undo_depth() const { return undo_.size(); }
  /// Node pre-images recorded in the innermost epoch (diagnostic hook).
  std::size_t undo_entries() const {
    return undo_.empty() ? 0 : undo_.back()->node_images.size();
  }
  /// Total rollback_undo() calls on this netlist — the journal's own count
  /// of epochs actually rewound, which flow/stage accounting is audited
  /// against (a "reverted" or "failed" stage report must correspond to a
  /// real rewind, and "kept" must not).
  std::size_t undo_rollbacks() const { return undo_rollbacks_; }

  /// The set of nodes the innermost active epoch has seen change: journaled
  /// pre-images plus every node created after its begin_undo().  `all` is set
  /// when per-node attribution is impossible — no journal is active, a
  /// wholesale pre-image was recorded (assignment, compact()), or the
  /// primary-input list changed (input positions feed the simulators, so
  /// nothing can be scoped).  PO-list-only changes keep `all` false: they
  /// redirect observation, not simulated values.  Consumed by the
  /// incremental power analyzer (power/incremental.hpp) to scope
  /// re-simulation to the dirty fanout cone.
  struct TouchedNodes {
    bool all = false;
    std::vector<NodeId> ids;  // ascending, unique; empty when all
    /// The subset of `ids` whose *value stream* may actually have changed:
    /// the journaled pre-image differs in type, fanins, init_value or
    /// liveness, or the node was created this epoch.  A node touched only
    /// for a fanout-list, size, delay or name edit keeps its simulated
    /// values bit-for-bit, so it seeds no re-simulation cone — this is what
    /// lets a sizing pass (size-only edits across the whole netlist)
    /// re-estimate without re-simulating a single node.
    std::vector<NodeId> value_roots;  // ascending, unique; subset of ids
    /// The touched nodes outside value_roots whose size or delay changed:
    /// with value_roots, the roots whose structural hash moved
    /// (netlist/hasher.hpp).
    std::vector<NodeId> param_roots;  // ascending, unique; subset of ids
  };
  TouchedNodes touched_nodes() const;

  /// One epoch's journal.  Outside Netlist it is an opaque frame
  /// (commit_undo_frame / restore_frame) that validate_edit() can read.
  struct UndoLog {
    std::size_t base_nodes = 0;            // nodes_.size() at begin_undo
    std::vector<char> dirty;               // per pre-existing node: journaled?
    std::vector<std::pair<NodeId, Node>> node_images;
    bool io_saved = false;                 // PI/PO lists + name journaled?
    std::vector<NodeId> inputs;
    std::vector<NodeId> outputs;
    std::vector<std::string> output_names;
    std::string name;
    bool full_saved = false;               // wholesale pre-image journaled?
    std::vector<Node> full_nodes;
    std::vector<NodeId> full_inputs;
    std::vector<NodeId> full_outputs;
    std::vector<std::string> full_output_names;
    std::string full_name;

    /// Approximate bytes held by the node images (memory accounting for
    /// kept frames).
    std::size_t bytes() const;
  };
  using UndoFrame = std::unique_ptr<UndoLog>;

  /// commit_undo() of the outermost epoch that keeps its journal as a frame
  /// instead of dropping it, so the edit can be undone after later epochs
  /// have come and gone.
  UndoFrame commit_undo_frame();
  /// Undo a kept frame's edit inside the innermost active epoch: the frame
  /// must be the latest edit still standing (frames rewind in LIFO order).
  /// The restore is journaled like any other mutation, so touched_nodes()
  /// reports exactly the nodes it changes and rollback_undo() undoes it;
  /// `f` itself stays intact.  A frame whose epoch appended nodes (the node
  /// array shrinks back, so ids match a replay) or replaced the network
  /// wholesale is journaled wholesale, and touched_nodes() reports `all`.
  void restore_frame(const UndoFrame& f);
  /// The innermost active epoch's journal, or nullptr when none is active.
  const UndoLog* undo_log() const {
    return undo_.empty() ? nullptr : undo_.back().get();
  }

 private:
  /// Journal node n's pre-image on its first mutation in the innermost
  /// epoch (no-op for nodes created after that epoch's begin_undo, or once
  /// it holds a wholesale pre-image).  Outer epochs need no entry: a
  /// commit merges the image down, a rollback restores it.
  void touch_node(NodeId n) {
    if (undo_.empty()) return;
    UndoLog& u = *undo_.back();
    if (u.full_saved) return;
    if (n >= u.base_nodes || u.dirty[n]) return;
    u.dirty[n] = 1;
    u.node_images.emplace_back(n, nodes_[n]);
  }
  void touch_io();   // journal PI/PO lists + name on first change
  void touch_all();  // journal a wholesale pre-image (assignment, compact)
  // Rewind to the state `u` was begun on; `consume` moves the images out
  // (rollback_undo), otherwise they are copied (restore_frame).
  void rewind(UndoLog& u, bool consume);

  void link_fanin(NodeId user, NodeId used);
  void unlink_fanin(NodeId user, NodeId used);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<std::string> output_names_;
  std::vector<std::unique_ptr<UndoLog>> undo_;  // epoch stack; back() is innermost
  std::size_t undo_rollbacks_ = 0;
};

/// A gate's structural key: its type and fanin list, the list sorted by the
/// caller for commutative types.  strash() and the rewrite rules' Share
/// scan hash gates by it.
struct GateKey {
  GateType type;
  std::vector<NodeId> fanins;
  bool operator==(const GateKey&) const = default;
};

struct GateKeyHash {
  std::size_t operator()(const GateKey& k) const {
    std::size_t h = static_cast<std::size_t>(k.type) * 0x9E3779B97F4A7C15ull;
    for (NodeId f : k.fanins) h = h * 0x100000001B3ull ^ f;
    return h;
  }
};

/// Structural hashing: rebuilds the network bottom-up, merging structurally
/// identical gates (same type + same fanin list after canonical sorting of
/// commutative inputs) and folding constants.  Returns the hashed copy.
Netlist strash(const Netlist& n);

/// 64-bit structural fingerprint of the live network: a Merkle-multiset
/// digest (netlist/hasher.hpp).  Each node hashes its own fields and its
/// fanins' hashes, a PI its position in inputs(), a register its rank
/// among the live Dffs in id order; each edge also enters its driver's
/// term with its user's hash, size and delay, and the terms are summed,
/// then the PO list follows in order.  No node id enters it, so the digest
/// is invariant under tombstones, node renumbering that keeps the
/// registers' relative order (compact()) and names, but sensitive to
/// everything simulation and power care about: gate types, fanin wiring,
/// register init values and enables, sizes, delays, and the PI/PO lists in
/// order.  Two netlists with equal hashes are structurally identical up to
/// a ~2^-64 collision, with one blind spot: structurally equal nodes
/// ("twins") are told apart by their own users only, not by what lies two
/// or more levels above them (hasher.hpp gives the example).  The service
/// layer keys sessions and verifies crash-recovery journal replay with it,
/// and keeps it per edit through StructuralHasher::update().
std::uint64_t structural_hash(const Netlist& n);

/// Human-readable dump for debugging.
std::ostream& operator<<(std::ostream& os, const Netlist& n);

}  // namespace lps
