// compiled.hpp — flat-tape compiled zero-delay simulation.
//
// CompiledSim is the one zero-delay evaluator: it lowers the topological
// order once into one contiguous instruction tape — packed {opcode,
// n_fanins, output slot, operand slots} records in a flat std::uint32_t
// array, with specialized opcodes for the dominant one- and two-input gates
// (NOT/BUF/AND2/OR2/NAND2/NOR2/XOR2/XNOR2/MUX) and a generic n-ary fallback
// that folds wide gates operand-by-operand without any scratch buffer —
// instead of chasing Node::fanins and switching on the gate type per gate
// per frame.  The Monte Carlo drivers (sim/logicsim.hpp) replay the tape
// with multi-word frame blocking: B 64-bit words (64*B patterns) are
// evaluated per tape step, so each instruction decode is amortized over up
// to 1024 vectors and the inner per-record loops autovectorize.  The
// resynthesis, don't-care and sequential probes replay it too.
//
// Bit-equality contract: for identical input words a tape replay produces
// exactly the words eval_gate computes — every opcode is the same bitwise
// expression, folded in the same fanin order.  tests/test_compiled.cpp
// enforces this differentially across the benchmark suite against the
// per-gate interpreter kept as a test reference
// (tests/logicsim_reference.hpp, tests/activity_reference.hpp).
//
// Mutation support: optimization loops edit a handful of nodes per
// candidate move.  update() patches the tape from the same
// Netlist::touched_nodes() report that feeds incremental power analysis —
// re-emitting only the records of nodes whose value-relevant state changed
// (O(edit size), appended at the tape's end with a per-node offset table) —
// instead of recompiling the whole netlist.  Patched tapes are no longer a
// single linear program (records are found through the offset table), so
// the cone paths (cone_schedule / exec_gates) take over; a garbage bound
// triggers a full rebuild when patches accumulate.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aligned.hpp"
#include "netlist/netlist.hpp"
#include "sim/simd.hpp"

namespace lps::sim {

/// One simulation frame: value word per node (64 parallel patterns).
using Frame = std::vector<std::uint64_t>;

/// Precomputed evaluation schedule for one cone of the network: the cone's
/// logic gates in topological order plus its registers.  Built once per
/// dirty set (CompiledSim::cone_schedule() for incremental power
/// re-estimation) and replayed over every cached frame.
struct ConeSchedule {
  std::vector<NodeId> gates;  // live non-source, non-Dff cone nodes, topo order
  std::vector<NodeId> dffs;   // live cone registers (state stepped by caller)
  /// Live cone nodes whose per-frame values must be (re)computed: gates +
  /// dffs.  Primary inputs are excluded — their value stream is fixed by
  /// the seed and input position, never by netlist edits.
  std::size_t resim_nodes() const { return gates.size() + dffs.size(); }
};

/// 64-bit frame words the Monte Carlo drivers evaluate per tape step
/// (combinational streams; sequential ones step one frame at a time).
/// Both measure_activity and the incremental cone driver read it.
inline constexpr std::size_t kSimBlock = 16;

/// Process-wide simulation engine knob, sampled once from the environment
/// (LPS_SIM_WIDTH=scalar|avx2|avx512|auto picks the kernel lane width) on
/// the first sim_options() call — the same caching contract as LPS_THREADS
/// (core/parallel.hpp).  Tests and benches override via ScopedSimOptions;
/// every width produces bit-identical results, so the knob trades only
/// speed.
struct SimOptions {
  SimdWidth width = SimdWidth::Auto;  // kernel lane width (see sim/simd.hpp)
};

/// The mutable global options record (not thread-safe to flip while a
/// simulation is running; flip between runs only).
SimOptions& sim_options();

/// Largest supported blocking factor <= `b` (supported: 1, 2, 4, 8, 16).
std::size_t normalize_block(std::size_t b);

/// Activity-counter accumulation over an evaluated value block, routed to
/// the same ISA kernel build resolve_simd() picks for the tape replay: for
/// each listed node add the set-bit and toggle popcounts of its first `b`
/// lanes into ones[]/toggles[] and leave the closing lane word in last[]
/// (the cross-block seam carry).  `first` marks the first block of a
/// stream: the lane-0 toggle is then counted against itself (zero), i.e.
/// no toggle lands in frame 0.  Counter sums are exact integer adds, so
/// every kernel build produces identical counts — the dispatch trades only
/// speed (the wide builds use the POPCNT instruction, the scalar fallback
/// stays baseline-portable).
void count_columns(const std::uint64_t* val, std::span<const NodeId> nodes,
                   std::size_t block, std::size_t b, bool first,
                   std::uint64_t* ones, std::uint64_t* toggles,
                   std::uint64_t* last);

/// Append a record computing gate type `t` (no source or register) into
/// value slot `out` from operand slots `ins`, in fanin order.  CompiledSim's
/// slots are node ids; the waveform simulator (sim/waveform.hpp) has its own.
void append_record(std::vector<std::uint32_t>& tape, GateType t,
                   std::uint32_t out, std::span<const std::uint32_t> ins);
/// Replay a linear tape of such records over `block` words per slot.
void exec_tape(std::span<const std::uint32_t> tape, std::uint64_t* val,
               std::size_t block);

/// RAII override of sim_options() for tests and differential benches.
class ScopedSimOptions {
 public:
  explicit ScopedSimOptions(SimOptions o) : prev_(sim_options()) {
    sim_options() = o;
  }
  ~ScopedSimOptions() { sim_options() = prev_; }
  ScopedSimOptions(const ScopedSimOptions&) = delete;
  ScopedSimOptions& operator=(const ScopedSimOptions&) = delete;

 private:
  SimOptions prev_;
};

/// Zero-delay evaluator over a compiled instruction tape.
///
/// Value layout: node id `n`'s words live at val[n * block + 0 .. block-1];
/// with block == 1 a plain Frame (std::vector<std::uint64_t> indexed by
/// node id) is a valid value array.  Source slots (primary inputs, register
/// outputs) are written by the caller before exec; dead-node slots are
/// never written and must be zeroed once by the caller (they read 0, as
/// eval_into's frames do).
class CompiledSim {
 public:
  explicit CompiledSim(const Netlist& net);

  const Netlist& net() const { return *net_; }

  /// Recompile the whole tape from the netlist's current topological
  /// order.  O(netlist).  Restores compact (linear-replay) form.
  void rebuild();

  /// Patch the tape after a mutation, from the undo journal's touched-node
  /// report (captured while the epoch was open): re-emits records for
  /// exactly touched.value_roots — nodes whose type/fanins/liveness
  /// changed, plus nodes created this epoch — in O(edit size).  A
  /// wholesale report (touched.all) or an excessive garbage ratio falls
  /// back to rebuild().  After a patch the tape is no longer compact:
  /// use cone_schedule()/exec_gates() (eval_into still works, at
  /// schedule-building cost).
  void update(const Netlist::TouchedNodes& touched);

  /// Rollback support: drop records of nodes >= n_nodes (the netlist
  /// shrank back after Netlist::rollback_undo) and re-emit `patched`
  /// from the restored netlist.  O(edit size).
  void revert_to(std::size_t n_nodes, std::span<const NodeId> patched);

  /// True when the tape is one linear topo-order program (no patches
  /// since the last rebuild): exec_all and the blocked Monte Carlo
  /// drivers require this.
  bool compact() const { return compact_; }

  /// Instruction records currently reachable through the offset table.
  std::size_t records() const { return records_; }
  /// Total tape words including patch garbage (rebuild bound diagnostic).
  std::size_t tape_words() const { return tape_.size(); }

  /// Gate/constant execution order of the compact tape (topo order minus
  /// sources and registers).
  const std::vector<NodeId>& order() const { return order_; }
  /// Live registers, in Netlist::dffs() order.
  const std::vector<NodeId>& dffs() const { return dff_list_; }
  /// All live node ids, ascending — the counting set of the activity
  /// drivers (dead slots stay zero and are skipped).
  const std::vector<NodeId>& live() const { return live_; }

  /// Replay the whole tape over a block of `block` words per node.
  /// Requires compact(); the caller has set PI and register slots.
  void exec_all(std::uint64_t* val, std::size_t block) const;

  /// Execute exactly the records of `gates` (in the given order) — the
  /// cone-restricted path of incremental re-estimation.  Valid on patched
  /// tapes; reads records through the offset table.
  void exec_gates(std::uint64_t* val, std::size_t block,
                  std::span<const NodeId> gates) const;

  /// Topological schedule of the masked subgraph, built by a depth-first
  /// walk restricted to the mask — O(cone + its edges), never O(netlist)
  /// like a full topo sort, and correct on patched tapes whose global
  /// order() is stale (new nodes are scheduled by the DFS).  Gate order
  /// may differ from the netlist's topo_order() (both are valid topological
  /// orders, so evaluated words are bit-identical).
  ConeSchedule cone_schedule(const std::vector<bool>& mask) const;

  /// Full-network evaluation of one frame (block == 1): `pi_words[i]` is
  /// net.inputs()[i]'s word, `dff_words[i]` register i's output (empty =
  /// reset values; otherwise one word per register, or invalid_argument).
  /// Dead slots read 0.  On patched tapes this builds a full-network
  /// schedule per call (O(netlist)) — the hot paths use exec_all /
  /// exec_gates instead.
  void eval_into(Frame& f, std::span<const std::uint64_t> pi_words,
                 std::span<const std::uint64_t> dff_words = {}) const;

 private:
  static constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;

  /// (Re-)emit node `id`'s record at the tape's end, or clear its offset
  /// when the node no longer evaluates (dead / source / register).
  void emit(NodeId id);

  const Netlist* net_;
  std::vector<std::uint32_t> tape_;
  std::vector<std::uint32_t> offset_;  // per node id; kNoRecord = none
  std::vector<NodeId> order_;          // compact execution order (gates)
  std::vector<NodeId> dff_list_;
  std::vector<NodeId> live_;
  std::size_t records_ = 0;
  std::size_t base_words_ = 0;  // tape size at last rebuild (garbage bound)
  bool compact_ = true;
};

/// One batch of free-source random stimulus on a compact tape: for each of
/// `words` words (a supported block, see normalize_block) every primary
/// input and then every register output draws one mt19937_64(seed) word,
/// and the whole tape replays once over the block.  Registers are free
/// variables here, not clocked.  Returns the node-major value block (node
/// n's words at [n * words, (n + 1) * words); dead slots read 0).
core::AlignedWords free_source_batch(const CompiledSim& cs, std::size_t words,
                                     std::uint64_t seed);

}  // namespace lps::sim
