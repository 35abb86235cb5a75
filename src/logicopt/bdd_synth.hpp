// bdd_synth.hpp — per-cone BDD→MUX extraction ("hybrid" synthesis).
//
// §III-A: SOP minimization and factoring are one family of multi-level
// restructurings; BDD-based synthesis is the other.  A reduced ordered BDD
// is itself a multiplexer network — one MUX per internal node, selector =
// the node's variable — and for reconvergent/arithmetic cones that network
// is often both smaller and lower-switching than the factored SOP form,
// because the canonical DAG shares every common subfunction by
// construction.  The survey's prescription is *hybrid* extraction: try the
// BDD form per cone and keep whichever representation wins.
//
// This engine does exactly that, on the synthesis-scale manager
// (bdd/bdd.hpp):
//
//   1. enumerate extraction roots (the observation points of
//      bdd/bdd_netlist.hpp: primary outputs and register D/EN fanins) and
//      take each root's transitive fanin cone (bdd::fanin_dfs), skipping
//      cones whose support exceeds the input cap;
//   2. build the cone's function in a fresh per-cone manager with
//      bdd::lower_gate (complement edges halve arithmetic cones; auto-GC
//      bounds the build; the per-gate scaffolding is dropped before
//      reordering);
//   3. sift with per-variable switching-activity weights — high-activity
//      variables sink toward the leaves, where their toggles drive few MUX
//      selectors (bdd::Manager::SiftOptions::weights);
//   4. lower the BDD to a MUX/INV network (bdd::synthesize_bdd; complement
//      edges become one shared inverter per polarity) and splice it in
//      place of the root as one candidate of the shared candidate kernel
//      (logicopt/candidate.hpp): nested undo epoch, cone-scoped oracle
//      score, keep only a strict switching-power win whose proof (PO
//      digest + a 256-frame functional trace) passes — losers roll back
//      in O(edit), and a failed proof counts `unsound`.
//
// Determinism: the engine is sequential and owns a private ZeroDelay
// oracle seeded from the options, so the kept-cone sequence is a pure
// function of the input netlist and options — independent of
// LPS_OPT_WORKERS, lane width or thread count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "netlist/netlist.hpp"

namespace lps::logicopt {

struct BddSynthOptions {
  /// Support cap: cones with more source inputs are skipped (counted in
  /// `cones_capped`, never silent).
  unsigned max_inputs = 18;
  /// Per-cone manager node budget; a cone that exceeds it while building
  /// or sifting is skipped (counted in `cones_limited`).
  std::size_t node_limit = std::size_t{1} << 20;
  /// Activity-weighted sifting before extraction.
  bool sift = true;
  /// Stimulus for the private ZeroDelay scoring oracle.
  std::size_t sim_vectors = 4096;
  std::uint64_t seed = 7;
};

struct BddSynthResult {
  std::size_t cones_examined = 0;
  std::size_t cones_capped = 0;   // support exceeded max_inputs
  std::size_t cones_limited = 0;  // per-cone manager hit its node budget
  std::size_t kept = 0;           // spliced in and committed
  std::size_t reverted = 0;       // not a strict power win; rolled back
  std::size_t unsound = 0;        // would-be keeps that failed the proof
                                  // (rolled back; also the
                                  // logicopt.bdd_synth.unsound metric)
  /// Max live-node watermark over the per-cone managers (complement edges
  /// + GC at work; what experiment E27's peak_live_ratio band audits).
  std::size_t peak_live_nodes = 0;
  double power_before_w = 0.0;  // oracle estimate at entry
  double power_after_w = 0.0;   // oracle estimate at exit
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  /// One-line diagnostic describing any cap that was hit; empty otherwise.
  std::string note;
};

/// Run hybrid BDD→MUX extraction in place.  Mutations nest correctly
/// inside a caller's active undo epoch (each cone runs in an inner epoch).
BddSynthResult synthesize_bdd_cones(Netlist& net,
                                    const BddSynthOptions& opt = {});

}  // namespace lps::logicopt
