// flows.hpp — end-to-end low-power flows combining the surveyed techniques.
//
// The survey's thesis is that savings compose across abstraction levels.
// These flows chain the library's passes the way a 1995 CAD system would:
//   combinational: strash -> don't-care opt -> resynthesis -> datapath
//   rewriting -> [hybrid BDD synthesis, opt-in] -> path balancing -> sizing,
//   sequential (FSM): low-power encoding -> synthesis -> self-loop clock
//   gating, with Eqn. (1) power measured between every stage.
//
// The combinational and sequential flows are PassManager pipelines
// (pass.hpp) of the make_*_pass factories, run with the power keep-gate.

#pragma once

#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/pass.hpp"
#include "netlist/netlist.hpp"
#include "power/activity.hpp"
#include "seq/stg.hpp"

namespace lps::core {

struct FlowOptions {
  std::size_t sim_vectors = 2048;
  std::uint64_t seed = 5;
  bool run_dontcare = true;
  /// Power-driven datapath rewriting (logicopt/rewrite/): exact structural
  /// rules scored one candidate at a time through a private cone-scoped
  /// power oracle.  Runs after resynthesis, before balancing.
  bool run_datapath = true;
  /// Hybrid BDD→MUX extraction (logicopt/bdd_synth.hpp): per-cone BDDs on
  /// the complement-edge manager, activity-weighted sifting, kept per cone
  /// only when the MUX form beats the current structure on power.  Runs
  /// after datapath rewriting, before balancing.  Off by default: inside
  /// the flow it keeps no cone on the benchmark suites yet was the costliest
  /// stage of a random-logic flow.  E20 and E27 turn it on.
  bool run_bdd_synth = false;
  bool run_balance = true;
  bool run_sizing = true;
  /// Activity source for the between-stage estimates, each one full
  /// power::analyze.  Timed (default) keeps the glitch-aware reports the
  /// survey's Eqn. (1) story is told with; ZeroDelay trades glitch
  /// visibility for a cheaper estimate (lpsd's optimize uses it).  The
  /// optimization engines score their candidates in ZeroDelay either way.
  power::ActivityMode estimate_mode = power::ActivityMode::Timed;
  /// Candidate-scoring worker threads for the optimization engines
  /// (logicopt/speculate.hpp) — routed into the datapath rewrite and
  /// window-resynthesis stages.  Speculative scoring is bit-identical to
  /// sequential at any value, so this only changes wall-clock.  0 = the
  /// LPS_OPT_WORKERS environment default; 1 = sequential.
  int opt_workers = 0;
  power::PowerParams params;
  /// Optional cooperative cancellation token (not owned; must outlive the
  /// flow), polled in every between-stage power estimate.  When it fires
  /// the in-flight stage is rolled back and the flow aborts with
  /// core::CancelledError.
  const core::CancelToken* cancel = nullptr;
};

struct FlowResult {
  Netlist circuit;
  std::vector<StageReport> stages;  // first entry = input circuit

  /// The last stage whose transform was kept (reverted/failed tails report
  /// the power of the circuit they *rolled back to*, not of the kept
  /// result, so reading stages.back() unconditionally misattributes the
  /// saving when the flow ends on a losing stage).  Returns nullptr when no
  /// stage was kept.
  const StageReport* last_kept_stage() const {
    for (auto it = stages.rbegin(); it != stages.rend(); ++it)
      if (it->status == "kept") return &*it;
    return nullptr;
  }

  /// Fractional power saving of the final kept circuit vs the input stage.
  /// 0 when there are no stages, no kept stage, or a zero-power baseline.
  double saving() const {
    const StageReport* last = last_kept_stage();
    if (stages.size() < 2 || stages.front().power_w <= 0 || !last) return 0.0;
    return 1.0 - last->power_w / stages.front().power_w;
  }
};

/// The flows' stage ladder, one pass per enabled stage, configured from
/// `opt`: dontcare, resynth (both under run_dontcare), datapath,
/// bdd_synth (opt-in), balance, sizing, then selfloop-gate when
/// `gate_self_loops`.
std::vector<std::unique_ptr<Pass>> flow_stages(const FlowOptions& opt,
                                               bool gate_self_loops = false);

/// The runner settings every flow stage is judged by: invariant check, a
/// 512-frame / seed-17 function check, and the power keep-gate under
/// `opt`'s estimate mode, stimulus, parameters and cancel token.
PassManager::Options flow_runner_options(const FlowOptions& opt);

/// Combinational low-power flow; function verified stage by stage.
FlowResult optimize_combinational(const Netlist& input,
                                  const FlowOptions& opt = {});

/// Sequential low-power flow: the combinational ladder on a netlist with
/// registers, plus a final hold-on-self-loop gating stage when the strashed
/// input has registers — the flow that exercises Dff-crossing incremental
/// re-estimation.
FlowResult optimize_sequential(const Netlist& input,
                               const FlowOptions& opt = {});

struct FsmFlowResult {
  Netlist circuit;
  double wswitch_binary = 0.0;    // weighted FF switching, binary codes
  double wswitch_lowpower = 0.0;  // after annealing
  double power_binary_w = 0.0;    // measured on synthesized logic
  double power_lowpower_w = 0.0;
  double power_gated_w = 0.0;     // low-power encoding + self-loop gating
  double clock_saving_fraction = 0.0;  // from self-loop gating
};

/// FSM flow: encode (binary vs annealed), synthesize, self-loop gate.
FsmFlowResult optimize_fsm(const seq::Stg& stg, const FlowOptions& opt = {});

}  // namespace lps::core
