// pass.hpp — the stage runner: netlist optimization pipelines.
//
// PassManager::run is the one runner: the end-to-end flows (flows.hpp) are
// pipelines of the factories below, and user pipelines chain the same
// passes.  Each pass runs inside a Netlist mutation-journal epoch and is
// then checked: invariants (Netlist::check()); function, as the post-pass
// functional_trace() digest against one reference trace taken when the run
// starts (the digest covers primary outputs only, so every kept, reverted
// or failed pass leaves it unchanged); and with Options::estimate_power,
// power — a pass is kept only if a full power::analyze of the result does
// not exceed the previous entry's, the survey's caveat that a transform's
// overheads can eat its saving.
//
// A pass that throws (its estimate included), breaks an invariant or
// changes the function is rolled back through the journal (O(edit size)),
// recorded as "failed" with the reason in StageReport::note, and the
// remaining passes still run.  A cancellation (core::CancelledError)
// unwinds the in-flight pass and propagates.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "logicopt/bdd_synth.hpp"
#include "logicopt/resynth.hpp"
#include "logicopt/rewrite/engine.hpp"
#include "netlist/netlist.hpp"
#include "power/activity.hpp"

namespace lps::core {

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  /// Transform the netlist; return a one-line human-readable summary.
  virtual std::string run(Netlist& net) = 0;
};

/// Adapter for lambda passes.
class FnPass final : public Pass {
 public:
  FnPass(std::string name, std::function<std::string(Netlist&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  std::string name() const override { return name_; }
  std::string run(Netlist& net) override { return fn_(net); }

 private:
  std::string name_;
  std::function<std::string(Netlist&)> fn_;
};

/// One pipeline entry: a pass outcome, or (first entry of an estimating
/// run) the power baseline of the circuit the run started from.
struct StageReport {
  /// Pass name; reverted and failed passes carry a " (reverted)" /
  /// " (failed)" suffix.
  std::string stage;
  /// Estimate of the circuit as the pass left it (Options::estimate_power
  /// only).  Reverted and failed passes report the restored circuit: the
  /// previous entry's numbers, since the journal restored exactly it.
  double power_w = 0.0;
  double glitch_fraction = 0.0;
  std::size_t gates = 0;
  int delay = 0;
  /// "kept" (improved, or baseline), "reverted" (legal rewrite that raised
  /// power — backed out), or "failed" (the transform threw or broke the
  /// circuit — rolled back; see note).
  std::string status = "kept";
  std::string note;  // why the pass failed (status == "failed")
  /// Journal epochs actually rewound while this pass ran, measured from
  /// Netlist::undo_rollbacks() — not inferred from the status.  Includes
  /// rollbacks a transform performs internally (e.g. the datapath engine
  /// backing out losing candidates), plus the pass-epoch rollback itself
  /// for reverted/failed passes.  Summed over a run this equals the
  /// journal's own counter, which is what the accounting tests audit.
  std::size_t rollbacks = 0;
  std::string summary{};  // the pass's own one-line summary

  bool ok() const { return status != "failed"; }
};

/// True when no report failed.
bool all_ok(const std::vector<StageReport>& reports);

class PassManager {
 public:
  struct Options {
    /// Stimulus of the reference functional trace every pass is checked
    /// against.
    std::size_t verify_vectors = 1024;
    std::uint64_t verify_seed = 0xABCD;
    /// Estimate power after every pass and keep a pass only if power does
    /// not rise.  The run's first report is then the baseline ("baseline")
    /// of the input circuit.  Each estimate is one full power::analyze of
    /// the circuit the pass left.
    bool estimate_power = false;
    /// Analysis options for the estimates (estimate_power only).  A cancel
    /// token set here aborts the run from inside an estimate.
    power::AnalysisOptions estimate;
  };

  PassManager() = default;
  explicit PassManager(Options opt) : opt_(opt) {}

  void add(std::unique_ptr<Pass> p) { passes_.push_back(std::move(p)); }
  void add(std::string name, std::function<std::string(Netlist&)> fn) {
    passes_.push_back(std::make_unique<FnPass>(std::move(name), std::move(fn)));
  }

  /// Run all passes in order; returns a report per pass, preceded by the
  /// baseline when estimating.  Failed passes are recorded, rolled back
  /// and skipped — the pipeline continues.
  std::vector<StageReport> run(Netlist& net) const;

 private:
  Options opt_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

// Ready-made passes over this library's techniques.  Passes that measure
// activity take the stimulus seed; 64 words of 64 patterns each.
std::unique_ptr<Pass> make_strash_pass();
std::unique_ptr<Pass> make_sweep_pass();
/// Observability-don't-care rewriting (logicopt/dontcare.hpp); the summary
/// says when the BDD node limit cut the pass short.
std::unique_ptr<Pass> make_dontcare_pass(std::uint64_t seed = 5);
/// Window resynthesis (logicopt/resynth.hpp).
std::unique_ptr<Pass> make_resynth_pass(std::uint64_t seed = 5,
                                        logicopt::ResynthOptions opt = {});
std::unique_ptr<Pass> make_balance_pass(int buffer_budget = -1);  // -1 = full
/// Power-driven datapath rewriting (logicopt/rewrite/engine.hpp).  The
/// engine journals each candidate in a nested undo epoch, which composes
/// with the manager's own pass epoch.
std::unique_ptr<Pass> make_datapath_rewrite_pass(
    logicopt::rewrite::RewriteOptions opt = {});
/// Hybrid BDD→MUX extraction (logicopt/bdd_synth.hpp): per-cone BDDs on
/// the complement-edge manager, activity-weighted sifting, each kept cone
/// proven and power-scored individually.  Candidate epochs nest inside the
/// manager's pass epoch like the datapath engine's.
std::unique_ptr<Pass> make_bdd_synth_pass(logicopt::BddSynthOptions opt = {});
/// In-place slack-based downsizing (circuit/sizing.hpp) driven by a Timed
/// activity estimate over `sim_vectors` vectors from `seed`.
std::unique_ptr<Pass> make_sizing_pass(std::size_t sim_vectors = 2048,
                                       std::uint64_t seed = 5,
                                       power::PowerParams params = {});
/// Hold-on-self-loop register gating (seq::gate_fsm_self_loops).
std::unique_ptr<Pass> make_selfloop_gate_pass();

}  // namespace lps::core
