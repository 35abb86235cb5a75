// flow_reference.hpp — a full-analysis reference for the stage runner's
// estimate gate, shared by the incremental-estimator tests and E21.
//
// PassManager's estimating runs decide keep/revert inside one pipeline,
// back a losing pass out through the journal, and report it with the
// previous entry's numbers.  This reference does none of that: it runs
// each pass as its own non-estimating single-pass pipeline (so failures
// are still contained), scores every result with a fresh power::analyze,
// and backs out a pass that raised power by restoring a clone taken before
// it.  Matching it checks both the reported powers and every keep/revert
// decision.

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/flows.hpp"
#include "core/pass.hpp"
#include "power/activity.hpp"

namespace lps::reference {

/// `r`'s power, gate and delay fields from a full analysis of `net`.
inline void measure(core::StageReport& r, const Netlist& net,
                    const power::AnalysisOptions& ao) {
  const power::Analysis a = power::analyze(net, ao);
  r.power_w = a.report.breakdown.total_w();
  r.glitch_fraction = a.glitch_fraction;
  r.gates = net.num_gates();
  r.delay = net.critical_delay();
}

/// What an estimating PassManager(opt) run of `passes` over `net` reports:
/// the "baseline" row, then one row per pass.
inline std::vector<core::StageReport> run(
    Netlist& net, std::vector<std::unique_ptr<core::Pass>> passes,
    const core::PassManager::Options& opt) {
  std::vector<core::StageReport> out(1);
  out[0].stage = "baseline";
  measure(out[0], net, opt.estimate);
  core::PassManager::Options ungated = opt;
  ungated.estimate_power = false;
  for (auto& p : passes) {
    const double before = out.back().power_w;
    Netlist saved = net.clone();
    core::PassManager pm(ungated);
    pm.add(std::move(p));
    core::StageReport rep = pm.run(net).front();
    measure(rep, net, opt.estimate);
    if (rep.ok() && rep.power_w > before) {
      net = std::move(saved);
      measure(rep, net, opt.estimate);
      rep.status = "reverted";
      rep.stage += " (reverted)";
    }
    out.push_back(std::move(rep));
  }
  return out;
}

/// What optimize_combinational / optimize_sequential (`sequential`) report
/// for `input`, from the same stage ladder run through reference::run.
inline core::FlowResult flow(const Netlist& input, const core::FlowOptions& opt,
                             bool sequential) {
  const core::PassManager::Options popt = core::flow_runner_options(opt);
  core::FlowResult ref;
  ref.stages.emplace_back().stage = "input";
  measure(ref.stages.back(), input, popt.estimate);
  ref.circuit = strash(input);
  auto ladder = run(
      ref.circuit,
      core::flow_stages(opt, sequential && !ref.circuit.dffs().empty()), popt);
  ladder.front().stage = "strash";
  for (auto& r : ladder) ref.stages.push_back(std::move(r));
  return ref;
}

}  // namespace lps::reference
