#include "core/flows.hpp"

#include <iterator>
#include <stdexcept>

#include "core/metrics.hpp"
#include "seq/clock_gating.hpp"
#include "seq/encoding.hpp"
#include "seq/guarded_eval.hpp"
#include "sim/logicsim.hpp"

namespace lps::core {

namespace {

// Shared body of the combinational and sequential flows: the input row is
// a full analysis of the circuit as given, the strash row is the runner's
// own baseline analysis of the strashed circuit, and every later row is
// one stage of the pipeline.
FlowResult run_flow(const Netlist& input, const FlowOptions& opt,
                    bool sequential) {
  FlowResult res;
  res.circuit = strash(input);
  if (!sim::equivalent_random(input, res.circuit, 512, 17))
    throw std::logic_error("flow: strash changed function");
  const PassManager::Options po = flow_runner_options(opt);
  StageReport& in = res.stages.emplace_back();
  in.stage = "input";
  const power::Analysis a = power::analyze(input, po.estimate);
  in.power_w = a.report.breakdown.total_w();
  in.glitch_fraction = a.glitch_fraction;
  in.gates = input.num_gates();
  in.delay = input.critical_delay();
  PassManager pm(po);
  // The sequential ladder ends in hold-on-self-loop gating: a functional
  // no-op, kept only when the comparator doesn't eat the clock-gating win.
  for (auto& stage :
       flow_stages(opt, sequential && !res.circuit.dffs().empty()))
    pm.add(std::move(stage));
  auto stages = pm.run(res.circuit);
  stages.front().stage = "strash";
  res.stages.insert(res.stages.end(), std::make_move_iterator(stages.begin()),
                    std::make_move_iterator(stages.end()));
  return res;
}

}  // namespace

std::vector<std::unique_ptr<Pass>> flow_stages(const FlowOptions& opt,
                                               bool gate_self_loops) {
  std::vector<std::unique_ptr<Pass>> stages;
  if (opt.run_dontcare) {
    stages.push_back(make_dontcare_pass(opt.seed));
    logicopt::ResynthOptions rso;
    rso.workers = opt.opt_workers;
    // Re-score on the stimulus the stage measured its activities with.
    rso.rescore_seed = opt.seed;
    stages.push_back(make_resynth_pass(opt.seed, rso));
  }
  if (opt.run_datapath) {
    logicopt::rewrite::RewriteOptions ro;
    ro.seed = opt.seed;
    // Match the flow's own estimator stimulus so that (in ZeroDelay mode)
    // a rewrite the engine keeps is a win under the stage keep-check too.
    ro.sim_vectors = opt.sim_vectors;
    ro.workers = opt.opt_workers;
    stages.push_back(make_datapath_rewrite_pass(ro));
  }
  if (opt.run_bdd_synth) {
    logicopt::BddSynthOptions bo;
    // Match the flow's estimator stimulus so a cone the engine keeps is a
    // win under the stage keep-check too (ZeroDelay mode).
    bo.sim_vectors = opt.sim_vectors;
    bo.seed = opt.seed;
    stages.push_back(make_bdd_synth_pass(bo));
  }
  if (opt.run_balance) stages.push_back(make_balance_pass());
  if (opt.run_sizing)
    stages.push_back(make_sizing_pass(opt.sim_vectors, opt.seed, opt.params));
  if (gate_self_loops) stages.push_back(make_selfloop_gate_pass());
  return stages;
}

PassManager::Options flow_runner_options(const FlowOptions& opt) {
  PassManager::Options po;
  po.verify_vectors = 512;
  po.verify_seed = 17;
  po.estimate_power = true;
  po.estimate.mode = opt.estimate_mode;
  po.estimate.n_vectors = opt.sim_vectors;
  po.estimate.seed = opt.seed;
  po.estimate.params = opt.params;
  po.estimate.cancel = opt.cancel;
  return po;
}

FlowResult optimize_combinational(const Netlist& input,
                                  const FlowOptions& opt) {
  return run_flow(input, opt, /*sequential=*/false);
}

FlowResult optimize_sequential(const Netlist& input, const FlowOptions& opt) {
  return run_flow(input, opt, /*sequential=*/true);
}

FsmFlowResult optimize_fsm(const seq::Stg& stg, const FlowOptions& opt) {
  metrics::ScopedTimer timer("flow.fsm", /*trace=*/true);
  FsmFlowResult r;
  auto binary = seq::binary_encoding(stg);
  seq::AnnealOptions an;
  an.seed = static_cast<std::uint32_t>(opt.seed);
  auto low = seq::low_power_encoding(stg, an);
  r.wswitch_binary = binary.weighted_switching(stg);
  r.wswitch_lowpower = low.weighted_switching(stg);

  Netlist nb = seq::synthesize_fsm(stg, binary, stg.state_name(0) + "_bin");
  Netlist nl = seq::synthesize_fsm(stg, low, stg.state_name(0) + "_low");
  const power::AnalysisOptions ao = flow_runner_options(opt).estimate;
  r.power_binary_w = power::analyze(nb, ao).report.breakdown.total_w();

  r.power_lowpower_w = power::analyze(nl, ao).report.breakdown.total_w();
  seq::gate_fsm_self_loops(nl);
  r.power_gated_w = power::analyze(nl, ao).report.breakdown.total_w();
  auto patterns = seq::detect_hold_patterns(nl);
  auto ca = seq::clock_activity(nl, patterns, opt.sim_vectors, opt.seed);
  r.clock_saving_fraction = ca.clock_power_saving_fraction();
  r.circuit = std::move(nl);
  return r;
}

}  // namespace lps::core
