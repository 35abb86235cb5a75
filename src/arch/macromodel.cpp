#include "arch/macromodel.hpp"

#include <cmath>
#include <stdexcept>

#include "power/power_model.hpp"
#include "sim/logicsim.hpp"

namespace lps::arch {

namespace {

double mean_toggle_rate(const StatPoint& probs) {
  double t = 0.0;
  for (double p : probs) t += 2.0 * p * (1.0 - p);
  return probs.empty() ? 0.0 : t / static_cast<double>(probs.size());
}

}  // namespace

double gate_level_cap_ff(const Netlist& module, const StatPoint& probs,
                         std::size_t n_vectors, std::uint64_t seed) {
  if (probs.size() != module.inputs().size())
    throw std::invalid_argument("gate_level_cap_ff: stat width mismatch");
  auto st = sim::measure_activity(module, std::max<std::size_t>(2, n_vectors / 64),
                                  seed, probs);
  const std::vector<double> node_cap =
      power::node_capacitances(module, power::PowerParams{});
  double cap = 0.0;
  for (NodeId id = 0; id < module.size(); ++id) {
    if (module.is_dead(id)) continue;
    cap += node_cap[id] * 1e15 * st.transition_prob[id];
  }
  return cap;
}

PfaModel calibrate_pfa(const Netlist& module, std::size_t n_vectors) {
  StatPoint uniform(module.inputs().size(), 0.5);
  return {gate_level_cap_ff(module, uniform, n_vectors)};
}

ActivityModel calibrate_activity_model(const Netlist& module,
                                       const std::vector<StatPoint>& training,
                                       std::size_t n_vectors) {
  // Least squares fit of cap = c0 + c1 * mean_toggle_rate over training.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  double n = static_cast<double>(training.size());
  for (const auto& pt : training) {
    double x = mean_toggle_rate(pt);
    double y = gate_level_cap_ff(module, pt, n_vectors);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  ActivityModel m;
  double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) {
    m.c0_ff = n > 0 ? sy / n : 0.0;
    m.c1_ff = 0.0;
  } else {
    m.c1_ff = (n * sxy - sx * sy) / denom;
    m.c0_ff = (sy - m.c1_ff * sx) / n;
  }
  return m;
}

MacroModelEval evaluate_macromodels(const Netlist& module,
                                    const std::vector<StatPoint>& training,
                                    const std::vector<StatPoint>& test,
                                    std::size_t n_vectors) {
  MacroModelEval ev;
  ev.module = module.name();
  PfaModel pfa = calibrate_pfa(module, n_vectors);
  ActivityModel act = calibrate_activity_model(module, training, n_vectors);
  double epfa = 0, eact = 0;
  for (const auto& pt : test) {
    // Distinct seed: the truth run must be independent of calibration.
    double truth = gate_level_cap_ff(module, pt, n_vectors, 1234567);
    if (truth <= 0) continue;
    double pred_pfa = pfa.cap_per_activation_ff;
    double pred_act = act.c0_ff + act.c1_ff * mean_toggle_rate(pt);
    epfa += std::abs(pred_pfa - truth) / truth;
    eact += std::abs(pred_act - truth) / truth;
  }
  double n = static_cast<double>(test.size());
  ev.mean_abs_err_pfa = n > 0 ? epfa / n : 0.0;
  ev.mean_abs_err_activity = n > 0 ? eact / n : 0.0;
  return ev;
}

namespace {

// Compose: B's first inputs are driven by A's outputs; the rest stay PIs.
Netlist compose(const Netlist& a, const Netlist& b) {
  Netlist n(a.name() + "_into_" + b.name());
  std::vector<NodeId> amap(a.size(), kNoNode);
  for (NodeId id : a.topo_order()) {
    const Node& nd = a.node(id);
    if (nd.type == GateType::Input) {
      amap[id] = n.add_input("a_" + nd.name);
    } else if (nd.type == GateType::Const0) {
      amap[id] = n.add_const(false);
    } else if (nd.type == GateType::Const1) {
      amap[id] = n.add_const(true);
    } else if (nd.type == GateType::Dff) {
      amap[id] = n.add_dff(n.add_const(false), nd.init_value);
    } else {
      std::vector<NodeId> fi;
      for (NodeId f : nd.fanins) fi.push_back(amap[f]);
      amap[id] = n.add_gate(nd.type, std::move(fi));
    }
  }
  std::vector<NodeId> bmap(b.size(), kNoNode);
  std::size_t feed = 0;
  for (NodeId id : b.topo_order()) {
    const Node& nd = b.node(id);
    if (nd.type == GateType::Input) {
      bmap[id] = feed < a.outputs().size()
                     ? amap[a.outputs()[feed++]]
                     : n.add_input("b_" + nd.name);
    } else if (nd.type == GateType::Const0) {
      bmap[id] = n.add_const(false);
    } else if (nd.type == GateType::Const1) {
      bmap[id] = n.add_const(true);
    } else if (nd.type == GateType::Dff) {
      bmap[id] = n.add_dff(n.add_const(false), nd.init_value);
    } else {
      std::vector<NodeId> fi;
      for (NodeId f : nd.fanins) fi.push_back(bmap[f]);
      bmap[id] = n.add_gate(nd.type, std::move(fi));
    }
  }
  const auto& outs = b.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i)
    n.add_output(bmap[outs[i]], b.output_names()[i]);
  return n;
}

}  // namespace

AdditiveModelEval evaluate_additive_model(const Netlist& a, const Netlist& b,
                                          std::size_t n_vectors) {
  AdditiveModelEval ev;
  ev.additive_cap_ff = calibrate_pfa(a, n_vectors).cap_per_activation_ff +
                       calibrate_pfa(b, n_vectors).cap_per_activation_ff;
  Netlist joint = compose(a, b);
  StatPoint uniform(joint.inputs().size(), 0.5);
  ev.truth_cap_ff = gate_level_cap_ff(joint, uniform, n_vectors, 777);
  ev.relative_error =
      ev.truth_cap_ff > 0
          ? (ev.additive_cap_ff - ev.truth_cap_ff) / ev.truth_cap_ff
          : 0.0;
  return ev;
}

}  // namespace lps::arch
