#include "core/pass.hpp"

#include <stdexcept>

#include "circuit/sizing.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "logicopt/dontcare.hpp"
#include "logicopt/path_balance.hpp"
#include "seq/guarded_eval.hpp"
#include "sim/logicsim.hpp"

namespace lps::core {

namespace {

template <typename T>
std::string change(T before, T after) {
  return std::to_string(before) + " -> " + std::to_string(after);
}

void fill(StageReport& r, const Netlist& net, const power::Analysis& a) {
  r.power_w = a.report.breakdown.total_w();
  r.glitch_fraction = a.glitch_fraction;
  r.gates = net.num_gates();
  r.delay = net.critical_delay();
}

}  // namespace

bool all_ok(const std::vector<StageReport>& reports) {
  for (const auto& r : reports)
    if (!r.ok()) return false;
  return true;
}

std::vector<StageReport> PassManager::run(Netlist& net) const {
  std::vector<StageReport> reports;
  if (opt_.estimate_power) {
    reports.emplace_back().stage = "baseline";
    fill(reports.back(), net, power::analyze(net, opt_.estimate));
  }
  const sim::SimTrace ref =
      sim::functional_trace(net, opt_.verify_vectors, opt_.verify_seed);

  for (const auto& p : passes_) {
    metrics::ScopedTimer timer("flow." + p->name(), /*trace=*/true);
    StageReport rep;
    rep.stage = p->name();
    const std::size_t rb_before = net.undo_rollbacks();
    net.begin_undo();
    // A pass may die with nested epochs of its own still open (the datapath
    // engine journals each candidate): unwind down TO the pass epoch, or
    // the pass is left half-applied.
    const std::size_t depth = net.undo_depth();
    auto unwind = [&net, depth] {
      while (net.undo_depth() >= depth) net.rollback_undo();
    };
    try {
      rep.summary = p->run(net);
      // A pass that *returns* with inner epochs open is a benign defect:
      // absorb them into the pass epoch (the checks below still guard the
      // result) and record the smell.
      while (net.undo_depth() > depth) {
        metrics::count("flow.stray_epochs");
        net.commit_undo();
      }
      if (std::string err = net.check(); !err.empty())
        rep.note = "broke netlist invariants: " + err;
      else if (sim::functional_trace(net, opt_.verify_vectors,
                                     opt_.verify_seed) != ref)
        rep.note = "changed circuit function";
      else if (opt_.estimate_power)
        fill(rep, net, power::analyze(net, opt_.estimate));
    } catch (const CancelledError&) {
      unwind();
      throw;
    } catch (const std::exception& e) {
      rep.note = e.what();
    }

    if (!rep.note.empty()) {
      unwind();
      rep.status = "failed";
    } else if (!opt_.estimate_power || rep.power_w <= reports.back().power_w) {
      net.commit_undo();
    } else {
      net.rollback_undo();
      rep.status = "reverted";
    }
    if (rep.status != "kept") {
      rep.stage += " (" + rep.status + ")";
      // The journal restored exactly the circuit the previous entry
      // describes.
      if (opt_.estimate_power) {
        const StageReport& prev = reports.back();
        rep.power_w = prev.power_w;
        rep.glitch_fraction = prev.glitch_fraction;
        rep.gates = prev.gates;
        rep.delay = prev.delay;
      }
    }
    metrics::count("flow.stages_" + rep.status);
    rep.rollbacks = net.undo_rollbacks() - rb_before;
    reports.push_back(std::move(rep));
  }
  return reports;
}

std::unique_ptr<Pass> make_strash_pass() {
  return std::make_unique<FnPass>("strash", [](Netlist& net) {
    std::size_t before = net.num_gates();
    net = strash(net);
    return "gates " + change(before, net.num_gates());
  });
}

std::unique_ptr<Pass> make_sweep_pass() {
  return std::make_unique<FnPass>("sweep", [](Netlist& net) {
    std::size_t removed = net.sweep();
    return "removed " + std::to_string(removed) + " dead nodes";
  });
}

std::unique_ptr<Pass> make_dontcare_pass(std::uint64_t seed) {
  return std::make_unique<FnPass>("dontcare", [seed](Netlist& net) {
    auto st = sim::measure_activity(net, 64, seed);
    auto res = logicopt::optimize_dontcare(net, st.transition_prob);
    return "consts " + std::to_string(res.const_replacements) + ", merges " +
           std::to_string(res.merges) + ", gates " +
           change(res.gates_before, res.gates_after) +
           (res.limited ? ", BDD node limit hit" : "");
  });
}

std::unique_ptr<Pass> make_resynth_pass(std::uint64_t seed,
                                        logicopt::ResynthOptions opt) {
  return std::make_unique<FnPass>("resynth", [seed, opt](Netlist& net) {
    auto st = sim::measure_activity(net, 64, seed);
    auto res = logicopt::resynthesize_windows(net, st.transition_prob, opt);
    return "rewrote " + std::to_string(res.nodes_rewritten) + "/" +
           std::to_string(res.windows_examined) + " windows, gates " +
           change(res.gates_before, res.gates_after) +
           (res.note.empty() ? "" : ", " + res.note);
  });
}

std::unique_ptr<Pass> make_datapath_rewrite_pass(
    logicopt::rewrite::RewriteOptions opt) {
  return std::make_unique<FnPass>("datapath", [opt](Netlist& net) {
    auto res = logicopt::rewrite::rewrite_datapath(net, opt);
    return "kept " + std::to_string(res.kept) + "/" +
           std::to_string(res.candidates_scored) + " scored (" +
           std::to_string(res.candidates_seen) + " matched), power " +
           change(res.power_before_w, res.power_after_w) + " W, gates " +
           change(res.gates_before, res.gates_after) +
           (res.capped ? ", queue CAPPED" : "");
  });
}

std::unique_ptr<Pass> make_bdd_synth_pass(logicopt::BddSynthOptions opt) {
  return std::make_unique<FnPass>("bdd_synth", [opt](Netlist& net) {
    auto res = logicopt::synthesize_bdd_cones(net, opt);
    return "kept " + std::to_string(res.kept) + "/" +
           std::to_string(res.cones_examined) + " cones, power " +
           change(res.power_before_w, res.power_after_w) + " W, gates " +
           change(res.gates_before, res.gates_after) +
           (res.note.empty() ? "" : ", " + res.note);
  });
}

std::unique_ptr<Pass> make_balance_pass(int buffer_budget) {
  return std::make_unique<FnPass>("balance", [buffer_budget](Netlist& net) {
    auto res = buffer_budget < 0
                   ? logicopt::full_balance(net)
                   : logicopt::partial_balance(net, buffer_budget);
    return "buffers +" + std::to_string(res.buffers_inserted) + ", delay " +
           change(res.critical_delay_before, res.critical_delay_after);
  });
}

std::unique_ptr<Pass> make_sizing_pass(std::size_t sim_vectors,
                                       std::uint64_t seed,
                                       power::PowerParams params) {
  return std::make_unique<FnPass>(
      "sizing", [sim_vectors, seed, params](Netlist& net) {
        power::AnalysisOptions ao;
        ao.mode = power::ActivityMode::Timed;
        ao.n_vectors = sim_vectors;
        ao.seed = seed;
        auto a = power::analyze(net, ao);
        circuit::SizingParams sp;
        sp.start_from_max = false;  // in-place: only ever removes capacitance
        sp.min_size = 0.5;
        sp.step = 0.25;
        auto res = circuit::size_for_power(net, a.toggles_per_cycle, params, sp);
        return std::to_string(res.downsizing_moves) + " downsizing moves";
      });
}

std::unique_ptr<Pass> make_selfloop_gate_pass() {
  return std::make_unique<FnPass>("selfloop-gate", [](Netlist& net) {
    auto res = seq::gate_fsm_self_loops(net);
    return std::to_string(res.state_bits) + " state bits, " +
           std::to_string(res.comparator_gates) + " comparator gates";
  });
}

}  // namespace lps::core
