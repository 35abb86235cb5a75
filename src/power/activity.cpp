#include "power/activity.hpp"

#include <algorithm>
#include <span>

#include "sim/simd.hpp"

namespace lps::power {

namespace {

// Gating-aware clock-pin power over the live registers `dffs`:
// free-running registers see two clock-pin transitions per cycle; a
// register with a load-enable pin is clock-gated by it, so its pin toggles
// 2*P(EN=1) (from `signal_prob`, which may be empty only when no register
// has an enable), plus one gating cell per distinct enable signal sees the
// raw clock.
double clock_power(const Netlist& net, std::span<const NodeId> dffs,
                   std::span<const double> signal_prob, const PowerParams& p) {
  double cap_toggles_ff = 0.0;  // fF-toggles per cycle
  // Distinct enable signals, deduplicated by sort+unique (a per-call
  // std::set costs one allocation per register).
  std::vector<NodeId> enables;
  for (NodeId d : dffs) {
    const Node& nd = net.node(d);
    if (nd.fanins.size() == 2) {
      cap_toggles_ff += p.clock_pin_ff * 2.0 * signal_prob[nd.fanins[1]];
      enables.push_back(nd.fanins[1]);
    } else {
      cap_toggles_ff += p.clock_pin_ff * 2.0;
    }
  }
  std::sort(enables.begin(), enables.end());
  enables.erase(std::unique(enables.begin(), enables.end()), enables.end());
  cap_toggles_ff += p.gating_cell_ff * 2.0 * static_cast<double>(enables.size());
  return 0.5 * cap_toggles_ff * 1e-15 * p.vdd * p.vdd * p.freq;
}

}  // namespace

namespace detail {

void price_zero_delay(const Netlist& net, std::span<const double> signal_prob,
                      std::span<const double> cap, std::span<const NodeId> dffs,
                      const PowerParams& p, Analysis& a) {
  compute_power(net, a.toggles_per_cycle, cap, p, a.report);
  a.clock_power_w = clock_power(net, dffs, signal_prob, p);
  a.report.breakdown.switching_w += a.clock_power_w;
}

Analysis assemble_zero_delay(const Netlist& net, const sim::ActivityStats& st,
                             const AnalysisOptions& opt) {
  Analysis a;
  a.toggles_per_cycle = st.transition_prob;
  price_zero_delay(net, st.signal_prob, node_capacitances(net, opt.params),
                   net.dffs(), opt.params, a);
  a.vectors_used = st.patterns;
  // Stamped here — the one assembly point both analyze() and the
  // incremental analyzer share — so full and incremental results report
  // the same engine string.
  a.engine = sim::engine_desc();
  return a;
}

}  // namespace detail

namespace {

// Timed report from exact toggle counts: total and functional switching
// through Eqn. (1), their gap being the glitch power.
Analysis assemble_timed(const Netlist& net, const sim::TimedStats& ts,
                        const PowerParams& params) {
  Analysis a;
  a.engine = "waveform";
  a.vectors_used = ts.vectors;
  a.toggles_per_cycle.assign(net.size(), 0.0);
  std::vector<double> functional(net.size(), 0.0);
  double nv = static_cast<double>(std::max<std::size_t>(1, ts.vectors));
  for (NodeId id = 0; id < net.size(); ++id) {
    a.toggles_per_cycle[id] = ts.total_toggles[id] / nv;
    functional[id] = ts.functional_toggles[id] / nv;
  }
  const std::vector<double> cap = node_capacitances(net, params);
  compute_power(net, a.toggles_per_cycle, cap, params, a.report);
  PowerReport func_report;
  compute_power(net, functional, cap, params, func_report);
  a.glitch_power_w =
      a.report.breakdown.switching_w - func_report.breakdown.switching_w;
  a.glitch_fraction = a.report.breakdown.switching_w > 0
                          ? a.glitch_power_w / a.report.breakdown.switching_w
                          : 0.0;
  return a;
}

}  // namespace

Analysis analyze(const Netlist& net, const AnalysisOptions& opt) {
  if (opt.mode == ActivityMode::ZeroDelay) {
    auto st = sim::measure_activity(net, zero_delay_frames(opt.n_vectors),
                                    opt.seed, opt.pi_one_prob, nullptr,
                                    opt.cancel);
    return detail::assemble_zero_delay(net, st, opt);
  }
  Analysis a = assemble_timed(
      net,
      sim::measure_timed_activity(net, opt.n_vectors, opt.seed,
                                  opt.pi_one_prob, opt.cancel),
      opt.params);
  // Clock power: enable duties from a quick zero-delay probability run —
  // skipped entirely when no register has a load-enable pin, since no duty
  // is read then.
  const std::vector<NodeId> dffs = net.dffs();
  sim::ActivityStats zd;
  if (std::any_of(dffs.begin(), dffs.end(), [&](NodeId d) {
        return net.node(d).fanins.size() == 2;
      }))
    zd = sim::measure_activity(net, zero_delay_frames(opt.n_vectors), opt.seed,
                               opt.pi_one_prob, nullptr, opt.cancel);
  a.clock_power_w = clock_power(net, dffs, zd.signal_prob, opt.params);
  a.report.breakdown.switching_w += a.clock_power_w;
  return a;
}

Analysis analyze_sequence(const Netlist& net,
                          const std::vector<std::vector<bool>>& sequence,
                          const PowerParams& params) {
  return assemble_timed(net, sim::simulate_timed_sequence(net, sequence),
                        params);
}

}  // namespace lps::power
