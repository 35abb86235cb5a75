// Simulator tests: bit-parallel zero-delay, waveform timed, stimulus.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "eventsim_reference.hpp"
#include "logicsim_reference.hpp"
#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "seq/clock_gating.hpp"
#include "seq/seq_circuit.hpp"
#include "sim/compiled.hpp"
#include "sim/waveform.hpp"
#include "sim/logicsim.hpp"
#include "sim/stimulus.hpp"

namespace lps {
namespace {

TEST(LogicSim, SignalProbabilityMatchesExpectation) {
  // y = a AND b with p(a)=p(b)=0.5 -> p(y)=0.25.
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId y = n.add_and(a, b);
  n.add_output(y, "y");
  auto st = sim::measure_activity(n, 2000, 42);
  EXPECT_NEAR(st.signal_prob[y], 0.25, 0.02);
  // Zero-delay toggle rate of an iid signal: 2 p (1-p) = 0.375.
  EXPECT_NEAR(st.transition_prob[y], 0.375, 0.02);
}

TEST(LogicSim, BiasedInputs) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId y = n.add_not(a);
  n.add_output(y, "y");
  std::vector<double> probs{0.9};
  auto st = sim::measure_activity(n, 2000, 43, probs);
  EXPECT_NEAR(st.signal_prob[a], 0.9, 0.02);
  EXPECT_NEAR(st.signal_prob[y], 0.1, 0.02);
  EXPECT_NEAR(st.transition_prob[y], 2 * 0.9 * 0.1, 0.02);
}

TEST(LogicSim, EquivalenceCatchesDifferences) {
  Netlist a;
  NodeId x = a.add_input("x");
  NodeId y = a.add_input("y");
  a.add_output(a.add_and(x, y), "o");
  Netlist b;
  NodeId x2 = b.add_input("x");
  NodeId y2 = b.add_input("y");
  b.add_output(b.add_or(x2, y2), "o");
  EXPECT_FALSE(sim::equivalent_random(a, b, 8, 1));
  Netlist c;
  NodeId x3 = c.add_input("x");
  NodeId y3 = c.add_input("y");
  c.add_output(c.add_not(c.add_nand(x3, y3)), "o");
  EXPECT_TRUE(sim::equivalent_random(a, c, 64, 1));
}

TEST(LogicSim, SequentialStateAdvances) {
  auto n = bench::shift_register(3);
  reference::LogicSim s(n);
  std::vector<std::uint64_t> state(3, 0);
  std::vector<std::uint64_t> one{~0ULL};
  // Push a 1 through the 3-deep shift register.
  auto f1 = s.eval(one, state);
  state = s.next_state_of(f1);
  std::vector<std::uint64_t> zero{0};
  auto f2 = s.eval(zero, state);
  state = s.next_state_of(f2);
  auto f3 = s.eval(zero, state);
  EXPECT_EQ(f3[n.outputs()[0]] & 1, 0u);  // not yet at the end
  state = s.next_state_of(f3);
  auto f4 = s.eval(zero, state);
  EXPECT_EQ(f4[n.outputs()[0]] & 1, 1u);  // emerged after 3 cycles
}

TEST(EventSim, BalancedTreeHasNoGlitches) {
  auto n = bench::and_tree(16);  // perfectly balanced
  auto ts = sim::measure_timed_activity(n, 500, 7);
  EXPECT_NEAR(ts.glitch_fraction(), 0.0, 1e-9);
}

TEST(EventSim, ReconvergentXorGlitches) {
  // y = a XOR (NOT a -> delayed path): classic static hazard generator:
  // y = a XOR buf(buf(a)) glitches on every a transition under unit delay.
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b1 = n.add_buf(a);
  NodeId b2 = n.add_buf(b1);
  NodeId y = n.add_xor(a, b2);
  n.add_output(y, "y");
  auto ts = sim::measure_timed_activity(n, 400, 11);
  // y's settled value is always 0, so ALL y toggles are spurious.
  EXPECT_GT(ts.total_toggles[y], 0.0);
  EXPECT_EQ(ts.functional_toggles[y], 0.0);
}

TEST(EventSim, FunctionalTogglesMatchZeroDelaySim) {
  auto n = bench::ripple_carry_adder(6);
  auto ts = sim::measure_timed_activity(n, 2000, 13);
  auto zs = sim::measure_activity(n, 64, 13);
  // Average functional toggles per vector should track the zero-delay rate
  // (different RNG streams: loose tolerance).
  double timed = 0, zero = 0;
  for (NodeId id = 0; id < n.size(); ++id) {
    timed += ts.functional_toggles[id] / (double)ts.vectors;
    zero += zs.transition_prob[id];
  }
  EXPECT_NEAR(timed, zero, 0.1 * zero + 1.0);
}

TEST(EventSim, MultiplierGlitchFractionInSurveyRange) {
  // §III-A.2: spurious transitions are 10-40% of switching activity in
  // typical combinational circuits; array multipliers are the canonical
  // heavy case.
  auto n = bench::array_multiplier(6);
  auto ts = sim::measure_timed_activity(n, 600, 17);
  EXPECT_GT(ts.glitch_fraction(), 0.10);
  EXPECT_LT(ts.glitch_fraction(), 0.75);
}

TEST(EventSim, SequentialClockBoundary) {
  auto n = bench::counter(3);
  const std::vector<std::vector<bool>> en(10, std::vector<bool>{true});
  auto ts = sim::simulate_timed_sequence(n, en);
  // Counter bit 0 toggles every cycle functionally.
  auto dffs = n.dffs();
  EXPECT_NEAR(ts.functional_toggles[dffs[0]], 10.0, 1.0);
  // The register clocks at each vector's start, as in the event reference.
  reference::EventSim es(n);
  bool one[1] = {true};
  for (int i = 0; i < 10; ++i) es.apply({one, 1});
  EXPECT_EQ(ts.total_toggles, es.stats().total_toggles);
  EXPECT_EQ(ts.functional_toggles, es.stats().functional_toggles);
}

// ---- Waveform simulator vs the event-driven reference ---------------------

void expect_same_timed(const sim::TimedStats& got, const sim::TimedStats& ref,
                       const std::string& what) {
  ASSERT_EQ(got.vectors, ref.vectors) << what;
  ASSERT_EQ(got.total_toggles, ref.total_toggles) << what;
  ASSERT_EQ(got.functional_toggles, ref.functional_toggles) << what;
}

// Random per-node delays in 0..7 (0 behaves as 1).
Netlist with_random_delays(Netlist net, std::uint32_t seed) {
  std::mt19937 rng(seed);
  for (NodeId id = 0; id < net.size(); ++id)
    if (!net.is_dead(id)) net.node(id).delay = static_cast<int>(rng() % 8);
  return net;
}

// The circuits of the differential check: the default suite, the
// flow_random pool's twelve generator seeds, a 2000-gate random DAG, flow
// outputs (balance buffers included) and three sequential nets, one with
// load-enabled registers.
std::vector<bench::NamedNetlist> timed_circuits() {
  auto nets = bench::default_suite();
  constexpr std::uint32_t kStrata[] = {
      1535578286u, 2653335377u, 961978839u,  1476624210u,
      374703215u,  1433102928u, 1901963766u, 3814778373u,
      4151018557u, 4059216129u, 2054710263u, 164471577u};
  for (std::uint32_t s : kStrata)
    nets.push_back({"rand32x150_s" + std::to_string(s),
                    bench::random_dag(32, 150, s)});
  nets.push_back({"rand64x2000", bench::random_dag(64, 2000, 3)});
  for (const char* name : {"mult4", "rca8"}) {
    Netlist in = name[0] == 'm' ? bench::array_multiplier(4)
                                : bench::ripple_carry_adder(8);
    core::FlowOptions fo;
    fo.sim_vectors = 256;
    nets.push_back({std::string("flow_") + name,
                    core::optimize_combinational(in, fo).circuit});
  }
  nets.push_back({"counter4", bench::counter(4)});
  nets.push_back({"shift5", bench::shift_register(5)});
  auto rf = seq::register_file(4, 4);
  seq::apply_clock_gating(rf, seq::detect_hold_patterns(rf));
  nets.push_back({"rf4x4_gated", std::move(rf)});
  return nets;
}

TEST(TimedSim, MatchesEventSimReference) {
  for (const auto& [name, base] : timed_circuits()) {
    const bool big = base.num_gates() > 1000;
    for (int variant = 0; variant < 2; ++variant) {
      const Netlist net = variant ? with_random_delays(base, 91) : base;
      for (std::size_t n : {1, 37, 64, 500, 2048, 4096}) {
        if (big && n > 500) continue;  // the scalar reference is the cost
        const auto ref = reference::measure_timed_activity(net, n, 5);
        for (unsigned threads : {1u, 4u}) {
          core::ScopedThreads guard(threads);
          expect_same_timed(sim::measure_timed_activity(net, n, 5), ref,
                            name + (variant ? " random delays" : "") +
                                " n=" + std::to_string(n) +
                                " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(TimedSim, BiasedInputsAndGivenSequences) {
  for (const auto& [name, net] : timed_circuits()) {
    if (net.num_gates() > 1000) continue;
    std::vector<double> prob(net.inputs().size());
    for (std::size_t i = 0; i < prob.size(); ++i)
      prob[i] = 0.05 + 0.9 * static_cast<double>(i % 7) / 6.0;
    expect_same_timed(sim::measure_timed_activity(net, 700, 9, prob),
                      reference::measure_timed_activity(net, 700, 9, prob),
                      name + " biased");
    // A given stream through analyze_sequence and the event reference.
    std::mt19937 rng(17);
    std::vector<std::vector<bool>> seq(150,
                                       std::vector<bool>(net.inputs().size()));
    reference::EventSim es(net);
    std::unique_ptr<bool[]> buf(new bool[seq[0].size() + 1]);
    for (auto& v : seq) {
      for (std::size_t i = 0; i < v.size(); ++i) buf[i] = v[i] = rng() & 1;
      es.apply({buf.get(), v.size()});
    }
    expect_same_timed(sim::simulate_timed_sequence(net, seq), es.stats(),
                      name + " sequence");
    const auto a = power::analyze_sequence(net, seq);
    EXPECT_EQ(a.engine, "waveform");
    EXPECT_EQ(a.vectors_used, seq.size());
  }
}

TEST(TimedSim, HugeDelayStaysSparse) {
  // One gate at delay 1e6 inside a reconvergent cone: the waveform holds
  // the distinct change times, never one word per time unit.
  Netlist net = bench::array_multiplier(4);
  const auto order = net.topo_order();
  const auto unit = sim::measure_timed_activity(net, 96, 4);
  NodeId slow = kNoNode;  // a switching multi-fanout gate mid-array
  for (std::size_t i = order.size() / 2; i < order.size(); ++i) {
    const Node& nd = net.node(order[i]);
    if (!is_source(nd.type) && nd.type != GateType::Dff &&
        nd.fanouts.size() > 1 && unit.total_toggles[order[i]] > 0) {
      slow = order[i];
      break;
    }
  }
  ASSERT_NE(slow, kNoNode);
  net.node(slow).delay = 1000000;
  std::vector<std::vector<std::int64_t>> T(net.size());
  std::size_t words = 0;
  for (NodeId id : order) {
    const Node& nd = net.node(id);
    if (nd.type == GateType::Input || nd.type == GateType::Dff) {
      T[id] = {0};
    } else {
      for (NodeId f : nd.fanins)
        for (std::int64_t t : T[f]) T[id].push_back(t + std::max(1, nd.delay));
      std::sort(T[id].begin(), T[id].end());
      T[id].erase(std::unique(T[id].begin(), T[id].end()), T[id].end());
    }
    words += T[id].size();
  }
  EXPECT_EQ(sim::waveform_words(net), words);
  EXPECT_LT(words, std::size_t{100000});
  const auto got = sim::measure_timed_activity(net, 96, 4);
  expect_same_timed(got, reference::measure_timed_activity(net, 96, 4), "1e6");
  EXPECT_NE(got.total_toggles, unit.total_toggles);  // the delay mattered
}

// Distinct delays in [1, 1e6] on every gate: T(g) then grows with the path
// count.  The multiplier stays under the cap and simulates; the random DAG
// passes it and every entry point refuses it up front.
Netlist with_wide_delays(Netlist net, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (NodeId id = 0; id < net.size(); ++id)
    if (net.node(id).type != GateType::Input &&
        net.node(id).type != GateType::Dff)
      net.node(id).delay = 1 + static_cast<int>(rng() % 1000000);
  return net;
}

TEST(TimedSim, WaveformCapHolds) {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::Timed;
  ao.n_vectors = 256;
  const Netlist mult = with_wide_delays(bench::array_multiplier(8), 5);
  const std::size_t words = sim::waveform_words(mult);
  EXPECT_GT(words, std::size_t{100000});
  EXPECT_LE(words, sim::kMaxWaveformWords);
  power::Analysis one;
  {
    core::ScopedThreads guard(1);
    one = power::analyze(mult, ao);
  }
  core::ScopedThreads guard(4);
  const auto four = power::analyze(mult, ao);
  EXPECT_EQ(four.report.breakdown.total_w(), one.report.breakdown.total_w());
  EXPECT_GT(four.glitch_fraction, 0.0);
  core::CancelToken fired;
  fired.cancel();
  EXPECT_THROW(sim::measure_timed_activity(mult, 256, 1, {}, &fired),
               core::CancelledError);

  const Netlist dag = with_wide_delays(bench::random_dag(64, 2000, 3), 5);
  EXPECT_THROW(sim::waveform_words(dag), std::length_error);
  EXPECT_THROW(sim::measure_timed_activity(dag, 256, 1), std::length_error);
  EXPECT_THROW(power::analyze(dag, ao), std::length_error);
  const std::vector<std::vector<bool>> seq(
      4, std::vector<bool>(dag.inputs().size(), true));
  EXPECT_THROW(power::analyze_sequence(dag, seq), std::length_error);
}

TEST(TimedSim, CancelDiscardsPartialCounts) {
  auto net = bench::array_multiplier(6);
  const auto full = sim::measure_timed_activity(net, 2048, 8);
  for (std::int64_t after : {0, 3, 17}) {
    for (unsigned threads : {1u, 4u}) {
      core::ScopedThreads guard(threads);
      core::CancelToken tok;
      tok.cancel_after(after);
      const double runs = core::metrics::value("sim.event.runs");
      EXPECT_THROW(sim::measure_timed_activity(net, 2048, 8, {}, &tok),
                   core::CancelledError);
      EXPECT_EQ(core::metrics::value("sim.event.runs"), runs);
      core::CancelToken idle;
      expect_same_timed(sim::measure_timed_activity(net, 2048, 8, {}, &idle),
                        full, "after cancel");
    }
  }
}

// ---- functional_trace on the tape vs a per-frame interpreter loop ----------

sim::SimTrace interpreter_trace(const Netlist& net, std::size_t n_frames,
                                std::uint64_t seed) {
  sim::SimTrace t;
  t.n_inputs = net.inputs().size();
  t.n_outputs = net.outputs().size();
  t.frames = n_frames;
  t.seed = seed;
  reference::LogicSim sim(net);
  auto dffs = net.dffs();
  t.n_dffs = dffs.size();
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> pi(net.inputs().size()), q(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i)
    q[i] = net.node(dffs[i]).init_value ? ~0ULL : 0ULL;
  std::uint64_t digest = 0x5CA1AB1Eu;
  sim::Frame f;
  for (std::size_t fr = 0; fr < n_frames; ++fr) {
    for (auto& w : pi) w = rng();
    sim.eval_into(f, pi, q);
    for (NodeId o : net.outputs()) digest = core::mix64(digest ^ f[o]);
    q = sim.next_state_of(f);
  }
  t.digest = digest;
  return t;
}

TEST(Sim, FunctionalTraceMatchesInterpreter) {
  auto nets = bench::default_suite();
  nets.push_back({"counter4", bench::counter(4)});
  nets.push_back({"shift5", bench::shift_register(5)});
  auto rf = seq::register_file(4, 4);
  seq::apply_clock_gating(rf, seq::detect_hold_patterns(rf));
  nets.push_back({"rf4x4_gated", std::move(rf)});
  for (const auto& [name, net] : nets)
    for (std::size_t frames : {0, 1, 15, 16, 37, 512})
      EXPECT_EQ(sim::functional_trace(net, frames, 17),
                interpreter_trace(net, frames, 17))
          << name << " frames=" << frames;
}

TEST(Stimulus, CorrelatedStreamHasLowTransitions) {
  auto hot = sim::correlated_stream(16, 4000, 0.05, 3);
  auto cold = sim::uniform_stream(16, 4000, 3);
  EXPECT_LT(sim::count_bus_transitions(hot, 16),
            sim::count_bus_transitions(cold, 16) / 3);
}

TEST(Stimulus, RandomWalkMsbQuieterThanLsb) {
  auto s = sim::random_walk_stream(16, 8000, 30.0, 5);
  // Count per-bit transitions.
  std::size_t lsb = 0, msb = 0;
  for (std::size_t i = 1; i < s.size(); ++i) {
    lsb += (s[i] ^ s[i - 1]) & 1;
    msb += (s[i] ^ s[i - 1]) >> 15 & 1;
  }
  EXPECT_GT(lsb, msb * 4);
}

TEST(Stimulus, AddressStreamMostlySequential) {
  auto s = sim::address_stream(16, 4000, 0.95, 9);
  std::size_t seq = 0;
  for (std::size_t i = 1; i < s.size(); ++i)
    if (s[i] == ((s[i - 1] + 1) & 0xFFFF)) ++seq;
  EXPECT_GT(seq, s.size() * 9 / 10);
}

TEST(Stimulus, BitProbabilities) {
  auto s = sim::uniform_stream(8, 4000, 21);
  auto p = sim::stream_bit_probabilities(s, 8);
  for (double x : p) EXPECT_NEAR(x, 0.5, 0.05);
}

}  // namespace
}  // namespace lps
