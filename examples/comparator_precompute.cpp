// comparator_precompute — the survey's Figure 1, as a runnable program.
//
// Builds the n-bit comparator C > D, selects the precomputation subset
// (which the algorithm discovers to be the two MSBs, exactly as in the
// paper), constructs the Figure 1(b) architecture with its XNOR-driven
// load-enable, verifies cycle-accurate equivalence against the plain
// registered comparator, and reports the measured power of both under
// several input distributions.

#include <iostream>

#include "core/report.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "seq/precompute.hpp"
#include "sim/logicsim.hpp"

int main(int argc, char** argv) {
  using namespace lps;
  int n = (argc > 1) ? std::atoi(argv[1]) : 16;

  auto comb = bench::comparator_gt(n);
  std::cout << n << "-bit comparator: " << comb.num_gates() << " gates\n";

  auto sel = seq::select_precompute_inputs(comb, 2);
  std::cout << "Selected precompute inputs:";
  for (NodeId s : sel.subset) std::cout << ' ' << comb.node(s).name;
  std::cout << "  (hit probability "
            << core::Table::pct(sel.hit_probability) << ")\n";

  auto pre = seq::apply_precomputation(comb, sel.subset);
  auto base = seq::registered_baseline(comb);
  std::cout << "Precomputation logic overhead: " << pre.precompute_gates
            << " gates\n\n";

  // Cycle-accurate equivalence check: both output streams over 100
  // frames of the same random stimulus, register state carried.
  if (!sim::equivalent_random(base, pre.circuit, 100, 7)) {
    std::cerr << "MISMATCH: output streams differ\n";
    return 1;
  }
  std::cout << "Equivalence: 6400 random cycles, outputs identical.\n\n";

  core::Table t({"input dist (P(one))", "baseline uW", "precomp uW",
                 "saving"});
  for (double p : {0.5, 0.3, 0.1}) {
    power::AnalysisOptions ao;
    ao.n_vectors = 4096;
    ao.pi_one_prob.assign(base.inputs().size(), p);
    double pb = power::analyze(base, ao).report.breakdown.total_w();
    double pp = power::analyze(pre.circuit, ao).report.breakdown.total_w();
    t.row({core::Table::num(p, 2), core::Table::num(pb * 1e6, 2),
           core::Table::num(pp * 1e6, 2),
           core::Table::pct(1.0 - pp / pb)});
  }
  t.print(std::cout);
  return 0;
}
