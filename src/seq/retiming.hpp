// retiming.hpp — retiming for minimum period and for low power (§III-C.2).
//
// Two layers:
//  1. RetimeGraph — the Leiserson–Saxe [24] abstraction (vertices with
//     delays, edges with register weights).  min_period_retiming() runs the
//     classic binary search over the feasible clock period with a
//     Bellman-Ford feasibility check of the r-assignment constraints
//        r(u) - r(v) <= w(u,v)                       (W-constraints)
//        r(u) - r(v) <= w(u,v) - 1  if d-path > T    (via W/D matrices).
//  2. Netlist-level power retiming [29] — greedy forward/backward register
//     moves across gates that keep the clock period while reducing the
//     timed (glitch-inclusive) switched capacitance: "switching activity at
//     flip-flop outputs ... can be significantly less than the activity at
//     the flip-flop inputs ... spurious transitions ... are filtered out by
//     the clock."

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/power_model.hpp"

namespace lps::seq {

/// The Leiserson–Saxe retiming graph.
class RetimeGraph {
 public:
  int add_vertex(int delay);
  void add_edge(int from, int to, int weight);  // weight = #registers

  int num_vertices() const { return static_cast<int>(delay_.size()); }
  int delay(int v) const { return delay_[v]; }

  struct Edge {
    int from, to, weight;
  };
  const std::vector<Edge>& edges() const { return edges_; }

  /// Clock period of the current weighting (longest register-free path).
  int period() const;

  /// W and D matrices of Leiserson–Saxe (min registers / max delay along
  /// register-minimal paths).
  void wd_matrices(std::vector<std::vector<int>>& W,
                   std::vector<std::vector<int>>& D) const;

  /// Legal retiming achieving clock period <= target, if one exists.
  std::optional<std::vector<int>> feasible_retiming(int target_period) const;

  /// Minimum achievable period and a witnessing retiming (binary search over
  /// the distinct D values).
  std::pair<int, std::vector<int>> min_period_retiming() const;

  /// Apply a retiming vector: w'(e) = w(e) + r(to) - r(from).
  RetimeGraph retimed(const std::vector<int>& r) const;

 private:
  std::vector<int> delay_;
  std::vector<Edge> edges_;
};

// ---- netlist-level power retiming ------------------------------------------

struct PowerRetimeOptions {
  std::size_t sim_vectors = 512;
  std::uint64_t seed = 99;
  int max_moves = 200;
  power::PowerParams params;
};

struct PowerRetimeResult {
  int moves = 0;
  double power_before_w = 0.0;
  double power_after_w = 0.0;
  int period_before = 0;
  int period_after = 0;
};

/// Greedy local retiming on the netlist: a backward move pushes a register
/// rank from a gate's output to its inputs (when an initial state exists),
/// a forward move pulls registers from all inputs to the output.  A move is
/// kept when the timed (glitch-aware) power drops and the clock
/// period does not grow.  Function preservation is up to retiming
/// equivalence (identical I/O traces after a one-cycle reset prologue).
PowerRetimeResult retime_for_power(Netlist& net,
                                   const PowerRetimeOptions& opt = {});

}  // namespace lps::seq
