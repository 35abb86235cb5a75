#include "sim/compiled.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/env.hpp"
#include "core/metrics.hpp"
#include "sim/kernels.hpp"
#include "sim/kernels_impl.hpp"

namespace lps::sim {

std::size_t normalize_block(std::size_t b) {
  if (b >= 16) return 16;
  if (b >= 8) return 8;
  if (b >= 4) return 4;
  if (b >= 2) return 2;
  return 1;
}

SimOptions& sim_options() {
  static SimOptions opt = [] {
    SimOptions o;
    // A malformed value is rejected with a positioned diagnostic on stderr
    // and falls back to the default (core/env.hpp).  Choice indices line
    // up with the SimdWidth enumerators; a request the hardware or binary
    // can't honor degrades at dispatch (resolve_simd), not here — the
    // operator's intent is preserved for diagnostics.
    static const char* const kWidths[] = {"scalar", "avx2", "avx512", "auto"};
    o.width = static_cast<SimdWidth>(core::env_choice_or(
        "LPS_SIM_WIDTH", kWidths, 4, static_cast<std::size_t>(o.width)));
    return o;
  }();
  return opt;
}

using Op = kern::Op;  // record opcodes live with the kernels now

namespace {

// Route one tape replay to the kernel build resolve_simd() picked.  The
// AVX entry points are only reachable when their width was detected, so no
// illegal instruction can execute (see kernels.hpp).
void run_linear(SimdWidth w, const std::uint32_t* p, const std::uint32_t* end,
                std::uint64_t* val, std::size_t block) {
  switch (w) {
#if defined(LPS_HAVE_AVX512_KERNELS)
    case SimdWidth::Avx512:
      kern::exec_linear_avx512(p, end, val, block);
      return;
#endif
#if defined(LPS_HAVE_AVX2_KERNELS)
    case SimdWidth::Avx2:
      kern::exec_linear_avx2(p, end, val, block);
      return;
#endif
    default:
      kern::exec_linear_scalar(p, end, val, block);
      return;
  }
}

void run_list(SimdWidth w, const std::uint32_t* tape,
              const std::uint32_t* offset, std::span<const NodeId> gates,
              std::uint64_t* val, std::size_t block) {
  switch (w) {
#if defined(LPS_HAVE_AVX512_KERNELS)
    case SimdWidth::Avx512:
      kern::exec_list_avx512(tape, offset, gates, val, block);
      return;
#endif
#if defined(LPS_HAVE_AVX2_KERNELS)
    case SimdWidth::Avx2:
      kern::exec_list_avx2(tape, offset, gates, val, block);
      return;
#endif
    default:
      kern::exec_list_scalar(tape, offset, gates, val, block);
      return;
  }
}

}  // namespace

void count_columns(const std::uint64_t* val, std::span<const NodeId> nodes,
                   std::size_t block, std::size_t b, bool first,
                   std::uint64_t* ones, std::uint64_t* toggles,
                   std::uint64_t* last) {
  switch (resolve_simd(sim_options().width)) {
#if defined(LPS_HAVE_AVX512_KERNELS)
    case SimdWidth::Avx512:
      kern::count_columns_avx512(val, nodes, block, b, first, ones, toggles,
                                 last);
      return;
#endif
#if defined(LPS_HAVE_AVX2_KERNELS)
    case SimdWidth::Avx2:
      kern::count_columns_avx2(val, nodes, block, b, first, ones, toggles,
                               last);
      return;
#endif
    default:
      kern::count_columns_scalar(val, nodes, block, b, first, ones, toggles,
                                 last);
      return;
  }
}

CompiledSim::CompiledSim(const Netlist& net) : net_(&net) { rebuild(); }

void CompiledSim::rebuild() {
  const Netlist& n = *net_;
  tape_.clear();
  records_ = 0;
  offset_.assign(n.size(), kNoRecord);
  order_.clear();
  live_.clear();
  dff_list_ = n.dffs();
  for (NodeId id : n.topo_order()) {
    const Node& nd = n.node(id);
    if (nd.type == GateType::Input || nd.type == GateType::Dff) continue;
    order_.push_back(id);
  }
  std::size_t words = 0;
  for (NodeId id : order_) words += 2 + n.node(id).fanins.size();
  tape_.reserve(words);
  for (NodeId id : order_) emit(id);
  for (NodeId id = 0; id < n.size(); ++id)
    if (!n.is_dead(id)) live_.push_back(id);
  base_words_ = tape_.size();
  compact_ = true;
  core::metrics::count("sim.compiled.rebuilds");
  core::metrics::count("sim.compiled.records", static_cast<double>(records_));
}

void append_record(std::vector<std::uint32_t>& tape, GateType t,
                   std::uint32_t out, std::span<const std::uint32_t> ins) {
  const auto n = static_cast<std::uint32_t>(ins.size());
  Op op;
  switch (t) {
    case GateType::Const0: op = Op::Const0; break;
    case GateType::Const1: op = Op::Const1; break;
    case GateType::Buf: op = Op::Buf; break;
    case GateType::Not: op = Op::Not; break;
    case GateType::And: op = n == 2 ? Op::And2 : Op::AndN; break;
    case GateType::Or: op = n == 2 ? Op::Or2 : Op::OrN; break;
    case GateType::Nand: op = n == 2 ? Op::Nand2 : Op::NandN; break;
    case GateType::Nor: op = n == 2 ? Op::Nor2 : Op::NorN; break;
    case GateType::Xor: op = n == 2 ? Op::Xor2 : Op::XorN; break;
    case GateType::Xnor: op = n == 2 ? Op::Xnor2 : Op::XnorN; break;
    case GateType::Mux: op = Op::Mux; break;
    default:
      throw std::invalid_argument("append_record: sources have no record");
  }
  tape.push_back(static_cast<std::uint32_t>(op) | (n << 8));
  tape.push_back(out);
  tape.insert(tape.end(), ins.begin(), ins.end());
}

void exec_tape(std::span<const std::uint32_t> tape, std::uint64_t* val,
               std::size_t block) {
  if (block != normalize_block(block))
    throw std::invalid_argument("exec_tape: unsupported block");
  run_linear(resolve_simd(sim_options().width), tape.data(),
             tape.data() + tape.size(), val, block);
}

void CompiledSim::emit(NodeId id) {
  const Node& nd = net_->node(id);
  if (nd.dead || nd.type == GateType::Input || nd.type == GateType::Dff) {
    if (offset_[id] != kNoRecord) {
      offset_[id] = kNoRecord;
      --records_;
    }
    return;
  }
  if (offset_[id] == kNoRecord) ++records_;
  offset_[id] = static_cast<std::uint32_t>(tape_.size());
  append_record(tape_, nd.type, id, nd.fanins);
}

void CompiledSim::update(const Netlist::TouchedNodes& touched) {
  if (touched.all) {
    rebuild();
    return;
  }
  const Netlist& n = *net_;
  if (offset_.size() < n.size()) offset_.resize(n.size(), kNoRecord);
  for (NodeId id : touched.value_roots) emit(id);
  if (!touched.value_roots.empty()) compact_ = false;
  core::metrics::count("sim.compiled.patches");
  core::metrics::count("sim.compiled.patched_nodes",
                       static_cast<double>(touched.value_roots.size()));
  // Garbage bound: once stale records outweigh the original program,
  // recompile (which also restores the linear-replay form).
  if (tape_.size() > 2 * std::max<std::size_t>(base_words_, 256)) rebuild();
}

void CompiledSim::revert_to(std::size_t n_nodes,
                            std::span<const NodeId> patched) {
  if (offset_.size() > n_nodes) {
    for (std::size_t id = n_nodes; id < offset_.size(); ++id)
      if (offset_[id] != kNoRecord) --records_;
    offset_.resize(n_nodes);
  }
  for (NodeId id : patched)
    if (id < n_nodes) emit(id);
  compact_ = false;
  if (tape_.size() > 2 * std::max<std::size_t>(base_words_, 256)) rebuild();
}

void CompiledSim::exec_all(std::uint64_t* val, std::size_t block) const {
  if (!compact_)
    throw std::logic_error(
        "CompiledSim::exec_all: tape is patched; use exec_gates");
  exec_tape(tape_, val, block);
}

void CompiledSim::exec_gates(std::uint64_t* val, std::size_t block,
                             std::span<const NodeId> gates) const {
  if (block != normalize_block(block))
    throw std::invalid_argument("CompiledSim::exec_gates: unsupported block");
  run_list(resolve_simd(sim_options().width), tape_.data(), offset_.data(),
           gates, val, block);
}

ConeSchedule CompiledSim::cone_schedule(const std::vector<bool>& mask) const {
  const Netlist& n = *net_;
  if (mask.size() != n.size())
    throw std::invalid_argument(
        "CompiledSim::cone_schedule: mask size mismatch");
  ConeSchedule s;
  // Depth-first postorder over the masked subgraph only: O(cone) rather
  // than a full topo sort, and valid after patches (new nodes are ordered
  // here, not by the stale compact order()).
  std::vector<std::uint8_t> state(n.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::pair<NodeId, std::uint32_t>> stack;
  auto leaf = [&](NodeId id) {
    const Node& nd = n.node(id);
    if (nd.dead || nd.type == GateType::Input) {
      state[id] = 2;
      return true;
    }
    if (nd.type == GateType::Dff) {
      s.dffs.push_back(id);
      state[id] = 2;
      return true;
    }
    return false;
  };
  for (NodeId root = 0; root < n.size(); ++root) {
    if (!mask[root] || state[root] || leaf(root)) continue;
    stack.emplace_back(root, 0);
    state[root] = 1;
    while (!stack.empty()) {
      auto& [id, k] = stack.back();
      const auto& fi = n.node(id).fanins;
      if (k == fi.size()) {
        s.gates.push_back(id);
        state[id] = 2;
        stack.pop_back();
        continue;
      }
      NodeId f = fi[k++];
      if (mask[f] && !state[f] && !leaf(f)) {
        stack.emplace_back(f, 0);
        state[f] = 1;
      }
    }
  }
  return s;
}

void CompiledSim::eval_into(Frame& f, std::span<const std::uint64_t> pi_words,
                            std::span<const std::uint64_t> dff_words) const {
  const Netlist& n = *net_;
  if (pi_words.size() != n.inputs().size())
    throw std::invalid_argument("CompiledSim::eval: PI word count mismatch");
  f.assign(n.size(), 0);
  for (std::size_t i = 0; i < pi_words.size(); ++i)
    f[n.inputs()[i]] = pi_words[i];
  // dff_list_ goes stale after patches; re-derive in that case.
  const std::vector<NodeId> fresh = compact_ ? std::vector<NodeId>{} : n.dffs();
  const std::vector<NodeId>& dffs = compact_ ? dff_list_ : fresh;
  if (!dff_words.empty() && dff_words.size() != dffs.size())
    throw std::invalid_argument(
        "CompiledSim::eval: register word count mismatch");
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const Node& d = n.node(dffs[i]);
    f[dffs[i]] =
        dff_words.empty() ? (d.init_value ? ~0ULL : 0ULL) : dff_words[i];
  }
  if (compact_) {
    exec_all(f.data(), 1);
  } else {
    std::vector<bool> mask(n.size());
    for (NodeId id = 0; id < n.size(); ++id) mask[id] = !n.is_dead(id);
    auto sched = cone_schedule(mask);
    exec_gates(f.data(), 1, sched.gates);
  }
}

core::AlignedWords free_source_batch(const CompiledSim& cs, std::size_t words,
                                     std::uint64_t seed) {
  const Netlist& n = cs.net();
  core::AlignedWords val(n.size() * words, 0);
  std::mt19937_64 rng(seed);
  for (std::size_t w = 0; w < words; ++w) {
    for (NodeId pi : n.inputs()) val[pi * words + w] = rng();
    for (NodeId q : cs.dffs()) val[q * words + w] = rng();
  }
  cs.exec_all(val.data(), words);
  return val;
}

}  // namespace lps::sim
