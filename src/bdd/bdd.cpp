#include "bdd/bdd.hpp"

#include "core/diag.hpp"
#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

namespace lps::bdd {

namespace {
constexpr std::size_t kMinUniqueSlots = 1u << 10;
constexpr std::size_t kMinIteEntries = 1u << 12;  // 2-way: 2^11 sets
constexpr std::size_t kMaxIteEntries = 1u << 20;
}  // namespace

// Public operations pin their arguments and may collect at the outermost
// entry only: a nested call (ite inside exists, mk inside sift) must never
// sweep the temporaries its caller is still holding.
class Manager::OpGuard {
 public:
  OpGuard(Manager& m, std::initializer_list<Ref> pins) : m_(m) {
    if (m_.op_depth_++ == 0)
      m_.maybe_gc(std::span<const Ref>(pins.begin(), pins.size()));
  }
  ~OpGuard() { --m_.op_depth_; }
  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;

 private:
  Manager& m_;
};

Manager::Manager(unsigned num_vars, const Config& config)
    : num_vars_(num_vars),
      node_limit_(config.node_limit),
      complement_(config.complement_edges),
      auto_gc_(config.auto_gc),
      gc_trigger_base_(config.gc_trigger),
      gc_trigger_(config.gc_trigger) {
  nodes_.push_back({kConstVar, kFalse, kFalse});  // the terminal (index 0)
  ref_count_.push_back(0);
  level_of_.resize(num_vars_);
  var_at_.resize(num_vars_);
  std::iota(level_of_.begin(), level_of_.end(), 0u);
  std::iota(var_at_.begin(), var_at_.end(), 0u);
  unique_slots_.assign(kMinUniqueSlots, kEmptySlot);
  ite_cache_.assign(kMinIteEntries, IteEntry{});
}

Manager::Manager(unsigned num_vars, std::size_t node_limit)
    : Manager(num_vars, [node_limit] {
        Config c;
        c.node_limit = node_limit;
        c.auto_gc = false;
        return c;
      }()) {}

Manager::~Manager() {
  if (nodes_.empty()) return;  // moved-from shell: its stats moved on
  core::metrics::count("bdd.managers");
  core::metrics::count("bdd.peak_live",
                       static_cast<double>(peak_live_nodes_));
  flush_metrics();
}

void Manager::flush_metrics() {
  namespace m = core::metrics;
  if (nodes_allocated_) m::count("bdd.nodes", static_cast<double>(nodes_allocated_));
  if (cache_lookups_) m::count("bdd.ite_lookups", static_cast<double>(cache_lookups_));
  if (cache_hits_) m::count("bdd.ite_hits", static_cast<double>(cache_hits_));
  if (unique_hits_) m::count("bdd.unique_hits", static_cast<double>(unique_hits_));
  if (gc_runs_) m::count("bdd.gc.runs", static_cast<double>(gc_runs_));
  if (gc_swept_) m::count("bdd.gc.swept", static_cast<double>(gc_swept_));
  if (sift_swaps_) m::count("bdd.sift.swaps", static_cast<double>(sift_swaps_));
  nodes_allocated_ = cache_lookups_ = cache_hits_ = unique_hits_ = 0;
  gc_runs_ = gc_swept_ = sift_swaps_ = 0;
}

void Manager::grow_unique(std::size_t min_slots) {
  std::size_t ns = unique_slots_.size();
  while (ns < min_slots) ns <<= 1;
  unique_slots_.assign(ns, kEmptySlot);
  std::size_t mask = ns - 1;
  unique_used_ = 0;
  for (std::uint32_t idx = 1; idx < nodes_.size(); ++idx) {
    const Node& n = nodes_[idx];
    if (n.var == kFreeVar) continue;
    std::size_t i = hash3(n.var, n.lo, n.hi) & mask;
    while (unique_slots_[i] != kEmptySlot) i = (i + 1) & mask;
    unique_slots_[i] = idx;
    ++unique_used_;
  }
  // Scale the computed table with the unique table (2-way sets; rehash
  // preserves recency because way-0 entries reinsert last).
  std::size_t want = std::clamp(ns / 2, kMinIteEntries, kMaxIteEntries);
  if (want > ite_cache_.size()) {
    std::vector<IteEntry> old;
    old.swap(ite_cache_);
    ite_cache_.assign(want, IteEntry{});
    for (std::size_t s = 0; s * 2 < old.size(); ++s) {
      if (old[2 * s + 1].f != kEmptySlot) {
        const IteEntry& e = old[2 * s + 1];
        ite_insert(e.f, e.g, e.h, e.result);
      }
      if (old[2 * s].f != kEmptySlot) {
        const IteEntry& e = old[2 * s];
        ite_insert(e.f, e.g, e.h, e.result);
      }
    }
  }
}

void Manager::rebuild_unique() { grow_unique(unique_slots_.size()); }

void Manager::reserve(std::size_t n) {
  nodes_.reserve(n + 1);
  ref_count_.reserve(n + 1);
  // Keep the probe table under ~70% load for n nodes.
  std::size_t want = kMinUniqueSlots;
  while (want * 7 < n * 10) want <<= 1;
  if (want > unique_slots_.size()) grow_unique(want);
}

Ref Manager::mk(unsigned var, Ref lo, Ref hi) {
  if (lo == hi) return lo;
  // Canonical form: the then-edge is regular.  mk(v, !a, !b) == !mk(v, a, b).
  if (complement_ && is_complemented(hi))
    return mk(var, lo ^ 1u, hi ^ 1u) ^ 1u;
  std::size_t mask = unique_slots_.size() - 1;
  std::size_t i = hash3(var, lo, hi) & mask;
  for (;;) {
    std::uint32_t slot = unique_slots_[i];
    if (slot == kEmptySlot) break;
    const Node& n = nodes_[slot];
    if (n.var == var && n.lo == lo && n.hi == hi) {
      ++unique_hits_;
      return Ref{slot} << 1;
    }
    i = (i + 1) & mask;
  }
  if (live_nodes_ >= node_limit_) throw NodeLimitExceeded();
  std::uint32_t idx;
  if (free_head_ != kNoFree) {
    idx = free_head_;
    free_head_ = nodes_[idx].lo;
    --free_count_;
    nodes_[idx] = Node{var, lo, hi};
  } else {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{var, lo, hi});
    ref_count_.push_back(0);
  }
  ++nodes_allocated_;
  ++live_nodes_;
  peak_live_nodes_ = std::max(peak_live_nodes_, live_nodes_);
  unique_slots_[i] = idx;
  if (++unique_used_ * 10 >= unique_slots_.size() * 7)
    grow_unique(unique_slots_.size() * 2);
  return Ref{idx} << 1;
}

Ref Manager::var(unsigned v) {
  LPS_CHECK(v < num_vars_, "BDD variable " + std::to_string(v) +
                               " not declared (manager has " +
                               std::to_string(num_vars_) + " vars)");
  OpGuard guard(*this, {});
  return mk(v, kFalse, kTrue);
}

Ref Manager::nvar(unsigned v) {
  LPS_CHECK(v < num_vars_, "BDD variable " + std::to_string(v) +
                               " not declared (manager has " +
                               std::to_string(num_vars_) + " vars)");
  OpGuard guard(*this, {});
  return mk(v, kTrue, kFalse);
}

Manager::IteEntry* Manager::ite_find(Ref f, Ref g, Ref h) {
  std::size_t sets = ite_cache_.size() / 2;
  std::size_t s = hash3(f, g, h) & (sets - 1);
  IteEntry* e0 = &ite_cache_[2 * s];
  if (e0->f == f && e0->g == g && e0->h == h) return e0;
  IteEntry* e1 = e0 + 1;
  if (e1->f == f && e1->g == g && e1->h == h) {
    std::swap(*e0, *e1);  // age: promote the hit to the MRU way
    return e0;
  }
  return nullptr;
}

void Manager::ite_insert(Ref f, Ref g, Ref h, Ref result) {
  std::size_t sets = ite_cache_.size() / 2;
  std::size_t s = hash3(f, g, h) & (sets - 1);
  IteEntry* e0 = &ite_cache_[2 * s];
  e0[1] = e0[0];  // demote the old MRU; the LRU way is evicted
  e0[0] = IteEntry{f, g, h, result};
}

Ref Manager::ite(Ref f, Ref g, Ref h) {
  OpGuard guard(*this, {f, g, h});
  return ite_rec(f, g, h);
}

Ref Manager::ite_rec(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == f) g = kTrue;
  if (h == f) h = kFalse;
  if (complement_) {
    if (g == (f ^ 1u)) g = kFalse;
    if (h == (f ^ 1u)) h = kTrue;
  }
  if (g == h) return g;
  // Canonical triple: regular f (swap arms), regular g (negate out).
  bool neg = false;
  if (complement_) {
    if (is_complemented(f)) {
      f ^= 1u;
      std::swap(g, h);
    }
    if (is_complemented(g)) {
      neg = true;
      g ^= 1u;
      h ^= 1u;
    }
  }
  if (g == kTrue && h == kFalse) return neg ? (f ^ 1u) : f;
  if (complement_ && g == kFalse && h == kTrue) return neg ? f : (f ^ 1u);

  ++cache_lookups_;
  if (const IteEntry* e = ite_find(f, g, h)) {
    ++cache_hits_;
    return neg ? (e->result ^ 1u) : e->result;
  }

  unsigned lvl = level_of_[node(f).var];
  if (!is_const(g)) lvl = std::min(lvl, level_of_[node(g).var]);
  if (!is_const(h)) lvl = std::min(lvl, level_of_[node(h).var]);
  unsigned v = var_at_[lvl];

  auto cof = [&](Ref x, bool hi_side) -> Ref {
    if (is_const(x)) return x;
    const Node& n = nodes_[index_of(x)];
    if (level_of_[n.var] != lvl) return x;
    return (hi_side ? n.hi : n.lo) ^ (x & 1u);
  };
  Ref lo = ite_rec(cof(f, false), cof(g, false), cof(h, false));
  Ref hi = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  Ref r = mk(v, lo, hi);
  ite_insert(f, g, h, r);
  return neg ? (r ^ 1u) : r;
}

Ref Manager::lxor(Ref f, Ref g) {
  if (complement_) {
    OpGuard guard(*this, {f, g});
    return ite_rec(f, g ^ 1u, g);
  }
  return ite(f, lnot(g), g);
}

Ref Manager::cofactor(Ref f, unsigned v, bool value) {
  OpGuard guard(*this, {f});
  std::unordered_map<std::uint32_t, Ref> memo;  // by index: cof(!x) = !cof(x)
  unsigned vl = level_of_[v];
  auto rec = [&](auto&& self, Ref r) -> Ref {
    if (is_const(r)) return r;
    Ref c = r & 1u;
    std::uint32_t idx = index_of(r);
    // Copy fields: mk() may reallocate nodes_ during the recursion.
    Node n = nodes_[idx];
    if (level_of_[n.var] > vl) return r;
    if (n.var == v) return (value ? n.hi : n.lo) ^ c;
    if (auto it = memo.find(idx); it != memo.end()) return it->second ^ c;
    Ref lo = self(self, n.lo);
    Ref hi = self(self, n.hi);
    Ref out = (lo == n.lo && hi == n.hi) ? (Ref{idx} << 1) : mk(n.var, lo, hi);
    memo.emplace(idx, out);
    return out ^ c;
  };
  return rec(rec, f);
}

Ref Manager::exists(Ref f, unsigned v) {
  OpGuard guard(*this, {f});
  return lor(cofactor(f, v, false), cofactor(f, v, true));
}

Ref Manager::forall(Ref f, unsigned v) {
  OpGuard guard(*this, {f});
  return land(cofactor(f, v, false), cofactor(f, v, true));
}

Ref Manager::exists(Ref f, std::span<const unsigned> vars) {
  OpGuard guard(*this, {f});
  for (unsigned v : vars) f = exists(f, v);
  return f;
}

Ref Manager::forall(Ref f, std::span<const unsigned> vars) {
  OpGuard guard(*this, {f});
  for (unsigned v : vars) f = forall(f, v);
  return f;
}

Ref Manager::compose(Ref f, unsigned v, Ref g) {
  OpGuard guard(*this, {f, g});
  return ite(g, cofactor(f, v, true), cofactor(f, v, false));
}

Ref Manager::ref(Ref r) {
  if (!is_const(r)) ++ref_count_[index_of(r)];
  return r;
}

void Manager::deref(Ref r) {
  if (is_const(r)) return;
  std::uint32_t idx = index_of(r);
  LPS_CHECK(ref_count_[idx] > 0, "deref of an unreferenced BDD node");
  --ref_count_[idx];
}

std::size_t Manager::collect(std::span<const Ref> pins) {
  std::vector<char> mark(nodes_.size(), 0);
  mark[0] = 1;  // the terminal is permanent
  std::vector<std::uint32_t> stack;
  auto push = [&](Ref r) {
    std::uint32_t i = index_of(r);
    if (!mark[i]) {
      mark[i] = 1;
      stack.push_back(i);
    }
  };
  for (std::uint32_t i = 1; i < nodes_.size(); ++i)
    if (ref_count_[i] > 0 && nodes_[i].var != kFreeVar) {
      mark[i] = 1;
      stack.push_back(i);
    }
  for (Ref r : pins) push(r);
  while (!stack.empty()) {
    std::uint32_t i = stack.back();
    stack.pop_back();
    push(nodes_[i].lo);
    push(nodes_[i].hi);
  }
  std::size_t swept = 0;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    if (mark[i] || nodes_[i].var == kFreeVar) continue;
    nodes_[i].var = kFreeVar;
    nodes_[i].lo = free_head_;
    nodes_[i].hi = 0;
    free_head_ = i;
    ++free_count_;
    ++swept;
  }
  live_nodes_ -= swept;
  rebuild_unique();
  // Cached triples may name swept nodes; drop the computed table wholesale.
  ite_cache_.assign(ite_cache_.size(), IteEntry{});
  ++gc_runs_;
  gc_swept_ += swept;
  return swept;
}

std::size_t Manager::gc() { return collect({}); }

void Manager::maybe_gc(std::span<const Ref> pins) {
  if (!auto_gc_) return;
  // Collect at the configured trigger, and also under node-budget pressure:
  // a tight node_limit with a higher trigger would otherwise throw
  // NodeLimitExceeded with reclaimable garbage still in the pool.  The
  // low-water mark bounds pressure collections — the live set must grow 25%
  // past the last sweep's survivors before we pay for another one, so a
  // build whose rooted functions genuinely fill the budget degrades to the
  // limit exception instead of sweeping on every operation.
  bool pressured = live_nodes_ >= node_limit_ / 2 &&
                   live_nodes_ >= gc_low_water_ + (gc_low_water_ >> 2);
  if (live_nodes_ < gc_trigger_ && !pressured) return;
  collect(pins);
  gc_low_water_ = live_nodes_;
  // Back off while the live set itself is large, so a build whose rooted
  // functions keep growing doesn't re-collect on every operation.
  gc_trigger_ = std::max(gc_trigger_base_, live_nodes_ * 2);
}

void Manager::swap_levels(unsigned l, std::vector<std::size_t>& counts) {
  unsigned x = var_at_[l], y = var_at_[l + 1];
  // Nodes labelled x with a y-child are the only ones the swap rewrites.
  std::vector<std::uint32_t> r_set;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var != x) continue;
    bool lo_y = !is_const(n.lo) && nodes_[index_of(n.lo)].var == y;
    bool hi_y = !is_const(n.hi) && nodes_[index_of(n.hi)].var == y;
    if (lo_y || hi_y) r_set.push_back(i);
  }
  struct Rw {
    std::uint32_t idx;
    Ref a0, a1;
  };
  std::vector<Rw> rws;
  rws.reserve(r_set.size());
  // Pass 1 (may throw NodeLimitExceeded): build the new cofactor children.
  // Only garbage is created on a throw — order and nodes are untouched.
  for (std::uint32_t i : r_set) {
    Node n = nodes_[i];  // copy: mk may reallocate nodes_
    auto split = [&](Ref e, Ref& c0, Ref& c1) {
      if (!is_const(e) && nodes_[index_of(e)].var == y) {
        const Node& en = nodes_[index_of(e)];
        Ref c = e & 1u;
        c0 = en.lo ^ c;
        c1 = en.hi ^ c;
      } else {
        c0 = c1 = e;
      }
    };
    Ref l0, l1, h0, h1;
    split(n.lo, l0, l1);
    split(n.hi, h0, h1);
    Ref a0 = mk(x, l0, h0);
    Ref a1 = mk(x, l1, h1);
    // a1 is regular by construction (then-edges are regular), so the
    // in-place rewrite below never flips the node's polarity, and a
    // reachable y-node implies dependence on y, so a0 != a1.
    LPS_CHECK(a0 != a1, "level swap produced a redundant node");
    LPS_CHECK(!complement_ || !is_complemented(a1),
              "level swap produced a complemented then-edge");
    rws.push_back({i, a0, a1});
  }
  // Pass 2 (no-throw): swap the order, rewrite in place — every rooted Ref
  // keeps its index and function — then rebuild tables and collect the
  // orphaned cofactor structure.
  var_at_[l] = y;
  var_at_[l + 1] = x;
  level_of_[x] = l + 1;
  level_of_[y] = l;
  for (const Rw& rw : rws) nodes_[rw.idx] = Node{y, rw.a0, rw.a1};
  ++sift_swaps_;
  if (!rws.empty()) {
    collect({});
    std::fill(counts.begin(), counts.end(), 0);
    for (std::uint32_t i = 1; i < nodes_.size(); ++i)
      if (nodes_[i].var != kFreeVar) ++counts[nodes_[i].var];
  }
}

void Manager::sift(const SiftOptions& opt) {
  OpGuard guard(*this, {});
  if (num_vars_ < 2) return;
  collect({});  // exact per-variable counts need a garbage-free node array
  const unsigned n_levels = num_vars_;
  std::vector<std::size_t> counts(n_levels, 0);
  for (std::uint32_t i = 1; i < nodes_.size(); ++i)
    if (nodes_[i].var != kFreeVar) ++counts[nodes_[i].var];
  auto weight = [&](unsigned v) {
    return v < opt.weights.size() ? opt.weights[v] : 1.0;
  };
  auto cost = [&] {
    double c = 0.0;
    for (unsigned v = 0; v < n_levels; ++v)
      c += weight(v) * static_cast<double>(counts[v]);
    return c;
  };
  // Sift the busiest variables first (ties by index for determinism).
  std::vector<unsigned> order(n_levels);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
    return counts[a] > counts[b];
  });
  std::size_t n_sift = opt.max_vars
                           ? std::min<std::size_t>(opt.max_vars, n_levels)
                           : n_levels;
  for (std::size_t k = 0; k < n_sift; ++k) {
    unsigned v = order[k];
    if (counts[v] == 0) continue;
    double cur = cost();
    double best = cur;
    unsigned best_level = level_of_[v];
    while (level_of_[v] + 1 < n_levels) {  // walk down
      swap_levels(level_of_[v], counts);
      cur = cost();
      if (cur < best) {
        best = cur;
        best_level = level_of_[v];
      } else if (cur > best * opt.growth_limit) {
        break;
      }
    }
    while (level_of_[v] > 0) {  // walk up through the whole order
      swap_levels(level_of_[v] - 1, counts);
      cur = cost();
      if (cur < best) {
        best = cur;
        best_level = level_of_[v];
      } else if (cur > best * opt.growth_limit) {
        break;
      }
    }
    while (level_of_[v] < best_level) swap_levels(level_of_[v], counts);
    while (level_of_[v] > best_level) swap_levels(level_of_[v] - 1, counts);
  }
}

double Manager::sat_count(Ref f) {
  std::vector<double> p(num_vars_, 0.5);
  return probability(f, p) * std::ldexp(1.0, static_cast<int>(num_vars_));
}

double Manager::probability(Ref f, std::span<const double> p) {
  LPS_CHECK(p.size() >= num_vars_,
            "probability vector has " + std::to_string(p.size()) +
                " entries for " + std::to_string(num_vars_) + " variables");
  std::unordered_map<std::uint32_t, double> memo;  // P(!f) = 1 - P(f)
  auto rec = [&](auto&& self, Ref r) -> double {
    if (r == kFalse) return 0.0;
    if (r == kTrue) return 1.0;
    bool c = is_complemented(r);
    std::uint32_t idx = index_of(r);
    double q;
    if (auto it = memo.find(idx); it != memo.end()) {
      q = it->second;
    } else {
      const Node& n = nodes_[idx];
      q = (1.0 - p[n.var]) * self(self, n.lo) + p[n.var] * self(self, n.hi);
      memo.emplace(idx, q);
    }
    return c ? 1.0 - q : q;
  };
  return rec(rec, f);
}

std::vector<unsigned> Manager::support(Ref f) {
  std::vector<bool> seen_node(nodes_.size(), false);
  std::vector<bool> seen_var(num_vars_, false);
  std::vector<std::uint32_t> stack{index_of(f)};
  while (!stack.empty()) {
    std::uint32_t i = stack.back();
    stack.pop_back();
    if (i == 0 || seen_node[i]) continue;
    seen_node[i] = true;
    seen_var[nodes_[i].var] = true;
    stack.push_back(index_of(nodes_[i].lo));
    stack.push_back(index_of(nodes_[i].hi));
  }
  std::vector<unsigned> vars;
  for (unsigned v = 0; v < num_vars_; ++v)
    if (seen_var[v]) vars.push_back(v);
  return vars;
}

std::size_t Manager::size(Ref f) {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<std::uint32_t> stack{index_of(f)};
  std::size_t count = 0;
  while (!stack.empty()) {
    std::uint32_t i = stack.back();
    stack.pop_back();
    if (i == 0 || seen[i]) continue;
    seen[i] = true;
    ++count;
    stack.push_back(index_of(nodes_[i].lo));
    stack.push_back(index_of(nodes_[i].hi));
  }
  return count;
}

std::optional<std::vector<bool>> Manager::any_sat(Ref f) {
  if (f == kFalse) return std::nullopt;
  std::vector<bool> a(num_vars_, false);
  while (!is_const(f)) {
    const Node& n = node(f);
    Ref hi = n.hi ^ (f & 1u);
    if (hi != kFalse) {
      a[n.var] = true;
      f = hi;
    } else {
      // Canonicity: a non-FALSE ref is satisfiable, so the else-arm is.
      a[n.var] = false;
      f = n.lo ^ (f & 1u);
    }
  }
  return a;
}

bool Manager::eval(Ref f, const std::vector<bool>& a) const {
  while (!is_const(f)) {
    const Node& n = node(f);
    f = (a[n.var] ? n.hi : n.lo) ^ (f & 1u);
  }
  return f == kTrue;
}

std::vector<std::string> Manager::cubes(Ref f, unsigned width) {
  std::vector<std::string> out;
  std::string cur(width, '-');
  auto rec = [&](auto&& self, Ref r) -> void {
    if (r == kFalse) return;
    if (r == kTrue) {
      out.push_back(cur);
      return;
    }
    const Node& n = node(r);
    Ref c = r & 1u;
    if (n.var < width) {
      cur[n.var] = '0';
      self(self, n.lo ^ c);
      cur[n.var] = '1';
      self(self, n.hi ^ c);
      cur[n.var] = '-';
    } else {
      // Variable beyond the printed width: branch without recording.
      self(self, n.lo ^ c);
      self(self, n.hi ^ c);
    }
  };
  rec(rec, f);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Manager::clear_caches() {
  ite_cache_.assign(ite_cache_.size(), IteEntry{});
  flush_metrics();
}

}  // namespace lps::bdd
