// session.hpp — one persistent netlist session inside the lpsd daemon.
//
// A session is the daemon-side unit of state and of isolation: a named
// netlist, its (optional) incremental power analyzer, and an append-only
// on-disk journal that makes the session recoverable across a daemon crash.
// The service layer (service.hpp) owns the concurrency policy; a Session
// exposes the per-verb operations plus the shared_mutex they must be called
// under:
//
//   shared (read) lock   estimate() — many concurrently per session
//   exclusive lock       load / mutate / optimize / rollback / recovery /
//                        cache eviction
//
// The analyzer is only created, advanced or dropped inside exclusive
// contexts, so a shared-locked estimate either reads the finished cached
// analysis or runs a pure power::analyze over the (immutable while shared-
// locked) netlist — there is no state it could race on.
//
// Durability model (crash recovery)
//   The journal file holds one JSON line per *committed* state transition:
//     {"type":"base","hash":...,"hash_version":2,"vectors":...,"seed":...,
//      "blif":...}                                   (load; the seed is
//                                                    hex, like the hashes)
//     {"type":"mutate","ops":[...],"hash":...}       (committed mutate)
//     {"type":"optimize","flow":...,"hash":...}      (kept optimize)
//   A record is appended only after the in-memory commit succeeded, and
//   each carries the structural_hash of the post-state, which the session
//   keeps per edit (netlist/hasher.hpp).  Recovery replays the file from
//   the base; a torn final line (daemon killed mid-append) or a hash
//   mismatch truncates the journal there — so a kill at ANY point leaves
//   the recovered session equal to the last fully committed state: a
//   mid-mutate kill recovers to "fully rolled back", a post-append kill to
//   "fully applied", and nothing in between exists on disk.  Optimize
//   records are only journaled when the flow ran to completion without a
//   cancellation, keeping replay deterministic.  A base record without
//   "hash_version" is a version-1 journal, whose hashes are the retired
//   chain hash: recovery checks its records with that hash and rewrites
//   the journal once as version 2.
//
// Rollback
//   Rollback pops an undo frame; replay is the fallback.  Each committed
//   record keeps its undo frame (Netlist::commit_undo_frame) on a stack
//   that counts in cache_bytes and is dropped by eviction.  Popping one
//   restores it in a new epoch, advances the analyzer and the hash over
//   the nodes it touched and checks the hash against the record below.  A
//   record without a frame (after an eviction or a recovery), or a hash
//   mismatch, replays the journal prefix from the base instead.  Either
//   way the journal file is truncated at the popped record's byte offset,
//   kept since it was appended; it is rewritten whole (temp file and
//   rename) only by load, by a recovery that truncated or upgraded it, and
//   by the first write after a failed append, which may have left part of
//   a line behind or left the file one record short of the session.
//
// Failure model
//   Expected failures (bad BLIF, rejected edit scripts, deadline
//   cancellations) roll the netlist and analyzer back and report
//   diag::Status errors.  An *unexpected* exception inside an exclusive
//   operation marks the session poisoned: every later request gets a
//   session_poisoned error until a fresh load replaces it, and no other
//   session (nor the daemon) is affected.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "netlist/hasher.hpp"
#include "netlist/netlist.hpp"
#include "power/incremental.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace lps::core { struct FlowResult; }

namespace lps::service {

/// Outcome of a session operation: a Status plus the error code the
/// protocol layer should put on the wire when it failed.
struct OpResult {
  diag::Status status = diag::Status::ok();
  ErrorCode code = ErrorCode::Internal;  // meaningful when !status.is_ok()
  JsonObject payload;                    // verb response fields on success

  static OpResult ok(JsonObject payload = {}) {
    OpResult r;
    r.payload = std::move(payload);
    return r;
  }
  static OpResult error(ErrorCode code, std::string msg,
                        diag::SourceLoc loc = {}) {
    OpResult r;
    r.status = diag::Status::error(std::move(msg), std::move(loc));
    r.code = code;
    return r;
  }
};

class Session {
 public:
  /// `journal_path` empty = journaling disabled (in-memory session).
  Session(std::string name, std::string journal_path);

  const std::string& name() const { return name_; }
  std::shared_mutex& mutex() { return mu_; }

  // ---- operations (locking discipline in the header comment) --------------

  /// Exclusive.  Replace the session state from BLIF text; truncates and
  /// rewrites the journal base record.  `vectors`/`seed` fix the session's
  /// analyzer options.  `build_analyzer` false skips the baseline analysis
  /// (it is then built on the first mutate).
  OpResult load(const std::string& blif_text, std::size_t vectors,
                std::uint64_t seed, bool build_analyzer,
                const core::CancelToken* cancel);

  /// Exclusive.  Apply an edit script under the undo journal; commit and
  /// append to the journal only if every op applied and the invariants
  /// hold, else roll back (netlist and analyzer) and report.
  OpResult mutate(const Json& ops, const core::CancelToken* cancel);

  /// Shared.  Power estimate; serves the cached analysis when the request
  /// matches the session analyzer options, else runs a fresh full analysis
  /// (recorded in the degradation counters).
  OpResult estimate(const Json& params, const core::CancelToken* cancel);

  /// Exclusive.  Run an optimization flow ("combinational"/"sequential") on
  /// a working copy; on uncancelled completion adopt the result and journal
  /// it.
  OpResult optimize(const Json& params, const core::CancelToken* cancel);

  /// Exclusive.  Revert the most recent committed mutate/optimize: pops
  /// its undo frame and re-analyzes only what the undo touched; replay of
  /// the journal prefix is the fallback when no frame is held (after an
  /// eviction or a recovery) or the undone hash disagrees with the journal.
  /// Either way the result is verified against the journaled hash.  A
  /// deadline leaves the session, its journal and its frames unchanged.
  OpResult rollback(const core::CancelToken* cancel);

  /// Shared.  Session statistics (never fails).
  JsonObject stat() const;

  // ---- recovery / resource management (service layer) ---------------------

  /// Exclusive.  Rebuild state from the journal file.  Torn or
  /// hash-mismatching tails are truncated (and the file rewritten); returns
  /// an error only when no valid base record exists.
  OpResult recover(const core::CancelToken* cancel);

  /// Exclusive.  Drop the analyzer caches and the undo frames (LRU eviction
  /// under the global memory cap).  The netlist and journal stay; estimates
  /// degrade to full analyze() until the next exclusive op rebuilds the
  /// baseline, and rollbacks of the records committed so far replay.
  void evict_caches();

  /// Approximate bytes held by the analyzer caches (trace + tape) and the
  /// undo frames.
  std::size_t cache_bytes() const {
    return cache_bytes_.load(std::memory_order_relaxed);
  }

  /// LRU bookkeeping (service layer sets/reads; monotonically increasing).
  void touch(std::uint64_t tick) {
    last_used_.store(tick, std::memory_order_relaxed);
  }
  std::uint64_t last_used() const {
    return last_used_.load(std::memory_order_relaxed);
  }

  bool poisoned() const { return poisoned_.load(std::memory_order_relaxed); }
  /// Mark the session wedged (unexpected exception escaped an exclusive
  /// op).  Requests answer session_poisoned from here on; load() clears it.
  void poison(const std::string& why);

  std::uint64_t hash() const { return hash_; }
  bool loaded() const { return loaded_; }

  /// Committed journal records beyond the base (test/stat hook).
  std::size_t journal_records() const { return records_.size(); }

 private:
  struct AnalyzerConfig {
    std::size_t vectors = 2048;
    std::uint64_t seed = 0xC0FFEE;
  };

  // Apply an edit script's ops to net; returns error text or empty.
  std::string apply_ops(Netlist& net, const Json& ops);
  // mutate and journal replay apply an edit script through here: one undo
  // epoch, apply_ops, the edit-scoped invariant check.  On success the
  // epoch stays open for the caller to commit; on error it is rolled back.
  std::string apply_edit(Netlist& net, const Json& ops);
  // optimize and journal replay run a flow through here: on net, with the
  // session's zero-delay estimate settings.  nullopt for an unknown flow.
  std::optional<core::FlowResult> run_flow(const Netlist& net,
                                           const std::string& flow,
                                           const core::CancelToken* cancel,
                                           int workers = 0) const;
  // Apply one journal record ("mutate"/"optimize") to net; returns error
  // text or empty.
  std::string apply_record(Netlist& net, const Json& record,
                           const core::CancelToken* cancel);

  // Apply records_[0..n_records) to net, which holds the parsed base,
  // each as one undo epoch that must reproduce the record's hash.  Returns
  // error text or empty.  On an error the failing record is undone, so net
  // holds the records before it, and *good (when given) is its index.
  // With hash_version 1 the records hold chain hashes; each one that
  // matches is re-keyed to its structural_hash().
  std::string replay(Netlist& net, std::size_t n_records,
                     const core::CancelToken* cancel,
                     std::size_t* good = nullptr, int hash_version = 2);
  // Rollback by popping the top undo frame; nullopt when the undone hash
  // disagrees with the journal (the session is then unchanged and the
  // frames dropped, so the caller replays).
  std::optional<OpResult> rollback_frame(const core::CancelToken* cancel);
  // The committed state's gates, hash and journal_records, which the
  // mutate, rollback and recovery responses lead with.
  OpResult state_payload() const;
  void push_frame(Netlist::UndoFrame f);
  void drop_frames();

  // Analyzer lifecycle (exclusive contexts only).
  void rebuild_analyzer(const core::CancelToken* cancel);  // may leave null
  // Advance the analyzer over the open epoch's touched nodes.  Any failure
  // but a deadline drops the analyzer and lets the edit stand;
  // CancelledError propagates with the caches restored, and the caller
  // rolls the epoch back.
  void advance_analyzer(const Netlist::TouchedNodes& touched,
                        const core::CancelToken* cancel);
  void update_cache_bytes();

  // Journal I/O.
  void set_base(const std::string& blif, std::uint64_t hash);
  bool journal_rewrite();          // base + records_ -> file (atomic-ish)
  bool journal_append(const Json& record);
  // Drop the record records_ just lost from the file's tail.
  bool journal_pop();

  std::string name_;
  std::string journal_path_;  // empty = no journaling
  mutable std::shared_mutex mu_;

  bool loaded_ = false;
  Netlist net_;
  std::uint64_t hash_ = 0;
  std::optional<StructuralHasher> hasher_;  // bound to net_; hash_'s source
  AnalyzerConfig cfg_;
  std::optional<power::IncrementalAnalyzer> analyzer_;

  std::string base_blif_;
  std::uint64_t base_hash_ = 0;  // structural_hash of the parsed base
  std::string base_line_;        // the journal's dumped base record
  std::vector<Json> records_;    // committed mutate/optimize records
  // Byte offset of each record's line in the journal file, and the file's
  // length.  Stale after a failed write: the next one rewrites the file.
  std::vector<std::uint64_t> offsets_;
  std::uint64_t journal_bytes_ = 0;
  bool journal_stale_ = false;
  // Undo frames of the newest frames_.size() records, oldest first: an
  // optimize or strash frame is a whole-netlist pre-image, a mutate frame
  // its edit's node pre-images.  Records below them (recovered or evicted)
  // roll back by replay.
  std::vector<Netlist::UndoFrame> frames_;
  std::size_t frame_bytes_ = 0;

  std::atomic<std::size_t> cache_bytes_{0};
  std::atomic<std::uint64_t> last_used_{0};
  std::atomic<bool> poisoned_{false};
  std::string poison_reason_;

  // Degradation counters (stat()/E23): estimates served from cache, full
  // runs, and full runs forced by an eviction.
  std::atomic<std::uint64_t> est_cached_{0};
  std::atomic<std::uint64_t> est_full_{0};
  std::atomic<std::uint64_t> est_degraded_{0};
  bool evicted_ = false;  // analyzer dropped by eviction (exclusive ctx)
};

/// Format a structural hash the way the protocol does ("0x%016x").
std::string format_hash(std::uint64_t h);

}  // namespace lps::service
