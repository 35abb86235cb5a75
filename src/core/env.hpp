// env.hpp — hardened environment-knob parsing.
//
// Every process knob in this library (LPS_THREADS, LPS_SIM_WIDTH,
// LPS_SIM_PIN, LPS_OPT_WORKERS, and the service bench's LPS_SOAK_MS) used
// to be parsed ad hoc at its sampling site, and malformed values were
// swallowed silently: "LPS_THREADS=8x" or "LPS_SIM_WIDTH=banana" behaved
// exactly like the variable being unset, which is the worst failure mode
// for an operator debugging a misconfigured daemon.  This module
// centralizes the parsing with the same contract the file parsers follow:
// a malformed value is *rejected with a positioned diagnostic* (the
// SourceLoc names the variable and the column of the first offending
// character) and the knob falls back to its documented
// default — never to a half-parsed value.
//
// The sampling sites print the diagnostic to stderr once (knobs are sampled
// once per process; see the caching contract in core/parallel.hpp) and keep
// running: a bad knob must never take the process down, only inform.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/diag.hpp"

namespace lps::core {

/// Outcome of parsing one environment knob.
struct EnvParse {
  long value = 0;       // parsed value, or the default on failure
  bool present = false; // variable was set at all
  bool ok = true;       // parsed cleanly and in range (true when absent)
  diag::Status status;  // positioned diagnostic when !ok
};

/// Parse decimal-integer text for knob `name` into [min_v, max_v].  `text`
/// may be null (variable unset: present=false, value=def).  Rejected forms
/// — empty text, non-digit characters, out-of-range values — return
/// ok=false, value=def and a diagnostic positioned at the offending column
/// (loc.file = "$<name>", col 1-based into the value text).
EnvParse parse_env_long(const char* name, const char* text, long min_v,
                        long max_v, long def);

/// Parse boolean text for knob `name`: accepted spellings are "0"/"1" and
/// "false"/"true" (exactly; no whitespace, no case folding — a knob is not
/// a prose field).  Anything else is rejected with a positioned diagnostic
/// and falls back to `def`.
EnvParse parse_env_bool(const char* name, const char* text, bool def);

/// Parse an enumerated-choice knob (e.g. LPS_SIM_WIDTH=scalar|avx2|avx512|
/// auto): `text` must exactly match one of the `n_choices` strings in
/// `choices` (no whitespace, no case folding), and the parsed value is the
/// matching index.  Anything else is rejected with a positioned diagnostic
/// listing the accepted spellings and falls back to `def_index`.
EnvParse parse_env_choice(const char* name, const char* text,
                          const char* const* choices, std::size_t n_choices,
                          std::size_t def_index);

/// getenv + parse + report: reads the variable, and when the value is
/// malformed prints the diagnostic to stderr (exactly once per call) before
/// returning the default.  The sampling sites use these; tests exercise the
/// pure parse functions above.
long env_long_or(const char* name, long min_v, long max_v, long def);
bool env_bool_or(const char* name, bool def);
std::size_t env_choice_or(const char* name, const char* const* choices,
                          std::size_t n_choices, std::size_t def_index);

}  // namespace lps::core
