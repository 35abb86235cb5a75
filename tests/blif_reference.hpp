// blif_reference.hpp — the BLIF writer and reader as they ran before
// their rewrites, kept as the differential references for blif::write and
// blif::parse.
//
// The reference writer resolves every reference to an unnamed node through
// Netlist::find, a linear scan over the node array, so a write costs
// O(nodes x references).  The production writer looks names up in an
// index built once per write and must emit byte-identical text.
//
// The reference reader splits each logical line with std::istringstream
// and keys signals through two std::map tables.  The production reader
// tokenizes string_views of the whole input and keys one hash map; it
// must build the same netlist node for node and word every diagnostic the
// same, at the same position.

#pragma once

#include <bit>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/diag.hpp"
#include "netlist/netlist.hpp"
#include "netlist/validate.hpp"

namespace lps::reference {

namespace detail {

inline std::string node_ref(const Netlist& n, NodeId id) {
  const Node& nd = n.node(id);
  if (!nd.name.empty()) return nd.name;
  // Generated fallback names must not collide with an *explicit* name of a
  // different node, or the emitted file redefines that signal and fails to
  // re-parse (write -> parse -> write round trips hit this whenever a parse
  // assigned "n<k>" names and a later edit renumbered the nodes).
  std::string ref = "n" + std::to_string(id);
  while (true) {
    auto other = n.find(ref);
    if (!other || *other == id) return ref;
    ref += "_";
  }
}

}  // namespace detail

/// blif::write as it ran with the linear-scan name lookup.
inline void blif_write(std::ostream& os, const Netlist& n) {
  using detail::node_ref;
  os << ".model " << (n.name().empty() ? "lps" : n.name()) << "\n.inputs";
  for (NodeId i : n.inputs()) os << ' ' << node_ref(n, i);
  os << "\n.outputs";
  for (const auto& name : n.output_names()) os << ' ' << name;
  os << '\n';
  for (NodeId d : n.dffs()) {
    const Node& nd = n.node(d);
    std::string din = node_ref(n, nd.fanins[0]);
    if (nd.fanins.size() == 2) {
      // Load-enabled register: emit the hold mux explicitly, since BLIF
      // latches have no enable pin.  next = EN ? D : Q.
      std::string mux = node_ref(n, d) + "_le";
      os << ".names " << node_ref(n, nd.fanins[1]) << ' ' << din << ' '
         << node_ref(n, d) << ' ' << mux << "\n11- 1\n0-1 1\n";
      din = mux;
    }
    os << ".latch " << din << ' ' << node_ref(n, d) << ' '
       << (nd.init_value ? 1 : 0) << '\n';
  }

  for (NodeId id : n.topo_order()) {
    const Node& nd = n.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    os << ".names";
    for (NodeId f : nd.fanins) os << ' ' << node_ref(n, f);
    os << ' ' << node_ref(n, id) << '\n';
    std::size_t k = nd.fanins.size();
    switch (nd.type) {
      case GateType::Buf:
        os << "1 1\n";
        break;
      case GateType::Not:
        os << "0 1\n";
        break;
      case GateType::And:
        os << std::string(k, '1') << " 1\n";
        break;
      case GateType::Nand:
        for (std::size_t i = 0; i < k; ++i) {
          std::string row(k, '-');
          row[i] = '0';
          os << row << " 1\n";
        }
        break;
      case GateType::Or:
        for (std::size_t i = 0; i < k; ++i) {
          std::string row(k, '-');
          row[i] = '1';
          os << row << " 1\n";
        }
        break;
      case GateType::Nor:
        os << std::string(k, '0') << " 1\n";
        break;
      case GateType::Xor:
      case GateType::Xnor: {
        // Enumerate minterms with the right parity (fanin counts are small).
        bool want_odd = nd.type == GateType::Xor;
        for (std::size_t m = 0; m < (1ull << k); ++m) {
          bool odd = (std::popcount(m) % 2) == 1;
          if (odd != want_odd) continue;
          std::string row(k, '0');
          for (std::size_t b = 0; b < k; ++b)
            if (m >> b & 1) row[b] = '1';
          os << row << " 1\n";
        }
        break;
      }
      case GateType::Mux:
        os << "01- 1\n"
           << "1-1 1\n";
        break;
      default:
        break;
    }
  }
  // Constants referenced by outputs or as latch inputs.
  for (NodeId id : n.topo_order()) {
    const Node& nd = n.node(id);
    if (nd.type == GateType::Const1)
      os << ".names " << node_ref(n, id) << "\n1\n";
    else if (nd.type == GateType::Const0)
      os << ".names " << node_ref(n, id) << "\n";
  }
  // Outputs that alias internal signals with a different name.
  const auto& outs = n.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (n.output_names()[i] != node_ref(n, outs[i]))
      os << ".names " << node_ref(n, outs[i]) << ' ' << n.output_names()[i]
         << "\n1 1\n";
  }
  os << ".end\n";
}

inline std::string blif_write_string(const Netlist& n) {
  std::ostringstream os;
  blif_write(os, n);
  return os.str();
}

namespace parse_detail {

struct NamesTable {
  std::vector<std::string> signals;  // inputs..., output last
  std::vector<std::string> cubes;    // input masks, one per row
  std::vector<char> out_values;
  int line = 0;  // line of the .names declaration
};

struct LatchDecl {
  std::string input, output;
  bool init = false;
  int line = 0;
};

// Tokenize one logical line (with '\' continuations already folded).
inline std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

inline bool valid_mask(const std::string& m, std::size_t* bad_pos) {
  for (std::size_t i = 0; i < m.size(); ++i)
    if (m[i] != '0' && m[i] != '1' && m[i] != '-') {
      *bad_pos = i;
      return false;
    }
  return true;
}

}  // namespace parse_detail

/// blif::parse as it ran with the istringstream tokenizer and the two
/// std::map symbol tables.
inline std::optional<Netlist> blif_parse(std::istream& is,
                                         diag::DiagEngine& eng,
                                         const std::string& filename) {
  using namespace parse_detail;
  std::string model = "blif";
  std::vector<std::pair<std::string, int>> inputs, outputs;  // name, line
  std::vector<NamesTable> tables;
  std::vector<LatchDecl> latches;

  std::string raw, line;
  int lineno = 0, first_lineno = 0;
  bool saw_anything = false, saw_end = false;
  NamesTable* open_table = nullptr;
  auto loc = [&](int col = 0) {
    return diag::SourceLoc{filename, first_lineno, col};
  };

  // ---- scan phase: collect declarations, diagnose malformed lines --------
  bool more = true;
  while (more) {
    more = static_cast<bool>(std::getline(is, raw));
    if (more) {
      ++lineno;
      // Strip comments, fold continuations.
      if (auto p = raw.find('#'); p != std::string::npos) raw.resize(p);
      if (line.empty()) first_lineno = lineno;
      line += raw;
      if (!line.empty() && line.back() == '\\') {
        line.pop_back();
        continue;  // folded into the next physical line
      }
    } else if (line.empty()) {
      break;  // EOF with nothing pending
    }
    auto toks = split(line);
    line.clear();
    if (toks.empty()) continue;
    saw_anything = true;

    const std::string& kw = toks[0];
    if (kw == ".model") {
      if (toks.size() >= 2) model = toks[1];
      open_table = nullptr;
    } else if (kw == ".inputs") {
      for (std::size_t k = 1; k < toks.size(); ++k)
        inputs.emplace_back(toks[k], first_lineno);
      open_table = nullptr;
    } else if (kw == ".outputs") {
      for (std::size_t k = 1; k < toks.size(); ++k)
        outputs.emplace_back(toks[k], first_lineno);
      open_table = nullptr;
    } else if (kw == ".names") {
      open_table = nullptr;
      if (toks.size() < 2) {
        eng.error(".names needs at least an output signal", loc());
        continue;
      }
      tables.emplace_back();
      tables.back().signals.assign(toks.begin() + 1, toks.end());
      tables.back().line = first_lineno;
      open_table = &tables.back();
    } else if (kw == ".latch") {
      open_table = nullptr;
      if (toks.size() < 3) {
        eng.error(".latch needs input and output signals", loc());
        continue;
      }
      LatchDecl l;
      l.input = toks[1];
      l.output = toks[2];
      l.line = first_lineno;
      // Optional: [type] [control] [init]; init is the last numeric token.
      if (toks.size() > 3) {
        const std::string& last = toks.back();
        if (last == "1")
          l.init = true;
        else if (last != "0" && last != "2" && last != "3" &&
                 toks.size() == 4)
          eng.warning(".latch init value \"" + last +
                          "\" is not 0/1/2/3; treating as 0",
                      loc());
      }
      latches.push_back(std::move(l));
    } else if (kw == ".end") {
      saw_end = true;
      break;
    } else if (kw[0] == '.') {
      open_table = nullptr;  // ignore .clock, .exdc etc.
    } else {
      // Cube row inside an open .names.
      if (!open_table) {
        eng.error("table row \"" + kw + "\" outside any .names", loc());
        continue;
      }
      std::size_t nin = open_table->signals.size() - 1;
      std::size_t bad = 0;
      if (nin == 0) {
        if (toks.size() != 1 || (toks[0] != "0" && toks[0] != "1")) {
          eng.error("constant table row must be a single 0 or 1", loc());
          continue;
        }
        open_table->cubes.push_back("");
        open_table->out_values.push_back(toks[0][0]);
      } else {
        if (toks.size() != 2) {
          eng.error("cube row must be <input-mask> <output-value>, got " +
                        std::to_string(toks.size()) + " tokens",
                    loc());
          continue;
        }
        if (toks[0].size() != nin) {
          eng.error("cube width mismatch: mask \"" + toks[0] + "\" has " +
                        std::to_string(toks[0].size()) + " columns, .names \"" +
                        open_table->signals.back() + "\" has " +
                        std::to_string(nin) + " inputs",
                    loc());
          continue;
        }
        if (!valid_mask(toks[0], &bad)) {
          eng.error("bad cube character '" +
                        std::string(1, toks[0][bad]) +
                        "' (expected 0/1/-)",
                    loc(static_cast<int>(bad + 1)));
          continue;
        }
        if (toks[1] != "0" && toks[1] != "1") {
          eng.error("cube output value must be 0 or 1, got \"" + toks[1] +
                        "\"",
                    loc(static_cast<int>(toks[0].size() + 2)));
          continue;
        }
        open_table->cubes.push_back(toks[0]);
        open_table->out_values.push_back(toks[1][0]);
      }
    }
  }

  if (!saw_anything) {
    eng.error("empty input: no BLIF constructs found",
              diag::SourceLoc{filename, 0, 0});
    return std::nullopt;
  }
  if (!saw_end)
    eng.warning("missing .end (input truncated?)",
                diag::SourceLoc{filename, lineno, 0});

  // ---- declaration consistency -------------------------------------------
  // Each signal may be defined exactly once: as a PI, a latch output, or a
  // .names output.  Duplicate drivers are the classic silent-corruption bug
  // this parser used to have (last definition quietly won).
  std::map<std::string, int> def_line;  // signal -> first definition line
  auto define = [&](const std::string& name, int at, const char* what) {
    auto [it, fresh] = def_line.emplace(name, at);
    if (!fresh)
      eng.error(std::string("signal \"") + name + "\" redefined as " + what +
                    " (first defined at line " + std::to_string(it->second) +
                    ")",
                diag::SourceLoc{filename, at, 0});
  };
  for (const auto& [name, at] : inputs) define(name, at, "a primary input");
  for (const auto& l : latches) define(l.output, l.line, "a latch output");
  for (const auto& t : tables)
    define(t.signals.back(), t.line, "a .names output");

  for (const auto& t : tables) {
    // Mixed on-set/off-set rows within one table are ambiguous.
    for (std::size_t r = 1; r < t.out_values.size(); ++r)
      if (t.out_values[r] != t.out_values[0]) {
        eng.error("table for \"" + t.signals.back() +
                      "\" mixes output values 0 and 1 across rows",
                  diag::SourceLoc{filename, t.line, 0});
        break;
      }
    // Undefined table inputs.
    for (std::size_t i = 0; i + 1 < t.signals.size(); ++i)
      if (!def_line.count(t.signals[i]))
        eng.error("table for \"" + t.signals.back() +
                      "\" reads undefined signal \"" + t.signals[i] + "\"",
                  diag::SourceLoc{filename, t.line, 0});
  }
  for (const auto& l : latches)
    if (!def_line.count(l.input))
      eng.error("latch \"" + l.output + "\" reads undefined signal \"" +
                    l.input + "\"",
                diag::SourceLoc{filename, l.line, 0});
  {
    std::set<std::string> seen_outputs;
    for (const auto& [name, at] : outputs) {
      if (!def_line.count(name))
        eng.error("primary output \"" + name + "\" is never defined",
                  diag::SourceLoc{filename, at, 0});
      if (!seen_outputs.insert(name).second)
        eng.error("primary output \"" + name + "\" listed twice",
                  diag::SourceLoc{filename, at, 0});
    }
  }
  if (!eng.ok()) return std::nullopt;

  // ---- build phase --------------------------------------------------------
  Netlist n(model);
  std::map<std::string, NodeId> sig;
  for (const auto& [name, at] : inputs) sig[name] = n.add_input(name);

  // Pre-create latch outputs so logic can reference them; D patched later.
  NodeId scratch = kNoNode;
  auto get_scratch = [&]() {
    if (scratch == kNoNode) scratch = n.add_const(false);
    return scratch;
  };
  for (const auto& l : latches)
    sig[l.output] = n.add_dff(get_scratch(), l.init, l.output);

  // Build tables in dependency order (iterate until all resolved).  Each
  // sweep resolves at least one table or stops, so this terminates in at
  // most tables² steps even on adversarial input.
  std::vector<bool> done(tables.size(), false);
  std::size_t remaining = tables.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t t = 0; t < tables.size(); ++t) {
      if (done[t]) continue;
      const NamesTable& tab = tables[t];
      std::size_t nin = tab.signals.size() - 1;
      bool ready = true;
      for (std::size_t i = 0; i < nin; ++i)
        if (!sig.count(tab.signals[i])) {
          ready = false;
          break;
        }
      if (!ready) continue;

      bool on_set = tab.out_values.empty() || tab.out_values[0] == '1';
      std::vector<NodeId> or_terms;
      for (const auto& cube : tab.cubes) {
        std::vector<NodeId> and_terms;
        for (std::size_t i = 0; i < cube.size(); ++i) {
          if (cube[i] == '-') continue;
          NodeId s = sig.at(tab.signals[i]);
          and_terms.push_back(cube[i] == '1' ? s : n.add_not(s));
        }
        if (and_terms.empty())
          or_terms.push_back(n.add_const(true));
        else if (and_terms.size() == 1)
          or_terms.push_back(and_terms[0]);
        else
          or_terms.push_back(n.add_gate(GateType::And, std::move(and_terms)));
      }
      NodeId out;
      if (or_terms.empty())
        out = n.add_const(false);  // empty table = constant 0
      else if (or_terms.size() == 1)
        out = or_terms[0];
      else
        out = n.add_gate(GateType::Or, std::move(or_terms));
      if (!on_set) out = n.add_not(out);
      const std::string& oname = tab.signals.back();
      if (n.node(out).name.empty() && n.node(out).type != GateType::Input)
        n.node(out).name = oname;
      sig[oname] = out;
      done[t] = true;
      --remaining;
      progress = true;
    }
    if (!progress) {
      // Every unresolved table is part of (or downstream of) a dependency
      // cycle; name the participants instead of a bare failure.
      std::string members;
      int at = 0;
      for (std::size_t t = 0; t < tables.size(); ++t) {
        if (done[t]) continue;
        if (!members.empty()) members += ", ";
        members += '"' + tables[t].signals.back() + "\" (line " +
                   std::to_string(tables[t].line) + ')';
        if (at == 0) at = tables[t].line;
      }
      eng.error("combinational dependency cycle among .names tables: " +
                    members,
                diag::SourceLoc{filename, at, 0});
      return std::nullopt;
    }
  }

  // Patch latch D inputs (input signals validated above).
  for (const auto& l : latches)
    n.replace_fanin(sig.at(l.output), 0, sig.at(l.input));
  for (const auto& [name, at] : outputs) n.add_output(sig.at(name), name);
  n.sweep();

  // Defensive: anything the checks above missed must not escape as a
  // structurally-invalid netlist.
  if (std::size_t bad = validate(n, eng); bad > 0) return std::nullopt;
  return n;
}

inline std::optional<Netlist> blif_parse_string(const std::string& text,
                                                diag::DiagEngine& eng,
                                                const std::string& filename) {
  std::istringstream is(text);
  return blif_parse(is, eng, filename);
}

}  // namespace lps::reference
