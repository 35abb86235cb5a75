#include "netlist/blif.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/validate.hpp"

namespace lps::blif {

namespace {

// One symbol-table entry: where the signal is defined (0: nowhere) and,
// once built, its node.
struct Signal {
  int def_line = 0;
  NodeId node = kNoNode;
  bool output = false;  // listed in .outputs
};

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

// Tokenize one logical line (with '\' continuations already folded) at
// the whitespace `std::istream >> std::string` splits on: ' ', \t..\r.
void split(std::string_view line, std::vector<std::string_view>& toks) {
  auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  toks.clear();
  for (std::size_t i = 0, j; i < line.size(); i = j) {
    while (i < line.size() && space(line[i])) ++i;
    for (j = i; j < line.size() && !space(line[j]);) ++j;
    if (j > i) toks.push_back(line.substr(i, j - i));
  }
}

bool valid_mask(std::string_view m, std::size_t* bad_pos) {
  for (std::size_t i = 0; i < m.size(); ++i)
    if (m[i] != '0' && m[i] != '1' && m[i] != '-') {
      *bad_pos = i;
      return false;
    }
  return true;
}

}  // namespace

std::optional<Netlist> parse(std::istream& is, diag::DiagEngine& eng,
                             const std::string& filename) {
  std::string model = "blif";
  std::vector<std::pair<std::string, int>> inputs, outputs;  // name, line
  std::vector<NamesTable> tables;
  std::vector<LatchDecl> latches;

  std::string raw, line, cur;  // `toks` view `cur`
  std::vector<std::string_view> toks;
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
    std::swap(cur, line);
    line.clear();
    split(cur, toks);
    if (toks.empty()) continue;
    saw_anything = true;

    const std::string_view kw = toks[0];
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
        const std::string_view last = toks.back();
        if (last == "1")
          l.init = true;
        else if (last != "0" && last != "2" && last != "3" &&
                 toks.size() == 4)
          eng.warning(".latch init value \"" + std::string(last) +
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
        eng.error("table row \"" + std::string(kw) + "\" outside any .names",
                  loc());
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
          eng.error("cube width mismatch: mask \"" + std::string(toks[0]) +
                        "\" has " + std::to_string(toks[0].size()) +
                        " columns, .names \"" + open_table->signals.back() +
                        "\" has " + std::to_string(nin) + " inputs",
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
          eng.error("cube output value must be 0 or 1, got \"" +
                        std::string(toks[1]) + "\"",
                    loc(static_cast<int>(toks[0].size() + 2)));
          continue;
        }
        open_table->cubes.emplace_back(toks[0]);
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
  // One table for definitions and, in the build phase, nodes: keyed by
  // views of the declarations' names, which stay put from here on.
  std::unordered_map<std::string_view, Signal> sig;
  sig.reserve(inputs.size() + latches.size() + tables.size() + 1);
  auto define = [&](const std::string& name, int at, const char* what) {
    auto [it, fresh] = sig.try_emplace(name, Signal{at});
    if (!fresh)
      eng.error(std::string("signal \"") + name + "\" redefined as " + what +
                    " (first defined at line " +
                    std::to_string(it->second.def_line) + ")",
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
      if (!sig.count(t.signals[i]))
        eng.error("table for \"" + t.signals.back() +
                      "\" reads undefined signal \"" + t.signals[i] + "\"",
                  diag::SourceLoc{filename, t.line, 0});
  }
  for (const auto& l : latches)
    if (!sig.count(l.input))
      eng.error("latch \"" + l.output + "\" reads undefined signal \"" +
                    l.input + "\"",
                diag::SourceLoc{filename, l.line, 0});
  for (const auto& [name, at] : outputs) {
    Signal& s = sig[name];  // an undefined name gets def_line 0
    if (s.def_line == 0)
      eng.error("primary output \"" + name + "\" is never defined",
                diag::SourceLoc{filename, at, 0});
    if (s.output)
      eng.error("primary output \"" + name + "\" listed twice",
                diag::SourceLoc{filename, at, 0});
    s.output = true;
  }
  if (!eng.ok()) return std::nullopt;

  // ---- build phase --------------------------------------------------------
  Netlist n(model);
  for (const auto& [name, at] : inputs) sig[name].node = n.add_input(name);

  // Pre-create latch outputs so logic can reference them; D patched later.
  NodeId scratch = kNoNode;
  auto get_scratch = [&]() {
    if (scratch == kNoNode) scratch = n.add_const(false);
    return scratch;
  };
  for (const auto& l : latches)
    sig[l.output].node = n.add_dff(get_scratch(), l.init, l.output);

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
        if (sig[tab.signals[i]].node == kNoNode) {
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
          NodeId s = sig[tab.signals[i]].node;
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
      sig[oname].node = out;
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
    n.replace_fanin(sig[l.output].node, 0, sig[l.input].node);
  for (const auto& [name, at] : outputs) n.add_output(sig[name].node, name);
  n.sweep();

  // Defensive: anything the checks above missed must not escape as a
  // structurally-invalid netlist.
  if (std::size_t bad = validate(n, eng); bad > 0) return std::nullopt;
  return n;
}

std::optional<Netlist> parse_string(const std::string& text,
                                    diag::DiagEngine& eng,
                                    const std::string& filename) {
  std::istringstream is(text);
  return parse(is, eng, filename);
}

Netlist read(std::istream& is) {
  diag::DiagEngine eng(8);
  auto n = parse(is, eng, "blif");
  if (!n) {
    const diag::Diagnostic* d = eng.first_error();
    throw diag::ParseError(d ? *d
                             : diag::Diagnostic{diag::Severity::Error,
                                                "parse failed",
                                                {}});
  }
  return std::move(*n);
}

Netlist read_string(const std::string& text) {
  std::istringstream is(text);
  return read(is);
}

Netlist read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f)
    throw diag::ParseError(diag::Diagnostic{
        diag::Severity::Error, "cannot open " + path, {path, 0, 0}});
  diag::DiagEngine eng(8);
  auto n = parse(f, eng, path);
  if (!n) {
    const diag::Diagnostic* d = eng.first_error();
    throw diag::ParseError(d ? *d
                             : diag::Diagnostic{diag::Severity::Error,
                                                "parse failed",
                                                {path, 0, 0}});
  }
  return std::move(*n);
}

void write(std::ostream& os, const Netlist& n) {
  // Signal names: a node's own name, else a generated "n<id>" fallback.
  // Fallbacks must not collide with an *explicit* name of a different
  // node, or the emitted file redefines that signal and fails to re-parse
  // (write -> parse -> write round trips hit this whenever a parse assigned
  // "n<k>" names and a later edit renumbered the nodes).  The name -> first
  // live id index is built once, so a write is O(n).
  std::unordered_map<std::string_view, NodeId> first;
  for (NodeId i = 0; i < n.size(); ++i)
    if (!n.is_dead(i) && !n.node(i).name.empty())
      first.emplace(n.node(i).name, i);
  auto node_ref = [&](NodeId id) {
    const Node& nd = n.node(id);
    if (!nd.name.empty()) return nd.name;
    std::string ref = "n" + std::to_string(id);
    while (true) {
      auto other = first.find(ref);
      if (other == first.end() || other->second == id) return ref;
      ref += "_";
    }
  };
  os << ".model " << (n.name().empty() ? "lps" : n.name()) << "\n.inputs";
  for (NodeId i : n.inputs()) os << ' ' << node_ref(i);
  os << "\n.outputs";
  for (const auto& name : n.output_names()) os << ' ' << name;
  os << '\n';
  for (NodeId d : n.dffs()) {
    const Node& nd = n.node(d);
    std::string din = node_ref(nd.fanins[0]);
    if (nd.fanins.size() == 2) {
      // Load-enabled register: emit the hold mux explicitly, since BLIF
      // latches have no enable pin.  next = EN ? D : Q.
      std::string mux = node_ref(d) + "_le";
      os << ".names " << node_ref(nd.fanins[1]) << ' ' << din << ' '
         << node_ref(d) << ' ' << mux << "\n11- 1\n0-1 1\n";
      din = mux;
    }
    os << ".latch " << din << ' ' << node_ref(d) << ' '
       << (nd.init_value ? 1 : 0) << '\n';
  }

  for (NodeId id : n.topo_order()) {
    const Node& nd = n.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    os << ".names";
    for (NodeId f : nd.fanins) os << ' ' << node_ref(f);
    os << ' ' << node_ref(id) << '\n';
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
      os << ".names " << node_ref(id) << "\n1\n";
    else if (nd.type == GateType::Const0)
      os << ".names " << node_ref(id) << "\n";
  }
  // Outputs that alias internal signals with a different name.
  const auto& outs = n.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (n.output_names()[i] != node_ref(outs[i]))
      os << ".names " << node_ref(outs[i]) << ' ' << n.output_names()[i]
         << "\n1 1\n";
  }
  os << ".end\n";
}

std::string write_string(const Netlist& n) {
  std::ostringstream os;
  write(os, n);
  return os.str();
}

}  // namespace lps::blif
