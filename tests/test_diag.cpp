// Diagnostics-layer tests: the Status/Diagnostic/DiagEngine vocabulary, a
// corpus of malformed BLIF/KISS inputs (each must produce a clean positioned
// Diagnostic — never a crash), and a deterministic mini-fuzzer that feeds
// thousands of byte/token mutations of valid files through both parsers.

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "blif_reference.hpp"

#include "core/diag.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "netlist/validate.hpp"
#include "seq/stg.hpp"

namespace lps {
namespace {

// ---------------------------------------------------------------------------
// Diagnostic vocabulary basics.

TEST(Diag, StatusAndFormatting) {
  diag::Status ok = diag::Status::ok();
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.message(), "");

  auto bad = diag::Status::error("width mismatch", {"in.blif", 12, 3});
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.diagnostic().str(), "error: in.blif:12:3: width mismatch");
  EXPECT_EQ(bad.diagnostic().loc.line, 12);
}

TEST(Diag, EngineCountsAndLimits) {
  diag::DiagEngine eng(/*max_kept=*/3);
  for (int i = 0; i < 10; ++i) eng.error("e" + std::to_string(i));
  eng.warning("w");
  EXPECT_EQ(eng.num_errors(), 10u);
  EXPECT_EQ(eng.num_warnings(), 1u);
  EXPECT_EQ(eng.diagnostics().size(), 3u);  // retention capped
  EXPECT_EQ(eng.num_suppressed(), 8u);
  EXPECT_FALSE(eng.ok());
  EXPECT_TRUE(eng.saturated());
  ASSERT_NE(eng.first_error(), nullptr);
  EXPECT_EQ(eng.first_error()->message, "e0");
  eng.clear();
  EXPECT_TRUE(eng.ok());
}

TEST(Diag, LpsCheckFiresInAllBuildModes) {
  // LPS_CHECK must fire regardless of NDEBUG — that is its whole point.
  EXPECT_THROW(LPS_CHECK(1 == 2, "one is not two"), diag::CheckError);
  try {
    LPS_CHECK(false, "ctx");
    FAIL() << "unreachable";
  } catch (const diag::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ctx"), std::string::npos);
    EXPECT_GT(e.diagnostic().loc.line, 0);  // carries this file's position
  }
}

// ---------------------------------------------------------------------------
// Malformed-input corpus.  Each entry is a broken file plus the line the
// first error diagnostic must point at (0 = whole-file error).

struct BadCase {
  const char* name;
  const char* text;
  int line;              // expected loc.line of the first error
  const char* fragment;  // expected substring of the first error message
};

const BadCase kBadBlif[] = {
    {"empty-file", "", 0, "empty input"},
    {"only-comment", "# nothing here\n", 0, "empty input"},
    {"truncated-names-header", ".model t\n.inputs a\n.names\n", 3,
     ".names needs at least an output"},
    {"truncated-latch", ".model t\n.inputs a\n.latch a\n", 3,
     ".latch needs input and output"},
    {"undefined-output", ".model t\n.inputs a\n.outputs y\n.end\n", 3,
     "never defined"},
    {"undefined-table-input",
     ".model t\n.inputs a\n.outputs y\n.names a q y\n11 1\n.end\n", 4,
     "undefined signal \"q\""},
    {"undefined-latch-input",
     ".model t\n.inputs a\n.outputs q\n.latch mystery q 0\n.end\n", 4,
     "undefined signal \"mystery\""},
    {"cube-width-short",
     ".model t\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n", 5,
     "cube width mismatch"},
    {"cube-width-long",
     ".model t\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end\n", 5,
     "cube width mismatch"},
    {"bad-cube-char",
     ".model t\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n.end\n", 5,
     "bad cube character"},
    {"bad-output-value",
     ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 2\n.end\n", 5,
     "output value must be 0 or 1"},
    {"row-outside-names", "11 1\n", 1, "outside any .names"},
    {"row-after-latch",
     ".model t\n.inputs a\n.outputs q\n.latch a q 0\n11 1\n.end\n", 5,
     "outside any .names"},
    {"dependency-cycle",
     ".model t\n.inputs a\n.outputs y\n"
     ".names a x y\n11 1\n.names y z\n1 1\n.names z x\n1 1\n.end\n",
     4, "dependency cycle"},
    {"self-cycle",
     ".model t\n.inputs a\n.outputs y\n.names a y y\n11 1\n.end\n", 4,
     "dependency cycle"},
    {"duplicate-driver",
     ".model t\n.inputs a b\n.outputs y\n"
     ".names a y\n1 1\n.names b y\n1 1\n.end\n",
     6, "redefined"},
    {"names-redefines-input",
     ".model t\n.inputs a b\n.outputs a\n.names b a\n1 1\n.end\n", 4,
     "redefined"},
    {"duplicate-latch-output",
     ".model t\n.inputs a b\n.outputs q\n.latch a q 0\n.latch b q 0\n.end\n",
     5, "redefined"},
    {"mixed-onset-offset",
     ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n", 4,
     "mixes output values"},
    {"constant-row-garbage",
     ".model t\n.outputs y\n.names y\nmaybe\n.end\n", 4,
     "constant table row"},
    {"duplicate-po",
     ".model t\n.inputs a\n.outputs y y\n.names a y\n1 1\n.end\n", 3,
     "listed twice"},
};

TEST(BadInputCorpus, BlifEachCaseYieldsPositionedDiagnostic) {
  for (const auto& c : kBadBlif) {
    diag::DiagEngine eng;
    std::optional<Netlist> net;
    ASSERT_NO_THROW(net = blif::parse_string(c.text, eng, "in.blif"))
        << c.name;
    EXPECT_FALSE(net.has_value()) << c.name;
    ASSERT_FALSE(eng.ok()) << c.name;
    const diag::Diagnostic* d = eng.first_error();
    ASSERT_NE(d, nullptr) << c.name;
    EXPECT_NE(d->message.find(c.fragment), std::string::npos)
        << c.name << ": got \"" << d->message << '"';
    EXPECT_EQ(d->loc.line, c.line) << c.name << ": " << d->str();
    EXPECT_EQ(d->loc.file, "in.blif") << c.name;
    // The throwing wrapper reports the same failure as an exception.
    EXPECT_THROW(blif::read_string(c.text), diag::ParseError) << c.name;
  }
}

const BadCase kBadKiss[] = {
    {"empty-file", "", 0, "empty input"},
    {"short-transition", ".i 1\n.o 1\n0 s0 s1\n.e\n", 3,
     "malformed transition"},
    {"bad-i-header", ".i banana\n.o 1\n0 s0 s1 1\n.e\n", 1,
     ".i header needs an integer"},
    {"negative-width", ".i -3\n.o 1\n0 s0 s1 1\n.e\n", 1,
     ".i header needs an integer"},
    {"huge-width", ".i 4000000000\n.o 1\n0 s0 s1 1\n.e\n", 1,
     ".i header needs an integer"},
    {"input-width-mismatch", ".i 2\n.o 1\n0 s0 s1 1\n.e\n", 3,
     "input cube"},
    {"output-width-mismatch", ".i 1\n.o 2\n0 s0 s1 1\n.e\n", 3,
     "output bits"},
    {"bad-cube-char", ".i 1\n.o 1\nq s0 s1 1\n.e\n", 3,
     "bad input cube character"},
    {"unknown-reset", ".i 1\n.o 1\n.r nowhere\n0 s0 s1 1\n.e\n", 3,
     "reset state"},
    {"nondeterministic", ".i 1\n.o 1\n1 s0 s1 1\n1 s0 s2 0\n.e\n", 0,
     "nondeterministic"},
};

TEST(BadInputCorpus, KissEachCaseYieldsPositionedDiagnostic) {
  for (const auto& c : kBadKiss) {
    diag::DiagEngine eng;
    std::optional<seq::Stg> g;
    ASSERT_NO_THROW(g = seq::parse_kiss_string(c.text, eng, "in.kiss"))
        << c.name;
    EXPECT_FALSE(g.has_value()) << c.name;
    ASSERT_FALSE(eng.ok()) << c.name;
    const diag::Diagnostic* d = eng.first_error();
    ASSERT_NE(d, nullptr) << c.name;
    EXPECT_NE(d->message.find(c.fragment), std::string::npos)
        << c.name << ": got \"" << d->message << '"';
    EXPECT_EQ(d->loc.line, c.line) << c.name << ": " << d->str();
    EXPECT_THROW(seq::read_kiss_string(c.text), diag::ParseError) << c.name;
  }
}

TEST(BadInputCorpus, HugeLineDoesNotCrash) {
  // A single multi-megabyte line: the parser must diagnose, not hang or die.
  std::string big(2u << 20, '1');
  std::string text = ".model t\n.inputs a b\n.outputs y\n.names a b y\n" +
                     big + " 1\n.end\n";
  diag::DiagEngine eng;
  auto net = blif::parse_string(text, eng);
  EXPECT_FALSE(net.has_value());
  EXPECT_FALSE(eng.ok());

  // And a wide-but-valid one must parse: a 64-input AND via one cube.
  std::string sigs, mask(64, '1');
  for (int i = 0; i < 64; ++i) sigs += " x" + std::to_string(i);
  std::string wide = ".model w\n.inputs" + sigs + "\n.outputs y\n.names" +
                     sigs + " y\n" + mask + " 1\n.end\n";
  diag::DiagEngine eng2;
  auto net2 = blif::parse_string(wide, eng2);
  ASSERT_TRUE(net2.has_value()) << eng2.str();
  EXPECT_EQ(net2->check(), "");
  EXPECT_EQ(net2->inputs().size(), 64u);
}

TEST(BadInputCorpus, TruncationOfValidFileNeverCrashes) {
  // Every prefix of a valid sequential BLIF file must either parse or
  // produce diagnostics — no crashes, no invalid netlists.
  Netlist nl("trunc");
  {
    NodeId a = nl.add_input("a");
    NodeId b = nl.add_input("b");
    NodeId q = nl.add_dff(nl.add_xor(a, b), true, "q");
    nl.add_output(nl.add_and(q, a), "y");
  }
  std::string full = blif::write_string(nl);
  ASSERT_NE(full.find(".latch"), std::string::npos);
  for (std::size_t cut = 0; cut <= full.size(); cut += 7) {
    diag::DiagEngine eng;
    std::optional<Netlist> net;
    ASSERT_NO_THROW(net = blif::parse_string(full.substr(0, cut), eng))
        << "cut at " << cut;
    if (net) {
      EXPECT_EQ(net->check(), "") << "cut at " << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic mini-fuzzer: seeded byte/token mutations of valid inputs.
// The contract under test: arbitrary bytes in, and the parser either returns
// a structurally valid artifact or structured diagnostics — never an escaped
// exception, crash, or hang.

std::string mutate(const std::string& base, std::mt19937& rng) {
  std::string s = base;
  int n_mut = 1 + static_cast<int>(rng() % 4);
  for (int m = 0; m < n_mut && !s.empty(); ++m) {
    switch (rng() % 6) {
      case 0:  // flip a byte to anything (including '\0' and 0xFF)
        s[rng() % s.size()] = static_cast<char>(rng() % 256);
        break;
      case 1:  // delete a span
        {
          std::size_t at = rng() % s.size();
          s.erase(at, 1 + rng() % 16);
        }
        break;
      case 2:  // insert garbage
        {
          std::size_t at = rng() % (s.size() + 1);
          std::string junk;
          for (int k = 0; k < 1 + static_cast<int>(rng() % 8); ++k)
            junk += static_cast<char>(rng() % 256);
          s.insert(at, junk);
        }
        break;
      case 3:  // truncate
        s.resize(rng() % s.size());
        break;
      case 4:  // duplicate a span (token soup / repeated declarations)
        {
          std::size_t at = rng() % s.size();
          std::size_t len = std::min<std::size_t>(1 + rng() % 32,
                                                  s.size() - at);
          s.insert(at, s.substr(at, len));
        }
        break;
      case 5:  // swap two characters (reorders tokens/keywords)
        std::swap(s[rng() % s.size()], s[rng() % s.size()]);
        break;
    }
  }
  return s;
}

TEST(ParserFuzz, BlifSurvives1500SeededMutations) {
  std::ostringstream comb, seq_os;
  blif::write(comb, bench::c17());
  // A sequential base so .latch paths get fuzzed too.
  Netlist seq_net("fuzzseq");
  {
    NodeId a = seq_net.add_input("a");
    NodeId b = seq_net.add_input("b");
    NodeId x = seq_net.add_xor(a, b);
    NodeId q = seq_net.add_dff(x, true, "q");
    seq_net.add_output(seq_net.add_and(q, a), "y");
  }
  blif::write(seq_os, seq_net);

  std::mt19937 rng(0xB11F);
  int parsed_ok = 0, rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string& base = (i % 2 == 0) ? comb.str() : seq_os.str();
    std::string text = mutate(base, rng);
    diag::DiagEngine eng(16);
    std::optional<Netlist> net;
    ASSERT_NO_THROW(net = blif::parse_string(text, eng))
        << "iteration " << i;
    if (net) {
      ++parsed_ok;
      // Whatever parses must be structurally sound.
      ASSERT_EQ(net->check(), "") << "iteration " << i;
    } else {
      ++rejected;
      EXPECT_FALSE(eng.ok()) << "iteration " << i
                             << ": rejected without any error diagnostic";
    }
  }
  // The fuzzer must actually exercise both outcomes.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_GT(rejected, 0);
}

// The string_view parser against the istringstream/std::map reference on
// the same mutations and on the malformed corpus: identical diagnostic
// text (positions included) and identical netlists.
TEST(ParserFuzz, BlifMatchesReferenceParser) {
  std::vector<std::string> texts;
  for (const auto& c : kBadBlif) texts.emplace_back(c.text);
  Netlist seq_net("fuzzseq");
  {
    NodeId a = seq_net.add_input("a");
    NodeId b = seq_net.add_input("b");
    NodeId q = seq_net.add_dff(seq_net.add_xor(a, b), true, "q");
    seq_net.add_output(seq_net.add_and(q, a), "y");
  }
  const std::string comb = blif::write_string(bench::c17());
  const std::string seq = blif::write_string(seq_net);
  std::mt19937 rng(0xB11F);
  for (int i = 0; i < 1500; ++i)
    texts.push_back(mutate(i % 2 == 0 ? comb : seq, rng));
  for (std::size_t i = 0; i < texts.size(); ++i) {
    diag::DiagEngine got_eng(16), want_eng(16);
    const auto got = blif::parse_string(texts[i], got_eng, "f.blif");
    const auto want =
        reference::blif_parse_string(texts[i], want_eng, "f.blif");
    ASSERT_EQ(got_eng.str(), want_eng.str()) << "text " << i;
    ASSERT_EQ(got_eng.num_errors(), want_eng.num_errors()) << "text " << i;
    ASSERT_EQ(got_eng.num_warnings(), want_eng.num_warnings()) << "text " << i;
    ASSERT_EQ(got.has_value(), want.has_value()) << "text " << i;
    if (got) {
      ASSERT_EQ(got->size(), want->size()) << "text " << i;
      ASSERT_EQ(blif::write_string(*got), blif::write_string(*want))
          << "text " << i;
    }
  }
}

TEST(ParserFuzz, KissSurvives1500SeededMutations) {
  std::ostringstream os;
  seq::write_kiss(os, seq::mcnc_dk27());
  const std::string base = os.str();

  std::mt19937 rng(0x1455);
  int parsed_ok = 0, rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    std::string text = mutate(base, rng);
    diag::DiagEngine eng(16);
    std::optional<seq::Stg> g;
    ASSERT_NO_THROW(g = seq::parse_kiss_string(text, eng))
        << "iteration " << i;
    if (g) {
      ++parsed_ok;
      ASSERT_EQ(g->check(), "") << "iteration " << i;
    } else {
      ++rejected;
      EXPECT_FALSE(eng.ok()) << "iteration " << i
                             << ": rejected without any error diagnostic";
    }
  }
  EXPECT_GT(parsed_ok, 0);
  EXPECT_GT(rejected, 0);
}

// Valid files keep parsing, with zero diagnostics.
TEST(ParserFuzz, RoundTripStillClean) {
  for (const auto& [name, net] : bench::default_suite()) {
    std::ostringstream os;
    blif::write(os, net);
    diag::DiagEngine eng;
    auto back = blif::parse_string(os.str(), eng, name);
    ASSERT_TRUE(back.has_value()) << name << "\n" << eng.str();
    EXPECT_EQ(eng.num_errors(), 0u) << name;
    EXPECT_EQ(back->check(), "") << name;
  }
}

}  // namespace
}  // namespace lps
