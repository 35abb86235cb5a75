// BLIF reader/writer tests.

#include <gtest/gtest.h>

#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "sim/logicsim.hpp"

#include "blif_reference.hpp"
#include "logicsim_reference.hpp"

namespace lps {
namespace {

const char* kC17 = R"(
# ISCAS85 c17 in BLIF
.model c17
.inputs 1 2 3 6 7
.outputs 22 23
.names 1 3 10
0- 1
-0 1
.names 3 6 11
0- 1
-0 1
.names 2 11 16
0- 1
-0 1
.names 11 7 19
0- 1
-0 1
.names 10 16 22
0- 1
-0 1
.names 16 19 23
0- 1
-0 1
.end
)";

TEST(Blif, ParsesC17AndMatchesBuiltin) {
  Netlist parsed = blif::read_string(kC17);
  EXPECT_EQ(parsed.inputs().size(), 5u);
  EXPECT_EQ(parsed.outputs().size(), 2u);
  Netlist builtin = bench::c17();
  EXPECT_TRUE(sim::equivalent_random(builtin, parsed, 64, 1));
}

TEST(Blif, RoundTripCombinational) {
  for (const auto& [name, net] : bench::default_suite()) {
    if (!net.dffs().empty()) continue;
    auto text = blif::write_string(net);
    Netlist back = blif::read_string(text);
    EXPECT_EQ(back.inputs().size(), net.inputs().size()) << name;
    EXPECT_EQ(back.outputs().size(), net.outputs().size()) << name;
    EXPECT_TRUE(sim::equivalent_random(net, back, 64, 7)) << name;
  }
}

// The writer's name index emits exactly the text of the linear-scan
// reference.
TEST(Blif, WriterMatchesReference) {
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    const Netlist net = bench::random_dag(64, 2000, seed);
    EXPECT_EQ(blif::write_string(net), reference::blif_write_string(net))
        << "seed " << seed;
  }
  const Netlist mult = bench::array_multiplier(16);
  EXPECT_EQ(blif::write_string(mult), reference::blif_write_string(mult));
  for (const auto& [name, net] : bench::default_suite())
    EXPECT_EQ(blif::write_string(net), reference::blif_write_string(net))
        << name;
}

// An unnamed node's fallback "n<id>" must step around explicit names of
// other nodes ("n2", then "n2_"), or the file redefines those signals.
TEST(Blif, FallbackNamesAvoidExplicitNames) {
  Netlist net("clash");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId x = net.add_and(a, b);  // id 2, unnamed
  ASSERT_EQ(x, 2u);
  const NodeId y = net.add_gate(GateType::Or, {x, a}, "n2");
  const NodeId z = net.add_gate(GateType::Xor, {y, b}, "n2_");
  net.add_output(net.add_nand(z, x), "out");
  const std::string text = blif::write_string(net);
  EXPECT_EQ(text, reference::blif_write_string(net));
  EXPECT_NE(text.find(" n2__"), std::string::npos);
  const Netlist back = blif::read_string(text);
  EXPECT_TRUE(sim::equivalent_random(net, back, 64, 3));
}

TEST(Blif, RoundTripSequential) {
  auto net = bench::counter(4);
  auto text = blif::write_string(net);
  Netlist back = blif::read_string(text);
  EXPECT_EQ(back.dffs().size(), 4u);
  EXPECT_TRUE(sim::equivalent_random(net, back, 128, 3));
}

TEST(Blif, EnabledRegisterRoundTripsAsHoldMux) {
  // BLIF has no latch-enable pin; write() must expand EN registers into an
  // explicit recirculating mux so behaviour survives the round trip.
  Netlist n("en");
  NodeId d = n.add_input("d");
  NodeId en = n.add_input("en");
  NodeId q = n.add_dff(d, true, "q");
  n.set_dff_enable(q, en);
  n.add_output(q, "y");
  auto text = blif::write_string(n);
  Netlist back = blif::read_string(text);
  ASSERT_EQ(back.dffs().size(), 1u);
  EXPECT_TRUE(back.node(back.dffs()[0]).init_value);
  EXPECT_TRUE(sim::equivalent_random(n, back, 256, 3));
}

TEST(Blif, StrashKeepsEnablePins) {
  Netlist n("en2");
  NodeId d = n.add_input("d");
  NodeId en = n.add_input("en");
  NodeId q = n.add_dff(d, false, "q");
  n.set_dff_enable(q, en);
  n.add_output(q, "y");
  Netlist s = strash(n);
  ASSERT_EQ(s.dffs().size(), 1u);
  EXPECT_TRUE(s.dff_has_enable(s.dffs()[0]));
  EXPECT_TRUE(sim::equivalent_random(n, s, 256, 5));
}

TEST(Blif, LatchInitValue) {
  const char* text = R"(
.model t
.inputs a
.outputs q
.names a d
1 1
.latch d q 1
.end
)";
  Netlist n = blif::read_string(text);
  ASSERT_EQ(n.dffs().size(), 1u);
  EXPECT_TRUE(n.node(n.dffs()[0]).init_value);
}

TEST(Blif, OffsetTable) {
  // Output value 0 rows define the complement.
  const char* text = R"(
.model t
.inputs a b
.outputs y
.names a b y
11 0
.end
)";
  Netlist n = blif::read_string(text);
  reference::LogicSim s(n);
  std::vector<std::uint64_t> pi{0b0011, 0b0101};  // a, b patterns
  auto f = s.eval(pi);
  EXPECT_EQ(f[n.outputs()[0]] & 0xF, 0b1110u);  // !(a&b)
}

TEST(Blif, ConstantTables) {
  const char* text = R"(
.model t
.inputs a
.outputs one zero
.names one
1
.names zero
.end
)";
  Netlist n = blif::read_string(text);
  reference::LogicSim s(n);
  std::vector<std::uint64_t> pi{0};
  auto f = s.eval(pi);
  EXPECT_EQ(f[n.outputs()[0]], ~0ULL);
  EXPECT_EQ(f[n.outputs()[1]], 0ULL);
}

TEST(Blif, MalformedInputsThrow) {
  EXPECT_THROW(blif::read_string(".model t\n.inputs a\n.outputs y\n.end\n"),
               std::runtime_error);  // undefined output y
  EXPECT_THROW(blif::read_string("11 1\n"), std::runtime_error);
  EXPECT_THROW(
      blif::read_string(
          ".model t\n.inputs a\n.outputs y\n.names a b y\n11 1\n.end\n"),
      std::runtime_error);  // b never defined
}

TEST(Blif, ContinuationLines) {
  const char* text =
      ".model t\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
  Netlist n = blif::read_string(text);
  EXPECT_EQ(n.inputs().size(), 2u);
}

// The parser against the istringstream/std::map reference: the same
// verdict, the same diagnostics at the same positions, and the same
// netlist node for node (ids, names, tombstones, wiring, PI/PO lists).
void expect_parse_matches_reference(const std::string& text,
                                    const std::string& what) {
  diag::DiagEngine got_eng(64), want_eng(64);
  const auto got = blif::parse_string(text, got_eng, "x.blif");
  const auto want = reference::blif_parse_string(text, want_eng, "x.blif");
  EXPECT_EQ(got_eng.str(), want_eng.str()) << what;
  EXPECT_EQ(got_eng.num_errors(), want_eng.num_errors()) << what;
  EXPECT_EQ(got_eng.num_warnings(), want_eng.num_warnings()) << what;
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  const Netlist& a = *got;
  const Netlist& b = *want;
  EXPECT_EQ(a.name(), b.name()) << what;
  EXPECT_EQ(a.inputs(), b.inputs()) << what;
  EXPECT_EQ(a.outputs(), b.outputs()) << what;
  EXPECT_EQ(a.output_names(), b.output_names()) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (NodeId i = 0; i < a.size(); ++i) {
    const Node& x = a.node(i);
    const Node& y = b.node(i);
    ASSERT_TRUE(x.type == y.type && x.fanins == y.fanins &&
                x.fanouts == y.fanouts && x.name == y.name &&
                x.size == y.size && x.delay == y.delay &&
                x.init_value == y.init_value && x.dead == y.dead)
        << what << " node " << i;
  }
}

TEST(Blif, ParserMatchesReference) {
  expect_parse_matches_reference(
      blif::write_string(bench::random_dag(64, 2000, 11)), "rand");
  expect_parse_matches_reference(
      blif::write_string(bench::array_multiplier(16)), "mult16");
  for (const auto& [name, net] : bench::default_suite())
    expect_parse_matches_reference(blif::write_string(net), name);
  expect_parse_matches_reference(kC17, "c17 text");
  // Comments, continuations (a trailing '\' joins lines, an escaped one
  // before an empty line too), CR line ends, latches and constants.
  expect_parse_matches_reference(
      ".model t # c\n.inputs a \\\nb\r\n.outputs y q z\n"
      ".names a b \\\\\n\ny\n11 1\n.latch y q re clk 1\n.names z\n1\n"
      ".end\n",
      "layout");
  expect_parse_matches_reference(".inputs a\n.outputs a\n\\", "eof fold");
}

TEST(Blif, MissingFileThrows) {
  EXPECT_THROW(blif::read_file("/nonexistent/file.blif"), std::runtime_error);
}

}  // namespace
}  // namespace lps
