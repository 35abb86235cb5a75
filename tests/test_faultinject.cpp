// Fault-injection tests: the checker checking the checker.  Every corruption
// class the harness can inject must be caught — structural classes by
// validate()/Netlist::check(), the functional class by the PassManager's
// random-simulation equivalence verifier (with rollback).

#include <gtest/gtest.h>

#include "core/pass.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/faultinject.hpp"
#include "netlist/validate.hpp"
#include "sim/logicsim.hpp"

namespace lps {
namespace {

Netlist healthy() {
  auto net = bench::carry_select_adder(8, 2);
  EXPECT_EQ(net.check(), "");
  return net;
}

TEST(FaultInject, EveryStructuralFaultIsCaughtByValidate) {
  for (fault::Fault f : fault::structural_faults()) {
    for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
      auto net = healthy();
      auto inj = fault::inject(net, f, seed);
      ASSERT_TRUE(inj.applied)
          << fault::to_string(f) << " seed " << seed
          << ": no viable site in an adder-sized netlist?";
      diag::DiagEngine eng;
      std::size_t n_err = validate(net, eng);
      EXPECT_GT(n_err, 0u) << fault::to_string(f) << " seed " << seed
                           << " escaped validate(): " << inj.description;
      EXPECT_NE(net.check(), "") << fault::to_string(f) << " seed " << seed;
    }
  }
}

TEST(FaultInject, ValidateDiagnosticsNameTheSite) {
  // The diagnostics must be actionable: each names the corrupted node.
  auto net = healthy();
  auto inj = fault::inject(net, fault::Fault::DanglingFanin, 3);
  ASSERT_TRUE(inj.applied);
  diag::DiagEngine eng;
  validate(net, eng);
  ASSERT_FALSE(eng.ok());
  bool mentions_site = false;
  std::string want = std::to_string(inj.site);
  for (const auto& d : eng.diagnostics())
    if (d.message.find(want) != std::string::npos) mentions_site = true;
  EXPECT_TRUE(mentions_site) << "site " << inj.site << " not mentioned in:\n"
                             << eng.str();
}

// The edit-scoped check against the full one on every structural class,
// injected inside an open undo epoch: the same verdict, and for every class
// but a cycle the same first diagnostic.  A scoped cycle report names the
// injected site, which every cycle the rewire closes runs through.
TEST(FaultInject, ScopedCheckCatchesEveryStructuralFault) {
  int injected = 0;
  for (const auto& [name, circuit] : bench::default_suite()) {
    for (fault::Fault f : fault::structural_faults()) {
      for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
        Netlist net = circuit.clone();
        ASSERT_EQ(net.check(), "") << name;
        net.begin_undo();
        auto inj = fault::inject(net, f, seed);
        if (!inj.applied) continue;
        ++injected;
        const std::string what =
            name + " " + std::string(fault::to_string(f)) + " seed " +
            std::to_string(seed) + ": " + inj.description;
        diag::DiagEngine full(1), scoped(1);
        ASSERT_GT(validate(net, full), 0u) << what;
        ASSERT_GT(validate_edit(net, scoped), 0u) << what;
        const std::string& got = scoped.diagnostics().front().message;
        if (f != fault::Fault::WireCycle) {
          EXPECT_EQ(got, full.diagnostics().front().message) << what;
        } else {
          const std::string site = std::to_string(inj.site) + " (";
          EXPECT_EQ(got.rfind("combinational cycle: ", 0), 0u) << what;
          EXPECT_TRUE(got.find(": " + site) != std::string::npos ||
                      got.find("-> " + site) != std::string::npos)
              << what << " -- " << got;
        }
        net.rollback_undo();
        EXPECT_EQ(net.check(), "") << what;
      }
    }
  }
  EXPECT_GT(injected, 50);
}

TEST(FaultInject, FunctionFlipIsStructurallyLegalButNotEquivalent) {
  auto net = healthy();
  auto golden = net.clone();
  auto inj = fault::inject(net, fault::Fault::FlipGateFunction, 5);
  ASSERT_TRUE(inj.applied) << inj.description;
  // Structurally fine — this is exactly the fault class validate() cannot
  // see and the equivalence verifier exists for.
  EXPECT_EQ(net.check(), "") << inj.description;
  EXPECT_FALSE(sim::equivalent_random(golden, net, 2048, 11))
      << inj.description;
}

TEST(FaultInject, PassVerifierCatchesAndRollsBackEveryFaultClass) {
  // Acceptance criterion: a pass that corrupts the netlist — whatever the
  // corruption class — is caught by the PassManager, rolled back, and the
  // flow continues to a correct final circuit.
  for (fault::Fault f : fault::all_faults()) {
    auto net = healthy();
    auto golden = net.clone();
    core::PassManager pm;
    pm.add(core::make_strash_pass());
    pm.add(std::string("inject-") + std::string(fault::to_string(f)),
           [f](Netlist& n) {
             auto inj = fault::inject(n, f, 1);
             return inj.applied ? inj.description : std::string("no site");
           });
    pm.add(core::make_sweep_pass());
    auto records = pm.run(net);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_TRUE(records[0].ok()) << fault::to_string(f);
    EXPECT_FALSE(records[1].ok())
        << fault::to_string(f) << " slipped through the verifier";
    EXPECT_EQ(records[1].status, "failed") << fault::to_string(f);
    EXPECT_FALSE(records[1].note.empty()) << fault::to_string(f);
    EXPECT_TRUE(records[2].ok()) << fault::to_string(f);
    EXPECT_FALSE(core::all_ok(records)) << fault::to_string(f);
    // Rollback restored a healthy, equivalent netlist and later passes ran.
    EXPECT_EQ(net.check(), "") << fault::to_string(f);
    EXPECT_TRUE(sim::equivalent_random(golden, net, 1024, 17))
        << fault::to_string(f);
  }
}

TEST(FaultInject, SequentialCircuitsAreCoveredToo) {
  // WireCycle must respect Dff boundaries: a path through a register is a
  // legal sequential loop, not a combinational cycle — the injector has to
  // find a genuinely combinational one.
  auto net = bench::shift_register(6);
  ASSERT_EQ(net.check(), "");
  auto inj = fault::inject(net, fault::Fault::WireCycle, 2);
  if (inj.applied) {
    EXPECT_NE(net.check(), "") << inj.description;
    diag::DiagEngine eng;
    validate(net, eng);
    ASSERT_FALSE(eng.ok());
    EXPECT_NE(eng.first_error()->message.find("cycle"), std::string::npos)
        << eng.str();
  }
  // DanglingFanin always has a site on any circuit with a gate.
  auto net2 = bench::shift_register(6);
  auto inj2 = fault::inject(net2, fault::Fault::DanglingFanin, 2);
  ASSERT_TRUE(inj2.applied);
  EXPECT_NE(net2.check(), "");
}

TEST(FaultInject, InjectionIsDeterministic) {
  auto a = healthy();
  auto b = healthy();
  auto ia = fault::inject(a, fault::Fault::DropFanin, 42);
  auto ib = fault::inject(b, fault::Fault::DropFanin, 42);
  EXPECT_EQ(ia.site, ib.site);
  EXPECT_EQ(ia.description, ib.description);
}

}  // namespace
}  // namespace lps
