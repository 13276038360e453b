// Shows that the output checks can fail: each check gets an answer it
// must accept and a tampered one it must reject. The answers are real:
// scenario 1 is synthesized and R1 is asked in faithful mode (claim C3).
#include <cstdio>

#include "bench.hpp"
#include "checks.hpp"
#include "config/routemap.hpp"
#include "explain/batch.hpp"
#include "synth/scenarios.hpp"
#include "synth/synthesizer.hpp"

namespace nsbench {

namespace {

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  const auto at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

}  // namespace

int RunSelfTest() {
  int failures = 0;
  auto expect = [&](const char* what, const std::string& why, bool reject) {
    const bool ok = reject ? !why.empty() : why.empty();
    const std::string verdict =
        why.empty() ? "(accepted)" : "(rejected: " + why + ")";
    std::printf("%s  %-58s %s\n", ok ? "ok  " : "FAIL", what,
                verdict.c_str());
    failures += ok ? 0 : 1;
  };

  const ns::synth::Scenario scenario = ns::synth::Scenario1();
  Problem problem;
  problem.label = "scenario1";
  problem.topo = scenario.topo;
  problem.spec = scenario.spec;
  ns::synth::Synthesizer synthesizer(problem.topo, problem.spec);
  auto solved = synthesizer.Synthesize(scenario.sketch);
  if (!solved) {
    std::printf("FAIL  synthesis: %s\n", solved.error().ToString().c_str());
    return 1;
  }
  problem.solved = std::move(solved.value().network);

  ns::explain::BatchRequest request;
  request.selection = ns::explain::Selection::Router("R1");
  request.mode = ns::explain::LiftMode::kFaithful;
  auto answered = ns::explain::AnswerRequest(problem.topo, problem.spec,
                                             problem.solved, request);
  if (!answered) {
    std::printf("FAIL  answer: %s\n", answered.error().ToString().c_str());
    return 1;
  }
  const std::string subspec = answered.value().subspec_text;
  const std::set<std::string> paper = {"!(R1->P1)"};

  Simulated simulated;
  expect("(c) solved configuration", CheckSolvedConfig(problem, simulated),
         false);
  Problem open = problem;
  for (auto& [router, cfg] : open.solved.routers) {
    for (auto& [name, map] : cfg.route_maps) {
      map.entries = {ns::config::PermitAll(10)};
    }
  }
  Simulated unused;
  expect("(c) configuration that permits every route",
         CheckSolvedConfig(open, unused), true);

  expect("(a) paper answer", CheckPaperAnswer(subspec, paper), false);
  const std::string dropped = Replace(subspec, "  !(R1->P1)\n", "");
  expect("(a) dropped statement", CheckPaperAnswer(dropped, paper), true);
  const std::string other = Replace(subspec, "!(R1->P1)", "!(R2->P1)");
  expect("(a) statement naming another router",
         CheckPaperAnswer(other, paper), true);
  expect("(a) contains: dropped statement",
         CheckPaperAnswerContains(dropped, paper), true);

  expect("localized answer", CheckLocalized(subspec, "R1"), false);
  expect("localized: statement naming another router",
         CheckLocalized(other, "R1"), true);
  expect("localized: answer about another router",
         CheckLocalized(Replace(subspec, "R1 {", "R2 {"), "R1"), true);

  expect("(b) lifted requirement on the simulated network",
         CheckHoldsInNetwork(subspec, simulated), false);
  const std::string transit =
      Replace(subspec, "!(R1->P1)", "(P2->R2->R1->P1)");
  expect("(b) requirement the network does not meet",
         CheckHoldsInNetwork(transit, simulated), true);

  const std::string report = answered.value().report;
  std::string byte = subspec;
  byte[byte.size() / 2] ^= 0x01;
  expect("(d)/(e) identical subspec",
         CheckIdentical("subspec", subspec, subspec), false);
  expect("(d) served subspec changed by one byte",
         CheckIdentical("served subspec", byte, subspec), true);
  expect("(e) traced report one byte short",
         CheckIdentical("traced report", report.substr(1), report), true);
  expect("(d) cache hits counted alike", CheckCacheHits(41, 41), false);
  expect("(d) miscounted cache hit", CheckCacheHits(42, 41), true);

  std::printf("%s\n", failures == 0 ? "self-test passed"
                                    : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace nsbench
