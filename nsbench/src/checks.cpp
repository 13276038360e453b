#include "checks.hpp"

#include <algorithm>
#include <variant>

#include "bgp/simulator.hpp"
#include "spec/parser.hpp"
#include "synth/candidates.hpp"

namespace nsbench {

using ns::util::Result;

namespace {

/// Every path pattern a statement names.
std::vector<const ns::spec::PathPattern*> PatternsOf(
    const ns::spec::Statement& statement) {
  std::vector<const ns::spec::PathPattern*> out;
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, ns::spec::PreferStmt>) {
          for (const auto& p : s.ranking) out.push_back(&p);
        } else {
          out.push_back(&s.path);
        }
      },
      statement);
  return out;
}

std::string Join(const std::set<std::string>& items) {
  std::string out = "{";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ", ";
    out += item;
  }
  return out + "}";
}

}  // namespace

Result<ns::spec::Requirement> ParseLifted(const std::string& text) {
  ns::spec::ParseOptions options;
  options.localized = true;
  auto parsed = ns::spec::ParseSpec(text, options);
  if (!parsed) return parsed.error();
  if (parsed.value().requirements.size() != 1) {
    return ns::util::Error(ns::util::ErrorCode::kParse,
                           "expected one lifted block, got " +
                               std::to_string(
                                   parsed.value().requirements.size()));
  }
  return parsed.value().requirements.front();
}

std::set<std::string> StatementSet(const ns::spec::Requirement& lifted) {
  std::set<std::string> out;
  for (const auto& statement : lifted.statements) {
    out.insert(ns::spec::ToString(statement));
  }
  return out;
}

std::string CheckPaperAnswer(const std::string& subspec,
                             const std::set<std::string>& expected) {
  auto lifted = ParseLifted(subspec);
  if (!lifted) return "unparsable answer: " + lifted.error().ToString();
  const std::set<std::string> got = StatementSet(lifted.value());
  if (got != expected) {
    return "paper answer " + Join(expected) + " but got " + Join(got);
  }
  return "";
}

std::string CheckPaperAnswerContains(const std::string& subspec,
                                     const std::set<std::string>& expected) {
  auto lifted = ParseLifted(subspec);
  if (!lifted) return "unparsable answer: " + lifted.error().ToString();
  const std::set<std::string> got = StatementSet(lifted.value());
  for (const std::string& statement : expected) {
    if (got.count(statement) == 0) {
      return "paper statement " + statement + " missing from " + Join(got);
    }
  }
  return "";
}

std::string CheckLocalized(const std::string& subspec,
                           const std::string& router) {
  auto lifted = ParseLifted(subspec);
  if (!lifted) return "unparsable answer: " + lifted.error().ToString();
  const ns::spec::Requirement& req = lifted.value();
  if (req.scope_router != router) {
    return "answer scoped to " + req.scope_router.value_or("<none>") +
           ", asked about " + router;
  }
  for (const auto& statement : req.statements) {
    for (const ns::spec::PathPattern* pattern : PatternsOf(statement)) {
      const auto names = pattern->NodeNames();
      if (std::find(names.begin(), names.end(), router) == names.end()) {
        return "statement " + ns::spec::ToString(statement) +
               " does not pass through " + router;
      }
    }
  }
  return "";
}

std::string CheckSolvedConfig(const Problem& problem, Simulated& simulated) {
  auto sim = ns::bgp::Simulate(problem.topo, problem.solved);
  if (!sim) {
    return problem.label + ": simulation failed: " + sim.error().ToString();
  }
  auto destinations =
      ns::synth::BuildDestinations(problem.topo, problem.solved, problem.spec);
  if (!destinations) {
    return problem.label + ": " + destinations.error().ToString();
  }
  simulated.spec = problem.spec;
  for (const ns::synth::Destination& dest : destinations.value()) {
    if (dest.declared) continue;
    simulated.spec.destinations.push_back(
        ns::spec::DestDecl{dest.name, dest.prefix, dest.origins});
  }
  simulated.outcome = ns::bgp::ToRoutingOutcome(sim.value(), simulated.spec);
  const ns::spec::CheckResult check =
      ns::spec::Check(simulated.spec, simulated.outcome);
  if (!check.ok()) {
    return problem.label + ": solved configuration violates its spec: " +
           check.ToString();
  }
  return "";
}

std::string CheckHoldsInNetwork(const std::string& subspec,
                                const Simulated& simulated) {
  auto lifted = ParseLifted(subspec);
  if (!lifted) return "unparsable answer: " + lifted.error().ToString();
  ns::spec::Requirement global = lifted.value();
  global.scope_router.reset();
  global.scope_peer.reset();
  ns::spec::Spec projected;
  projected.destinations = simulated.spec.destinations;
  projected.requirements.push_back(std::move(global));
  const ns::spec::CheckResult check =
      ns::spec::Check(projected, simulated.outcome);
  if (!check.ok()) {
    return "lifted requirement fails on the simulated network: " +
           check.ToString();
  }
  return "";
}

std::string CheckIdentical(const std::string& what, const std::string& got,
                           const std::string& want) {
  if (got == want) return "";
  const auto mismatch =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  return what + " differs at byte " +
         std::to_string(mismatch.first - got.begin()) + " (" +
         std::to_string(got.size()) + " vs " + std::to_string(want.size()) +
         " bytes)";
}

std::string CheckCacheHits(std::uint64_t client_cached,
                           std::uint64_t server_hits) {
  if (client_cached == server_hits) return "";
  return "client saw " + std::to_string(client_cached) +
         " cached answers, server counted " + std::to_string(server_hits) +
         " cache hits";
}

}  // namespace nsbench
