// Output checks of the benchmark. Each returns an empty string when the
// answer passes and a one-line reason otherwise, so the self-test can feed
// tampered answers to the same functions the workloads call.
//
// Every check compares against something computed apart from the answer
// path: the paper's stated answers, the concrete BGP simulator
// (bgp::Simulate + spec::Check, which shares no code with the SMT
// encoder), a separate in-process computation, or the server's counters.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "bench.hpp"
#include "spec/checker.hpp"
#include "util/status.hpp"

namespace nsbench {

/// Parses a lifted DSL block ("R1 { ... }", "R2 to P2 { ... }").
ns::util::Result<ns::spec::Requirement> ParseLifted(const std::string& text);

/// The statements of a lifted requirement, rendered, as a set.
std::set<std::string> StatementSet(const ns::spec::Requirement& lifted);

/// (a) The lifted statement set equals the paper's answer.
std::string CheckPaperAnswer(const std::string& subspec,
                             const std::set<std::string>& expected);

/// (a) The lifted statement set contains every statement of `expected`.
std::string CheckPaperAnswerContains(const std::string& subspec,
                                     const std::set<std::string>& expected);

/// The answer is scoped to the asked router and every statement's path
/// runs through it: a localized answer speaks about that component.
std::string CheckLocalized(const std::string& subspec,
                           const std::string& router);

/// The simulator's view of a solved configuration: the spec extended with
/// the implicit per-router destinations (what route-direction forbids
/// such as no-transit constrain) and the simulated routing outcome.
struct Simulated {
  ns::spec::Spec spec;
  ns::spec::RoutingOutcome outcome;
};

/// (c) The solved configuration meets its own specification under the
/// simulator; fills `simulated` for (b).
std::string CheckSolvedConfig(const Problem& problem, Simulated& simulated);

/// (b) The lifted requirement, with its router scope dropped, holds on the
/// simulated routing state of the solved configuration: a
/// subspecification is a necessary condition the solved network meets.
std::string CheckHoldsInNetwork(const std::string& subspec,
                                const Simulated& simulated);

/// (d)/(e) Two renderings of one answer are byte-identical.
std::string CheckIdentical(const std::string& what, const std::string& got,
                           const std::string& want);

/// (d) The client's count of cached answers equals the server's cache-hit
/// delta over the same requests.
std::string CheckCacheHits(std::uint64_t client_cached,
                           std::uint64_t server_hits);

}  // namespace nsbench
