// The two cold workloads: `paper-cold` (the paper's three scenarios, each
// question answered once through explain::AnswerRequest with a fresh
// ArenaRegistry) and `family-scale` (one map-level question per
// generated topology-family instance, through Explainer + Lifter with the
// family's candidate-path bound). Nothing is reused between questions.
//
// The traced run answers every question twice: once untraced, as the
// timed run does, and once stage by stage through the layers' public
// calls (Symbolize, Encode, SimplifyConstraints, EliminateAuxVars,
// BuildLiftPrefix, Freeze, Lifter::Lift, Report), which is the sequence
// ArenaRegistry::GetOrBuild and the arena-seeded Session::Ask run. The two
// renderings must be byte-identical.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "bench.hpp"
#include "checks.hpp"
#include "explain/arena.hpp"
#include "explain/lift.hpp"
#include "explain/report.hpp"
#include "explain/subspec.hpp"
#include "simplify/engine.hpp"
#include "synth/candidates.hpp"
#include "synth/encoder.hpp"
#include "synth/scenarios.hpp"
#include "synth/synthesizer.hpp"
#include "testkit/families.hpp"

namespace nsbench {

namespace ex = ns::explain;
using ns::util::Result;

namespace {

/// Per-answer counters the traced run reads off the layers it calls.
struct StageCounts {
  double seed_constraints = 0;
  double seed_size = 0;
  double passes = 0;
  double rule_hits = 0;
  double out_size = 0;
  double residual_size = 0;
  bool has_prefix = false;
  double lift_candidates = 0;
  SuffixCounts suffix;
};

ns::util::Error StageError(const std::string& stage,
                           const ns::util::Error& error) {
  return ns::util::Error(error.code(), stage + ": " + error.message());
}

/// Answers `question` stage by stage, one span per public call. The
/// sequence is GetOrBuild's frozen-prefix build followed by the
/// arena-seeded lift, so the rendering matches the untraced answer.
Result<Answer> TracedAnswer(const Question& question, Tracer& tracer,
                            StageCounts& counts) {
  const Problem& p = *question.problem;
  const ex::Selection& selection = question.request.selection;
  const int q = question.id;

  ex::SubspecOptions options;
  options.requirements = question.request.requirements;
  options.encoder.max_hops = p.max_hops;

  Tracer::Scope root(tracer, q, "question");
  ns::smt::ExprPool pool;
  ex::Subspec subspec;
  subspec.selection = selection;
  std::optional<ex::LiftPrefix> prefix;
  std::shared_ptr<const ns::smt::ExprArena> arena;
  {
    Tracer::Scope build(tracer, q, "explain.arena_build", root.index());
    ns::config::NetworkConfig partial = p.solved;
    {
      Tracer::Scope span(tracer, q, "explain.symbolize", build.index());
      auto holes = ex::Symbolize(partial, selection);
      if (!holes) return StageError("symbolize", holes.error());
      subspec.holes = std::move(holes).value();
      auto destinations = ns::synth::BuildDestinations(p.topo, partial, p.spec);
      if (!destinations) return StageError("symbolize", destinations.error());
      ns::synth::EnsureOriginated(partial, destinations.value());
    }
    ns::synth::EncoderOptions encoder = options.encoder;
    encoder.only_requirements = options.requirements;
    Result<ns::synth::Encoding> encoding =
        ns::util::Error(ns::util::ErrorCode::kInternal, "not encoded");
    {
      Tracer::Scope span(tracer, q, "synth.encode", build.index());
      encoding = ns::synth::Encode(pool, p.topo, partial, p.spec, encoder);
    }
    if (!encoding) return StageError("encode", encoding.error());
    const ns::synth::Encoding& enc = encoding.value();
    subspec.domains = enc.domain_constraints;
    subspec.values = enc.values;

    std::vector<ns::smt::Expr> seed;
    seed.reserve(enc.constraints.size());
    for (ns::smt::Expr c : enc.constraints) {
      if (std::find(enc.domain_constraints.begin(),
                    enc.domain_constraints.end(),
                    c) == enc.domain_constraints.end()) {
        seed.push_back(c);
      }
    }
    ex::SubspecMetrics& m = subspec.metrics;
    m.seed_constraints = seed.size();
    m.seed_size = ns::simplify::ConstraintSetSize(seed);

    ns::simplify::Engine engine(pool);
    std::vector<ns::smt::Expr> simplified;
    {
      Tracer::Scope span(tracer, q, "simplify.fixpoint", build.index());
      simplified = engine.SimplifyConstraints(std::move(seed));
    }
    m.simplified_constraints = simplified.size();
    m.simplified_size = ns::simplify::ConstraintSetSize(simplified);
    m.rule_stats = engine.stats();
    m.simplify_passes = engine.last_passes();
    {
      Tracer::Scope span(tracer, q, "explain.eliminate", build.index());
      subspec.constraints = ex::EliminateAuxVars(pool, std::move(simplified));
    }
    m.residual_constraints = subspec.constraints.size();
    m.residual_size = ns::simplify::ConstraintSetSize(subspec.constraints);

    if (!selection.complement && !subspec.IsEmpty() &&
        !subspec.IsUnsatisfiable()) {
      Tracer::Scope span(tracer, q, "explain.lift_prefix", build.index());
      auto built = ex::BuildLiftPrefix(pool, p.topo, p.spec, p.solved,
                                       subspec, options);
      if (!built) return StageError("lift prefix", built.error());
      prefix = std::move(built).value();
    }
    {
      Tracer::Scope span(tracer, q, "smt.freeze", build.index());
      arena = pool.Freeze();
    }
  }

  const ex::SubspecMetrics& m = subspec.metrics;
  counts.seed_constraints = static_cast<double>(m.seed_constraints);
  counts.seed_size = static_cast<double>(m.seed_size);
  counts.passes = m.simplify_passes;
  counts.rule_hits = 0;
  for (std::size_t hits : m.rule_stats) {
    counts.rule_hits += static_cast<double>(hits);
  }
  counts.out_size = static_cast<double>(m.simplified_size);
  counts.residual_size = static_cast<double>(m.residual_size);
  counts.has_prefix = prefix.has_value();
  counts.lift_candidates =
      prefix ? static_cast<double>(prefix->candidates.size()) : 0;
  counts.suffix.frozen_nodes = static_cast<double>(arena->NumNodes());

  auto fixpoints =
      std::make_shared<ns::simplify::FixpointCache>(arena->NumNodes());
  ex::CompileCache compile_cache;
  ns::smt::ExprPool overlay(arena);
  ex::Explanation explanation;
  explanation.selection = selection;
  explanation.requirements = question.request.requirements;
  explanation.mode = question.request.mode;
  explanation.subspec = subspec;
  {
    Tracer::Scope span(tracer, q, "explain.lift_suffix", root.index());
    ex::SubspecOptions lift_options = options;
    lift_options.solver = question.request.solver;
    lift_options.shared_fixpoints = fixpoints.get();
    lift_options.lift_threads = question.request.lift_threads;
    ex::LiftContext context;
    if (prefix) {
      context.prefix = &*prefix;
      context.cache = &compile_cache;
    }
    ex::Lifter lifter(overlay, p.topo, p.spec, p.solved, context);
    auto lifted = lifter.Lift(explanation.subspec, explanation.mode,
                              lift_options);
    if (!lifted) return StageError("lift", lifted.error());
    explanation.lifted = std::move(lifted).value();
  }
  counts.suffix.overlay_nodes = static_cast<double>(overlay.NumOverlayNodes());
  counts.suffix.lift = explanation.lifted.stats;
  counts.suffix.solver = explanation.lifted.solver_stats;
  counts.suffix.complete = explanation.lifted.complete;

  Answer answer;
  {
    Tracer::Scope span(tracer, q, "explain.render", root.index());
    answer.report = explanation.Report();
    answer.subspec = explanation.SubspecText();
  }
  return answer;
}

/// `paper-cold`'s untraced answer: what `netsubspec explain` runs.
Result<Answer> AnswerCold(const Question& question) {
  const Problem& p = *question.problem;
  auto answered = ex::AnswerRequest(p.topo, p.spec, p.solved, question.request,
                                    std::make_shared<ex::ArenaRegistry>());
  if (!answered) return answered.error();
  Answer answer;
  answer.report = answered.value().report;
  answer.subspec = answered.value().subspec_text;
  return answer;
}

/// `family-scale`'s untraced answer: Explainer + Lifter with the family's
/// candidate-path bound (no user-facing entry point accepts one).
Result<Answer> AnswerBounded(const Question& question) {
  const Problem& p = *question.problem;
  ex::SubspecOptions options;
  options.requirements = question.request.requirements;
  options.encoder.max_hops = p.max_hops;
  options.solver = question.request.solver;
  ex::Explainer explainer(p.topo, p.spec, p.solved);
  auto subspec = explainer.Explain(question.request.selection, options);
  if (!subspec) return subspec.error();
  ex::Lifter lifter(explainer.pool(), p.topo, p.spec, p.solved);
  auto lifted = lifter.Lift(subspec.value(), question.request.mode, options);
  if (!lifted) return lifted.error();
  ex::Explanation explanation;
  explanation.selection = question.request.selection;
  explanation.requirements = question.request.requirements;
  explanation.mode = question.request.mode;
  explanation.subspec = std::move(subspec).value();
  explanation.lifted = std::move(lifted).value();
  Answer answer;
  answer.report = explanation.Report();
  answer.subspec = explanation.SubspecText();
  return answer;
}

using AnswerFn = Result<Answer> (*)(const Question&);

/// A paper statement the answer must match: the exact statement set, or
/// (`contains`) a subset the answer must include.
struct PaperAnswer {
  std::set<std::string> statements;
  bool contains = false;
};

struct ColdWorkload {
  std::vector<std::unique_ptr<Problem>> problems;
  std::vector<Simulated> simulated;  ///< per problem
  std::vector<Question> questions;
  std::map<std::string, PaperAnswer> paper;  ///< question label -> answer
  std::vector<double> synthesize_ms;
  AnswerFn answer = nullptr;
};

std::size_t ProblemIndex(const ColdWorkload& w, const Problem* p) {
  for (std::size_t i = 0; i < w.problems.size(); ++i) {
    if (w.problems[i].get() == p) return i;
  }
  return 0;
}

/// Runs every output check on one untraced answer.
void CheckAnswer(const ColdWorkload& w, const Question& q,
                 const Answer& answer, Outcome& outcome) {
  const std::size_t pi = ProblemIndex(w, q.problem);
  auto fail = [&](const std::string& why) {
    if (!why.empty()) outcome.Error(q.label + ": " + why);
  };
  fail(CheckLocalized(answer.subspec, q.request.selection.router));
  fail(CheckHoldsInNetwork(answer.subspec, w.simulated[pi]));
  const auto paper = w.paper.find(q.label);
  if (paper != w.paper.end()) {
    fail(paper->second.contains
             ? CheckPaperAnswerContains(answer.subspec,
                                        paper->second.statements)
             : CheckPaperAnswer(answer.subspec, paper->second.statements));
  }
}

ColdWorkload PaperWorkload() {
  ColdWorkload w;
  w.answer = &AnswerCold;
  for (int index = 1; index <= 3; ++index) {
    const ns::synth::Scenario scenario = ns::synth::GetScenario(index);
    auto problem = std::make_unique<Problem>();
    problem->label = "scenario" + std::to_string(index);
    problem->topo = scenario.topo;
    problem->spec = scenario.spec;
    const Clock::time_point start = Clock::now();
    ns::synth::Synthesizer synthesizer(problem->topo, problem->spec);
    auto solved = synthesizer.Synthesize(scenario.sketch);
    w.synthesize_ms.push_back(MsSince(start));
    if (!solved) {
      std::fprintf(stderr, "synthesis of %s failed: %s\n",
                   problem->label.c_str(), solved.error().ToString().c_str());
      std::exit(1);
    }
    problem->solved = std::move(solved.value().network);
    w.problems.push_back(std::move(problem));
  }

  for (const auto& problem : w.problems) {
    std::vector<std::vector<std::string>> projections = {{}};
    if (problem->label == "scenario3") {
      for (const auto& req : problem->spec.requirements) {
        projections.push_back({req.name});
      }
    }
    for (const auto& [router, cfg] : problem->solved.routers) {
      if (cfg.route_maps.empty()) continue;
      for (ex::LiftMode mode :
           {ex::LiftMode::kExact, ex::LiftMode::kFaithful}) {
        for (const auto& projection : projections) {
          Question q;
          q.id = static_cast<int>(w.questions.size());
          q.problem = problem.get();
          q.request.selection = ex::Selection::Router(router);
          q.request.mode = mode;
          q.request.requirements = projection;
          q.label = problem->label + "/" + router + "/" + ex::LiftModeName(mode) +
                    (projection.empty() ? "" : "/" + projection.front());
          w.questions.push_back(std::move(q));
        }
      }
    }
  }

  // The paper's stated answers (claims C3-C5).
  w.paper["scenario1/R1/faithful"] = {{"!(R1->P1)"}, false};
  w.paper["scenario2/R3/exact"] = {
      {"!(R3->R2->R1->P1->...->D1)", "!(R3->R1->R2->P2->...->D1)"}, true};
  for (const char* mode : {"exact", "faithful"}) {
    w.paper[std::string("scenario3/R3/") + mode + "/Req1"] = {{}, false};
  }
  w.paper["scenario3/R2/exact/Req1"] = {
      {"!(P1->R1->R2->P2)", "!(P1->R1->R3->R2->P2)"}, false};
  return w;
}

/// The family instances. Each is generated with MakeFamilyProblem's
/// default instance seed (the wiring BENCH_SCALING.json records): a WAN's
/// cost swings 3.5x with its wiring, which would make one run's median
/// answer another run's outlier. `--seed` orders the questions.
ColdWorkload FamilyWorkload() {
  using ns::testkit::Family;
  ColdWorkload w;
  w.answer = &AnswerBounded;
  const std::vector<std::pair<Family, int>> points = {
      {Family::kFatTree, 2}, {Family::kWan, 8},     {Family::kOspfMix, 6},
      {Family::kWan, 16},    {Family::kOspfMix, 10}, {Family::kMultiAs, 4},
  };
  for (const auto& [family, size] : points) {
    ns::testkit::FamilyProblem generated =
        ns::testkit::MakeFamilyProblem(family, size);
    auto problem = std::make_unique<Problem>();
    problem->label = generated.label;
    problem->topo = std::move(generated.topo);
    problem->spec = std::move(generated.spec);
    problem->solved = std::move(generated.solved);
    problem->max_hops = generated.max_hops;
    Question q;
    q.id = static_cast<int>(w.questions.size());
    q.problem = problem.get();
    q.request.selection =
        ex::Selection::Map(generated.question_router, generated.question_map);
    q.request.mode = ex::LiftMode::kFaithful;
    q.label = generated.label + "/" + generated.question_router + "/" +
              generated.question_map;
    w.questions.push_back(std::move(q));
    w.problems.push_back(std::move(problem));
  }
  return w;
}

int RunCold(const RunOptions& options, ColdWorkload w, Outcome& outcome) {
  // (c) every solved configuration meets its own spec under the
  // simulator; the simulated state is (b)'s ground truth. Part of set-up.
  w.simulated.resize(w.problems.size());
  for (std::size_t i = 0; i < w.problems.size(); ++i) {
    const std::string why = CheckSolvedConfig(*w.problems[i], w.simulated[i]);
    if (!why.empty()) outcome.Error(why);
  }
  const double setup_s = MsSince(ProcessStart()) / 1000.0;

  std::vector<int> order(w.questions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  Shuffle(order, options.seed);

  std::vector<double> answer_ms;
  std::vector<std::optional<Answer>> answers(w.questions.size());
  Tracer tracer;
  std::vector<StageCounts> counts(w.questions.size());
  std::vector<double> untraced_ms(w.questions.size(), 0);
  double traced_total = 0;
  double untraced_total = 0;

  const Clock::time_point measure_start = Clock::now();
  do {
    for (int index : order) {
      const Question& q = w.questions[static_cast<std::size_t>(index)];
      ++outcome.attempted;
      const Clock::time_point start = Clock::now();
      auto answered = w.answer(q);
      const double ms = MsSince(start);
      if (!answered) {
        ++outcome.failed;
        std::fprintf(stderr, "%s failed: %s\n", q.label.c_str(),
                     answered.error().ToString().c_str());
        continue;
      }
      answer_ms.push_back(ms);
      std::fprintf(stderr, "%-44s %10.1f ms\n", q.label.c_str(), ms);
      if (!answers[static_cast<std::size_t>(index)]) {
        answers[static_cast<std::size_t>(index)] = std::move(answered).value();
      }
      if (!options.trace) continue;

      untraced_total += ms;
      const Clock::time_point traced_start = Clock::now();
      StageCounts& c = counts[static_cast<std::size_t>(index)];
      auto traced = TracedAnswer(q, tracer, c);
      untraced_ms[static_cast<std::size_t>(index)] = ms;
      traced_total += MsSince(traced_start);
      if (!traced) {
        outcome.Error(q.label + ": traced answer failed: " +
                      traced.error().ToString());
        continue;
      }
      const Answer& untraced = *answers[static_cast<std::size_t>(index)];
      for (const std::string& why :
           {CheckIdentical("traced subspec", traced.value().subspec,
                           untraced.subspec),
            CheckIdentical("traced report", traced.value().report,
                           untraced.report)}) {
        if (!why.empty()) outcome.Error(q.label + ": " + why);
      }
    }
  } while (!options.trace &&
           MsSince(measure_start) < options.seconds * 1000.0);
  const double measured_s = MsSince(measure_start) / 1000.0;

  for (std::size_t i = 0; i < w.questions.size(); ++i) {
    if (answers[i]) CheckAnswer(w, w.questions[i], *answers[i], outcome);
  }
  if (!options.trace) {
    outcome.Set("setup_s", setup_s);
    outcome.Set("answers_per_s",
                static_cast<double>(answer_ms.size()) / measured_s);
    outcome.Set("answer_ms_p50", Median(answer_ms));
    outcome.Set("peak_rss_mb", SelfPeakRssMb());
    return 0;
  }

  // ---- per-layer metrics: medians per answer, ratios over all answers.
  auto median_of = [&](auto field, bool prefix_only = false) {
    std::vector<double> values;
    for (const StageCounts& c : counts) {
      if (prefix_only && !c.has_prefix) continue;
      values.push_back(field(c));
    }
    return Median(values);
  };
  std::vector<SuffixCounts> suffixes;
  for (const StageCounts& c : counts) suffixes.push_back(c.suffix);
  SetSuffixMetrics(suffixes, outcome);
  std::vector<double> unaccounted;
  for (std::size_t i = 0; i < w.questions.size(); ++i) {
    unaccounted.push_back(untraced_ms[i] -
                          tracer.LeafTotal(static_cast<int>(i)));
  }
  auto stage = [&](const std::string& name) {
    return Median(tracer.PerQuestion(name));
  };

  outcome.Set("synth.synthesize_ms", Median(w.synthesize_ms));
  outcome.Set("synth.encode_ms", stage("synth.encode"));
  outcome.Set("synth.seed_constraints", median_of([](const StageCounts& c) {
                return c.seed_constraints;
              }));
  outcome.Set("synth.seed_size",
              median_of([](const StageCounts& c) { return c.seed_size; }));
  outcome.Set("explain.symbolize_ms", stage("explain.symbolize"));
  outcome.Set("simplify.fixpoint_ms", stage("simplify.fixpoint"));
  outcome.Set("simplify.passes",
              median_of([](const StageCounts& c) { return c.passes; }));
  outcome.Set("simplify.rule_hits",
              median_of([](const StageCounts& c) { return c.rule_hits; }));
  outcome.Set("simplify.out_size",
              median_of([](const StageCounts& c) { return c.out_size; }));
  outcome.Set("explain.eliminate_ms", stage("explain.eliminate"));
  outcome.Set("explain.residual_size",
              median_of([](const StageCounts& c) { return c.residual_size; }));
  outcome.Set("explain.lift_prefix_ms", stage("explain.lift_prefix"));
  outcome.Set("explain.lift_candidates",
              median_of([](const StageCounts& c) { return c.lift_candidates; },
                        true));
  outcome.Set("explain.arena_build_ms", stage("explain.arena_build"));
  outcome.Set("explain.lift_suffix_ms", stage("explain.lift_suffix"));
  outcome.Set("explain.render_ms", stage("explain.render"));
  outcome.Set("trace.unaccounted_ms", Median(unaccounted));
  outcome.Set("trace.overhead_ms", traced_total - untraced_total);
  tracer.Write(options.out_dir + "/trace-" + options.workload + "-seed" +
               std::to_string(options.seed) + ".json");
  return 0;
}

}  // namespace

int RunPaperCold(const RunOptions& options, Outcome& outcome) {
  ColdWorkload w = PaperWorkload();
  if (w.questions.size() != 34) {
    outcome.Error("expected the paper's 34 questions, built " +
                  std::to_string(w.questions.size()));
  }
  return RunCold(options, std::move(w), outcome);
}

int RunFamilyScale(const RunOptions& options, Outcome& outcome) {
  return RunCold(options, FamilyWorkload(), outcome);
}

}  // namespace nsbench
