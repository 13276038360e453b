#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <random>

#include "util/json.hpp"

namespace nsbench {

namespace {
// Initialized during static initialization, before main.
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Shuffle(std::vector<int>& order, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng() % i);
    std::swap(order[i - 1], order[j]);
  }
}

void SetSuffixMetrics(const std::vector<SuffixCounts>& counts,
                      Outcome& outcome) {
  auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const SuffixCounts& c : counts) values.push_back(field(c));
    return Median(values);
  };
  double compile_hits = 0, compile_total = 0, fast_hits = 0, queries = 0,
         complete = 0;
  for (const SuffixCounts& c : counts) {
    compile_hits += static_cast<double>(c.lift.compile_cache_hits);
    compile_total += static_cast<double>(c.lift.compile_cache_hits +
                                         c.lift.compile_cache_misses);
    fast_hits += static_cast<double>(c.solver.fast_path_hits);
    queries += static_cast<double>(c.solver.queries);
    complete += c.complete ? 1 : 0;
  }
  outcome.Set("explain.compile_ms", median_of([](const SuffixCounts& c) {
                return c.lift.compile_ms;
              }));
  outcome.Set("explain.assemble_ms", median_of([](const SuffixCounts& c) {
                return c.lift.assemble_ms;
              }));
  outcome.Set("explain.candidates_compiled",
              median_of([](const SuffixCounts& c) {
                return static_cast<double>(c.lift.candidates_compiled);
              }));
  outcome.Set("explain.compile_hit_ratio", Ratio(compile_hits, compile_total));
  outcome.Set("explain.lift_complete_ratio",
              Ratio(complete, static_cast<double>(counts.size())));
  outcome.Set("smt.queries",
              median_of([](const SuffixCounts& c) {
                return static_cast<double>(c.solver.queries);
              }));
  outcome.Set("smt.z3_queries",
              median_of([](const SuffixCounts& c) {
                return static_cast<double>(c.solver.z3_queries);
              }));
  outcome.Set("smt.solver_ms", median_of([](const SuffixCounts& c) {
                return c.solver.wall_ms;
              }));
  outcome.Set("smt.fast_path_hit_ratio", Ratio(fast_hits, queries));
  outcome.Set("smt.frozen_nodes",
              median_of([](const SuffixCounts& c) { return c.frozen_nodes; }));
  outcome.Set("smt.overlay_nodes",
              median_of([](const SuffixCounts& c) { return c.overlay_nodes; }));
}

// ------------------------------------------------------------ tracing

Tracer::Scope::Scope(Tracer& tracer, int question, std::string name,
                     int parent)
    : tracer_(tracer), start_(Clock::now()) {
  index_ = tracer_.Open(question, std::move(name), parent, start_);
}

Tracer::Scope::~Scope() { tracer_.Close(index_, Clock::now()); }

int Tracer::Open(int question, std::string name, int parent,
                 Clock::time_point start) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{question, std::move(name), MsBetween(epoch_, start),
                        0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Close(int index, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ms = MsBetween(epoch_, end);
}

double Tracer::LeafTotal(int question) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<bool> has_child(spans_.size(), false);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      has_child[static_cast<std::size_t>(span.parent)] = true;
    }
  }
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].question == question && !has_child[i]) {
      total += spans_[i].end_ms - spans_[i].start_ms;
    }
  }
  return total;
}

std::vector<double> Tracer::PerQuestion(const std::string& name) const {
  std::map<int, double> totals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& span : spans_) {
      if (span.name != name) continue;
      totals[span.question] += span.end_ms - span.start_ms;
    }
  }
  std::vector<double> out;
  out.reserve(totals.size());
  for (const auto& [question, total] : totals) out.push_back(total);
  return out;
}

void Tracer::Write(const std::string& path) const {
  ns::util::Json spans = ns::util::Json::MakeArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& span : spans_) {
      ns::util::Json record = ns::util::Json::MakeObject();
      record.Set("question", span.question);
      record.Set("name", span.name);
      record.Set("start_ms", span.start_ms);
      record.Set("end_ms", span.end_ms);
      record.Set("parent", span.parent);
      spans.Append(std::move(record));
    }
  }
  std::ofstream out(path);
  out << spans.Dump(0) << "\n";
}

}  // namespace nsbench
