// Shared pieces of the netsubspec benchmark program: run options, the
// metric sink, timing and order statistics, the in-memory span recorder
// of the traced run, and the question type the cold workloads answer.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "config/device.hpp"
#include "explain/batch.hpp"
#include "explain/lift.hpp"
#include "net/topology.hpp"
#include "spec/ast.hpp"

namespace nsbench {

using Clock = std::chrono::steady_clock;

/// Process start, taken before main runs any set-up: `setup_s` counts from
/// here, so every workload reports one cold set-up per process.
Clock::time_point ProcessStart();

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string netsubspec;  ///< path of the binary serve-warm starts
  std::string out_dir;     ///< where the traced run writes its spans
};

/// The run's result: the last stdout line nsbench prints.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< output-check failures (not ops)
  std::vector<std::pair<std::string, double>> metrics;  ///< name -> value

  void Set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void Error(std::string message) { errors.push_back(std::move(message)); }
  bool correct() const { return errors.empty(); }
};

/// Order statistics over a copy of `values`; 0 for an empty set.
double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0,1].
double Percentile(std::vector<double> values, double q);

/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

// ------------------------------------------------------------ tracing

/// One timed call into a layer. Spans of one question share `question`;
/// `parent` is the index of the enclosing span (-1 at the root).
struct Span {
  int question = 0;
  std::string name;  ///< "<module>.<stage>", e.g. "explain.lift_prefix"
  double start_ms = 0;  ///< relative to the recorder's epoch
  double end_ms = 0;
  int parent = -1;
};

/// Keeps spans in memory; Write() dumps them as JSON when the run ends.
/// Thread-safe, so the served workload's replay may record from workers.
class Tracer {
 public:
  /// RAII span: records [construction, destruction) under `parent`.
  class Scope {
   public:
    Scope(Tracer& tracer, int question, std::string name, int parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const noexcept { return index_; }

   private:
    Tracer& tracer_;
    int index_;
    Clock::time_point start_;
  };

  /// Sum of the durations of the question's leaf spans (no children).
  double LeafTotal(int question) const;
  /// Per-question totals of span `name`, one entry per question that has
  /// one, in question order.
  std::vector<double> PerQuestion(const std::string& name) const;

  void Write(const std::string& path) const;

 private:
  friend class Scope;
  int Open(int question, std::string name, int parent,
           Clock::time_point start);
  void Close(int index, Clock::time_point end);

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ------------------------------------------------------------ questions

/// One scenario a workload asks questions about.
struct Problem {
  std::string label;
  ns::net::Topology topo;
  ns::spec::Spec spec;
  ns::config::NetworkConfig solved;
  int max_hops = 0;  ///< encoder candidate-path bound (0 = every path)
};

/// One question: a request about one problem.
struct Question {
  int id = 0;
  const Problem* problem = nullptr;
  ns::explain::BatchRequest request;
  std::string label;  ///< "scenario3/R2/exact/Req1"
};

/// A rendered answer: what a user holds when the question is answered.
struct Answer {
  std::string subspec;  ///< lifted DSL block
  std::string report;   ///< full explanation report
};

/// What the traced run reads off one answer's lift suffix.
struct SuffixCounts {
  double frozen_nodes = 0;   ///< nodes in the question's frozen arena
  double overlay_nodes = 0;  ///< nodes the answer added on its overlay
  ns::explain::LiftStats lift;
  ns::smt::SolverStats solver;
  bool complete = false;
};

/// Sets the lift-suffix, solver and arena-size per-layer metrics: medians
/// per answer, ratios over all answers.
void SetSuffixMetrics(const std::vector<SuffixCounts>& counts,
                      Outcome& outcome);

/// a / b, or 0 when nothing was counted.
inline double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Seeded Fisher-Yates shuffle (std::mt19937_64), identical on every
/// platform for the same seed.
void Shuffle(std::vector<int>& order, std::uint64_t seed);

int RunPaperCold(const RunOptions& options, Outcome& outcome);
int RunFamilyScale(const RunOptions& options, Outcome& outcome);
int RunServeWarm(const RunOptions& options, Outcome& outcome);
/// Feeds tampered answers to every output check; 0 iff each rejects.
int RunSelfTest();

}  // namespace nsbench
