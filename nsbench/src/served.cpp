// The `serve-warm` workload: the real `netsubspec serve` binary with
// scenario 3 loaded and every arena key of the request population built
// during set-up, driven by a closed loop from this process over the wire
// protocol. Each answer is a cache hit or a miss answered from a frozen
// arena; the lift prefix, encode and simplify do no work here.
//
// Population: router-level questions x {whole spec, each requirement}
// and map-level ones (one map per policy router) about the whole spec,
// each in both lift modes: 30 questions. A round is a fixed multiset of
// requests -- Zipf(1) counts over a fixed hot set of kHot questions, one
// request for each of the others -- in a seeded order, so every run asks
// the same mix. The answer cache holds the hot set with room to spare but
// not the population, so every round the same tail questions miss (a
// steady ~8% of requests) while the median request is a hit.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <mutex>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "config/parse.hpp"
#include "config/render.hpp"
#include "explain/arena.hpp"
#include "explain/lift.hpp"
#include "explain/report.hpp"
#include "net/topo_text.hpp"
#include "serve/client.hpp"
#include "spec/parser.hpp"
#include "synth/scenarios.hpp"
#include "synth/synthesizer.hpp"

extern char** environ;

namespace nsbench {

namespace ex = ns::explain;
using ns::util::Json;
using ns::util::Result;

namespace {

// Server threads stay within the 4 cores. Set-up builds arenas over
// kServerWorkers connections; the measured closed loop uses fewer, so a
// worker and a core stay free and hit latency is not a queueing artefact.
constexpr int kServerWorkers = 3;
constexpr int kServerReactors = 1;
constexpr std::size_t kConnections = 2;
constexpr int kCacheEntries = 16;
constexpr std::size_t kHot = 6;      // questions that share most requests
constexpr double kHeadCount = 120;   // requests per round for the hottest

/// A running `netsubspec serve`; stopped (and reaped) on destruction.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Reap();
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  /// Starts the binary and waits for its "serving on ..." line.
  std::string Start(const std::string& binary,
                    const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe(fds) != 0) return std::string("pipe: ") + std::strerror(errno);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      return "spawn " + binary + ": " + std::strerror(rc);
    }
    const std::string line = ReadLine();
    const std::string marker = "serving on 127.0.0.1:";
    const auto at = line.find(marker);
    if (at == std::string::npos) return "server did not start: " + line;
    port_ = std::atoi(line.c_str() + at + marker.size());
    return "";
  }

  int port() const noexcept { return port_; }

  /// After a `shutdown` request: drains its stdout, reaps it and returns
  /// its peak resident set in MB (0 if it did not exit cleanly).
  double WaitForExit() {
    while (!ReadLine().empty()) {
    }
    return Reap();
  }

 private:
  std::string ReadLine() {
    std::string line;
    char c = 0;
    while (::read(out_fd_, &c, 1) == 1) {
      if (c == '\n') return line;
      line += c;
    }
    return line;
  }

  double Reap() {
    int status = 0;
    struct rusage usage {};
    pid_t got = -1;
    do {
      got = ::wait4(pid_, &status, 0, &usage);
    } while (got < 0 && errno == EINTR);
    pid_ = -1;
    if (got < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return 0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

struct ServedQuestion {
  ex::BatchRequest request;
  std::string line;  ///< the framed `explain` request
  std::string label;
};

Json ExplainJson(const ex::BatchRequest& request) {
  Json json = Json::MakeObject();
  json.Set("cmd", "explain");
  json.Set("router", request.selection.router);
  if (request.selection.route_map) {
    json.Set("map", *request.selection.route_map);
  }
  json.Set("mode", ex::LiftModeName(request.mode));
  Json requirements = Json::MakeArray();
  for (const std::string& name : request.requirements) {
    requirements.Append(name);
  }
  json.Set("requirements", std::move(requirements));
  return json;
}

std::vector<ServedQuestion> Population(const ns::config::NetworkConfig& solved,
                                       const ns::spec::Spec& spec) {
  // Router-level questions about the whole spec and each requirement, and
  // map-level ones about the whole spec: 15 arena keys, 30 questions.
  std::vector<std::pair<ex::Selection, std::vector<std::string>>> keys;
  for (const auto& [router, cfg] : solved.routers) {
    if (cfg.route_maps.empty()) continue;
    keys.push_back({ex::Selection::Router(router), {}});
    for (const auto& req : spec.requirements) {
      keys.push_back({ex::Selection::Router(router), {req.name}});
    }
  }
  for (const auto& [router, cfg] : solved.routers) {
    if (cfg.route_maps.empty()) continue;
    keys.push_back({ex::Selection::Map(router, cfg.route_maps.begin()->first),
                    {}});
  }
  // Mode outermost: the first half asks each key once, so a set-up that
  // sends the population in order builds distinct keys in parallel.
  std::vector<ServedQuestion> out;
  for (ex::LiftMode mode : {ex::LiftMode::kExact, ex::LiftMode::kFaithful}) {
    for (const auto& [selection, projection] : keys) {
      ServedQuestion q;
      q.request.selection = selection;
      q.request.mode = mode;
      q.request.requirements = projection;
      q.line = ExplainJson(q.request).Dump(0);
      q.label = selection.ToString() + "/" + ex::LiftModeName(mode) +
                (projection.empty() ? "" : "/" + projection.front());
      out.push_back(std::move(q));
    }
  }
  return out;
}

/// One round: the hot questions get Zipf(1) counts, every other question
/// one request; which questions are hot is fixed, the order is seeded.
std::vector<int> RoundSequence(std::size_t population, std::uint64_t seed) {
  std::vector<int> rank(population);
  for (std::size_t i = 0; i < population; ++i) rank[i] = static_cast<int>(i);
  Shuffle(rank, 0x5eed);
  std::vector<int> sequence;
  for (std::size_t r = 0; r < population; ++r) {
    const int count =
        r < kHot ? static_cast<int>(std::lround(kHeadCount / (r + 1.0))) : 1;
    for (int k = 0; k < count; ++k) sequence.push_back(rank[r]);
  }
  Shuffle(sequence, seed);
  return sequence;
}

/// One answered request as the client saw it.
struct Response {
  int question = 0;
  bool ok = false;
  bool cached = false;
  double client_ms = 0;
  double server_ms = 0;
};

/// Distinct (subspec, report) pairs seen per question.
using Distinct = std::vector<std::vector<std::pair<std::string, std::string>>>;

void Remember(Distinct& distinct, int question, const std::string& subspec,
              const std::string& report) {
  auto& seen = distinct[static_cast<std::size_t>(question)];
  for (const auto& [s, r] : seen) {
    if (s == subspec && r == report) return;
  }
  seen.emplace_back(subspec, report);
}

/// Sends whole rounds of `round` over `clients` (one thread each, closed
/// loop, no pause between rounds) until at least `min_rounds` ran and
/// `seconds` passed; the round in flight then is completed.
void Drive(std::span<ns::serve::Client> clients,
           const std::vector<ServedQuestion>& population,
           const std::vector<int>& round, std::size_t min_rounds,
           double seconds, std::vector<Response>& responses,
           Distinct& distinct, std::vector<std::string>& errors) {
  const Clock::time_point start_all = Clock::now();
  std::mutex next_mu;
  std::size_t next = 0;  // guarded by next_mu
  bool stop = false;     // guarded by next_mu
  auto take = [&](std::size_t& index) {
    std::lock_guard<std::mutex> lock(next_mu);
    if (!stop && next % round.size() == 0 &&
        next / round.size() >= min_rounds &&
        MsSince(start_all) >= seconds * 1000.0) {
      stop = true;
    }
    if (stop) return false;
    index = next++;
    return true;
  };
  std::vector<std::vector<Response>> local(clients.size());
  std::vector<Distinct> local_distinct(clients.size(),
                                       Distinct(population.size()));
  std::vector<std::vector<std::string>> local_errors(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::size_t i = 0;
      while (take(i)) {
        Response r;
        r.question = round[i % round.size()];
        const Clock::time_point start = Clock::now();
        auto sent = clients[c].SendLine(
            population[static_cast<std::size_t>(r.question)].line);
        auto response = sent.ok() ? clients[c].ReadResponse()
                                  : Result<Json>(sent.error());
        r.client_ms = MsSince(start);
        if (!response) {
          local_errors[c].push_back(response.error().ToString());
        } else {
          const Json* ok = response.value().Find("ok");
          r.ok = ok != nullptr && ok->AsBool();
          if (!r.ok) {
            local_errors[c].push_back(response.value().Dump(0));
          } else {
            const Json* cached = response.value().Find("cached");
            const Json* wall = response.value().Find("wall_ms");
            r.cached = cached != nullptr && cached->AsBool();
            r.server_ms = wall != nullptr ? wall->AsDouble() : 0;
            const Json* subspec = response.value().Find("subspec");
            const Json* report = response.value().Find("report");
            Remember(local_distinct[c], r.question,
                     subspec != nullptr ? subspec->AsString() : "",
                     report != nullptr ? report->AsString() : "");
          }
        }
        local[c].push_back(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < clients.size(); ++c) {
    responses.insert(responses.end(), local[c].begin(), local[c].end());
    for (std::size_t q = 0; q < population.size(); ++q) {
      for (const auto& [s, r] : local_distinct[c][q]) {
        Remember(distinct, static_cast<int>(q), s, r);
      }
    }
    errors.insert(errors.end(), local_errors[c].begin(), local_errors[c].end());
  }
}

Result<Json> Call(ns::serve::Client& client, const Json& request) {
  auto response = client.Call(request);
  if (!response) return response;
  const Json* ok = response.value().Find("ok");
  if (ok == nullptr || !ok->AsBool()) {
    return ns::util::Error(ns::util::ErrorCode::kInternal,
                           "server refused: " + response.value().Dump(0));
  }
  return response;
}

std::uint64_t StatField(const Json& stats, const char* group,
                        const char* field) {
  const Json* g = stats.Find(group);
  const Json* f = g != nullptr ? g->Find(field) : nullptr;
  return f != nullptr ? static_cast<std::uint64_t>(f->AsInt()) : 0;
}

/// The arena-seeded answer a cache miss takes, stage by stage:
/// GetOrBuild on a built key plus the overlay, the lift suffix, render.
Result<Answer> WarmAnswer(const Problem& p, ex::ArenaRegistry& registry,
                          const ex::BatchRequest& request, int id,
                          Tracer& tracer, SuffixCounts& counts) {
  Tracer::Scope root(tracer, id, "question");
  std::shared_ptr<const ex::FrozenQuestion> frozen;
  std::optional<ns::smt::ExprPool> overlay;
  {
    Tracer::Scope span(tracer, id, "explain.arena_hit", root.index());
    auto got = registry.GetOrBuild(p.topo, p.spec, p.solved, request.selection,
                                   request.requirements);
    if (!got) return got.error();
    frozen = got.value();
    overlay.emplace(frozen->arena);
  }
  ex::Explanation explanation;
  explanation.selection = request.selection;
  explanation.requirements = request.requirements;
  explanation.mode = request.mode;
  explanation.subspec = frozen->subspec;
  {
    Tracer::Scope span(tracer, id, "explain.lift_suffix", root.index());
    ex::SubspecOptions options;
    options.requirements = request.requirements;
    options.solver = request.solver;
    options.shared_fixpoints = frozen->fixpoints.get();
    options.lift_threads = request.lift_threads;
    ex::LiftContext context;
    if (frozen->lift_prefix) {
      context.prefix = &*frozen->lift_prefix;
      context.cache = frozen->compile_cache.get();
    }
    ex::Lifter lifter(*overlay, p.topo, p.spec, p.solved, context);
    auto lifted = lifter.Lift(explanation.subspec, request.mode, options);
    if (!lifted) return lifted.error();
    explanation.lifted = std::move(lifted).value();
  }
  counts.frozen_nodes = static_cast<double>(frozen->arena->NumNodes());
  counts.overlay_nodes = static_cast<double>(overlay->NumOverlayNodes());
  counts.lift = explanation.lifted.stats;
  counts.solver = explanation.lifted.solver_stats;
  counts.complete = explanation.lifted.complete;
  Answer answer;
  {
    Tracer::Scope span(tracer, id, "explain.render", root.index());
    answer.report = explanation.Report();
    answer.subspec = explanation.SubspecText();
  }
  return answer;
}

}  // namespace

int RunServeWarm(const RunOptions& options, Outcome& outcome) {
  // ---- set-up: synthesize + validate scenario 3, start and load the
  // server, build every arena key the population asks about.
  const ns::synth::Scenario scenario = ns::synth::Scenario3();
  const Clock::time_point synth_start = Clock::now();
  ns::synth::Synthesizer synthesizer(scenario.topo, scenario.spec);
  auto synthesized = synthesizer.Synthesize(scenario.sketch);
  const double synthesize_ms = MsSince(synth_start);
  if (!synthesized) {
    std::fprintf(stderr, "synthesis failed: %s\n",
                 synthesized.error().ToString().c_str());
    return 1;
  }
  // The server answers about the texts it is sent; so does the reference.
  const std::string topo_text = ns::net::ToText(scenario.topo);
  const std::string spec_text = scenario.spec.ToString();
  const std::string config_text =
      ns::config::RenderNetwork(synthesized.value().network);
  Problem problem;
  problem.label = "scenario3";
  {
    auto topo = ns::net::ParseTopology(topo_text);
    auto spec = ns::spec::ParseSpec(spec_text);
    auto solved = ns::config::ParseNetworkConfig(config_text);
    if (!topo || !spec || !solved) {
      std::fprintf(stderr, "scenario texts do not parse back\n");
      return 1;
    }
    problem.topo = std::move(topo).value();
    problem.spec = std::move(spec).value();
    problem.solved = std::move(solved).value();
  }
  Simulated simulated;
  if (const std::string why = CheckSolvedConfig(problem, simulated);
      !why.empty()) {
    outcome.Error(why);
  }
  const std::vector<ServedQuestion> population =
      Population(problem.solved, problem.spec);

  ServerProcess server;
  const std::string started = server.Start(
      options.netsubspec,
      {"serve", "--port", "0", "--threads", std::to_string(kServerWorkers),
       "--reactors", std::to_string(kServerReactors), "--cache-entries",
       std::to_string(kCacheEntries)});
  if (!started.empty()) {
    std::fprintf(stderr, "%s\n", started.c_str());
    return 1;
  }
  std::vector<ns::serve::Client> clients;
  for (int c = 0; c < kServerWorkers; ++c) {
    auto client = ns::serve::Client::Connect(server.port());
    if (!client) {
      std::fprintf(stderr, "%s\n", client.error().ToString().c_str());
      return 1;
    }
    clients.push_back(std::move(client).value());
  }
  {
    Json load = Json::MakeObject();
    load.Set("cmd", "load");
    load.Set("topo", topo_text);
    load.Set("spec", spec_text);
    load.Set("config", config_text);
    if (auto loaded = Call(clients[0], load); !loaded) {
      std::fprintf(stderr, "load: %s\n", loaded.error().ToString().c_str());
      return 1;
    }
  }
  std::vector<int> warm(population.size());
  for (std::size_t i = 0; i < warm.size(); ++i) warm[i] = static_cast<int>(i);
  std::vector<Response> warm_responses;
  Distinct distinct(population.size());
  std::vector<std::string> errors;
  Drive(clients, population, warm, 1, 0, warm_responses, distinct, errors);
  if (!errors.empty()) {
    std::fprintf(stderr, "warm-up failed: %s\n", errors.front().c_str());
    return 1;
  }
  Json stats_request = Json::MakeObject();
  stats_request.Set("cmd", "stats");
  auto before = Call(clients[0], stats_request);
  if (!before) {
    std::fprintf(stderr, "stats: %s\n", before.error().ToString().c_str());
    return 1;
  }
  const double setup_s = MsSince(ProcessStart()) / 1000.0;

  // ---- measured phase: whole rounds until the time is up.
  const std::vector<int> round = RoundSequence(population.size(), options.seed);
  std::vector<Response> responses;
  const Clock::time_point measure_start = Clock::now();
  Drive(std::span(clients).first(kConnections), population, round, 1,
        options.seconds, responses, distinct, errors);
  const double measured_s = MsSince(measure_start) / 1000.0;

  auto after = Call(clients[0], stats_request);
  Json shutdown = Json::MakeObject();
  shutdown.Set("cmd", "shutdown");
  auto stopped = Call(clients[0], shutdown);
  clients.clear();
  const double server_rss_mb = stopped ? server.WaitForExit() : 0;
  if (!after || !stopped || server_rss_mb <= 0) {
    std::fprintf(stderr, "server did not report and drain cleanly\n");
    return 1;
  }

  outcome.attempted = responses.size();
  std::uint64_t client_cached = 0;
  std::vector<double> all_ms, hit_ms, miss_ms, transport_ms;
  for (const Response& r : responses) {
    if (!r.ok) {
      ++outcome.failed;
      continue;
    }
    all_ms.push_back(r.client_ms);
    transport_ms.push_back(r.client_ms - r.server_ms);
    (r.cached ? hit_ms : miss_ms).push_back(r.client_ms);
    client_cached += r.cached ? 1 : 0;
  }
  for (const std::string& error : errors) {
    std::fprintf(stderr, "request failed: %s\n", error.c_str());
  }
  double miss_server_ms = 0;
  for (const Response& r : responses) {
    if (r.ok && !r.cached) miss_server_ms += r.server_ms;
  }
  std::fprintf(stderr,
               "%zu requests in %zu rounds, %zu cache hits, %zu misses "
               "(%.0f ms of server time)\n",
               responses.size(), responses.size() / round.size(),
               hit_ms.size(), miss_ms.size(), miss_server_ms);
  const std::uint64_t server_hits = StatField(after.value(), "cache", "hits") -
                                    StatField(before.value(), "cache", "hits");
  if (const std::string why = CheckCacheHits(client_cached, server_hits);
      !why.empty()) {
    outcome.Error(why);
  }

  // ---- (d): every distinct served answer equals the library's answer
  // for the same question, computed here.
  std::vector<Answer> reference(population.size());
  Tracer tracer;
  std::vector<SuffixCounts> counts(population.size());
  std::vector<double> build_ms;
  double reuse_ratio = 0;
  if (!options.trace) {
    std::vector<ex::BatchRequest> requests;
    for (const ServedQuestion& q : population) requests.push_back(q.request);
    ex::BatchOptions batch;
    batch.num_threads = 4;
    batch.registry = std::make_shared<ex::ArenaRegistry>();
    const ex::BatchOutcome computed = ex::BatchExplain(
        problem.topo, problem.spec, problem.solved, requests, batch);
    for (std::size_t i = 0; i < population.size(); ++i) {
      const auto& result = computed.items[i].result;
      if (!result) {
        outcome.Error(population[i].label + ": reference failed: " +
                      result.error().ToString());
        continue;
      }
      reference[i].subspec = result.value().subspec_text;
      reference[i].report = result.value().report;
    }
  } else {
    // The traced replay: build every key and answer each question once,
    // as the server's set-up did (so compile caches are warm), then
    // answer every question again the way a cache miss is answered.
    ex::ArenaRegistry registry;
    for (std::size_t i = 0; i < population.size(); ++i) {
      const Clock::time_point start = Clock::now();
      auto built = registry.GetOrBuild(problem.topo, problem.spec,
                                       problem.solved,
                                       population[i].request.selection,
                                       population[i].request.requirements);
      const double ms = MsSince(start);
      if (registry.stats().builds > build_ms.size()) build_ms.push_back(ms);
      if (!built) outcome.Error(population[i].label + ": arena build failed");
      SuffixCounts unused;
      Tracer warmup;
      (void)WarmAnswer(problem, registry, population[i].request,
                       static_cast<int>(i), warmup, unused);
    }
    for (std::size_t i = 0; i < population.size(); ++i) {
      auto answered = WarmAnswer(problem, registry, population[i].request,
                                 static_cast<int>(i), tracer, counts[i]);
      if (!answered) {
        outcome.Error(population[i].label + ": traced answer failed: " +
                      answered.error().ToString());
        continue;
      }
      reference[i] = std::move(answered).value();
    }
    const ex::ArenaRegistryStats arena = registry.stats();
    reuse_ratio = static_cast<double>(arena.reuses) /
                  static_cast<double>(arena.builds + arena.reuses);
  }
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (distinct[i].empty()) {
      outcome.Error(population[i].label + ": never answered");
    }
    for (const auto& [subspec, report] : distinct[i]) {
      for (const std::string& why :
           {CheckIdentical("served subspec", subspec, reference[i].subspec),
            CheckIdentical("served report", report, reference[i].report),
            CheckLocalized(subspec, population[i].request.selection.router),
            CheckHoldsInNetwork(subspec, simulated)}) {
        if (!why.empty()) outcome.Error(population[i].label + ": " + why);
      }
    }
  }

  if (!options.trace) {
    outcome.Set("setup_s", setup_s);
    outcome.Set("answers_per_s",
                static_cast<double>(all_ms.size()) / measured_s);
    outcome.Set("answer_ms_p50", Median(all_ms));
    outcome.Set("peak_rss_mb", server_rss_mb);
    return 0;
  }

  const std::uint64_t requests_delta =
      StatField(after.value(), "cache", "hits") +
      StatField(after.value(), "cache", "misses") -
      StatField(before.value(), "cache", "hits") -
      StatField(before.value(), "cache", "misses");
  outcome.Set("synth.synthesize_ms", synthesize_ms);
  outcome.Set("explain.arena_build_ms", Median(build_ms));
  outcome.Set("explain.arena_hit_ms",
              Median(tracer.PerQuestion("explain.arena_hit")));
  outcome.Set("explain.arena_reuse_ratio", reuse_ratio);
  outcome.Set("explain.lift_suffix_ms",
              Median(tracer.PerQuestion("explain.lift_suffix")));
  SetSuffixMetrics(counts, outcome);
  outcome.Set("explain.render_ms",
              Median(tracer.PerQuestion("explain.render")));
  outcome.Set("serve.hit_ms_p50", Median(hit_ms));
  outcome.Set("serve.miss_ms_p50", Median(miss_ms));
  outcome.Set("serve.miss_ms_p99", Percentile(miss_ms, 0.99));
  outcome.Set("serve.transport_ms_p50", Median(transport_ms));
  outcome.Set("serve.cache_hit_ratio",
              Ratio(static_cast<double>(server_hits),
                    static_cast<double>(requests_delta)));
  outcome.Set("serve.cache_evictions",
              static_cast<double>(
                  StatField(after.value(), "cache", "evictions") -
                  StatField(before.value(), "cache", "evictions")));
  tracer.Write(options.out_dir + "/trace-" + options.workload + "-seed" +
               std::to_string(options.seed) + ".json");
  return 0;
}

}  // namespace nsbench
