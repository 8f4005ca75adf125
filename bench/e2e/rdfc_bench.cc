// rdfc_bench — the end-to-end benchmark of the containment service
// (bench/e2e/README.md).
//
//   rdfc_bench --seed=N --out=DIR [--workload=W] [--seconds=S] [--trace]
//              [--smoke] [--calibrate]
//
// Without --workload every workload runs, each in its own process.  One run
// generates its inputs from the seed as SPARQL text, answers them with the
// pairwise oracle, builds the service several times to time set-up, serves
// the last build over loopback (NetServer, 2 workers, 8 shards, no simulated
// I/O), and drives it open-loop at the workload's two fixed rates from one
// generator thread over 4 connections.  Every answer is checked.  Each
// metric is printed as `workload metric value unit`, written to
// DIR/<workload>.json, and the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  With --trace the run
// reports per-layer metrics instead and writes DIR/<workload>.trace.json.

#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "containment/pipeline.h"
#include "index/journal.h"
#include "loadgen.h"
#include "net/server.h"
#include "net/wire.h"
#include "oracle.h"
#include "percentiles.h"
#include "query/analysis.h"
#include "service/containment_service.h"
#include "service/index_manager.h"
#include "trace.h"
#include "util/budget.h"
#include "util/thread_pool.h"
#include "workloads.h"

extern char** environ;

namespace rdfc {
namespace e2e {
namespace {

#ifndef RDFC_E2E_BUILD_TYPE
#define RDFC_E2E_BUILD_TYPE "unknown"
#endif

// Serving shape, identical for every workload.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kShards = 8;
constexpr std::size_t kConnections = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Service-level objective of max_rps_at_slo.
constexpr double kSloP99Ms = 10.0;
constexpr int kSloSteps = 6;
// A wire phase whose generator ran later than this at p99 is invalid.
constexpr double kMaxLateUs = 1000.0;
// Tail percentiles of a phase are medians over this many windows.
constexpr std::size_t kWindows = 10;
constexpr double kWarmupS = 0.25;
constexpr double kDrainS = 3.0;
constexpr std::size_t kLayerSample = 256;
constexpr std::size_t kMaxSpans = 400000;
// Requests per traced phase whose spans are kept (evenly spaced); metrics
// use every request.
constexpr std::size_t kTracedRequestsPerPhase = 4000;
// A percentile that lands on a failed request (which misses every limit).
constexpr double kFailedLatencyMs = 1e9;

struct Args {
  std::uint64_t seed = 1;
  std::string out;
  std::string workload;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  bool calibrate = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&arg](std::string_view key, std::string* out) {
      if (arg.substr(0, key.size()) != key) return false;
      *out = std::string(arg.substr(key.size()));
      return true;
    };
    std::string v;
    if (value("--seed=", &v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("--out=", &v)) {
      args->out = v;
    } else if (value("--workload=", &v)) {
      args->workload = v;
    } else if (value("--seconds=", &v)) {
      args->seconds = std::strtod(v.c_str(), nullptr);
      seconds_given = true;
    } else if (arg == "--trace") {
      args->trace = true;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--calibrate") {
      args->calibrate = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  if (args->smoke && !seconds_given) args->seconds = 1.0;
  return !args->out.empty() && args->seconds > 0.0;
}

std::uint64_t PhaseSeed(std::uint64_t seed, std::uint64_t phase) {
  return (seed + 1) * 0x9E3779B97F4A7C15ull + phase * 0xBF58476D1CE4E5B9ull;
}

// --- Host shape -------------------------------------------------------------

long NumCpus() { return ::sysconf(_SC_NPROCESSORS_ONLN); }

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Restarts the peak-RSS count (VmHWM) from the live heap: freed set-up
/// memory goes back to the kernel first, so the peak measures serving, not
/// how the discarded builds happened to fragment the heap.
void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// The host's CPUs split between the system under test and the load
/// generator, so the two never compete for a core: the generator gets the
/// last allowed CPU, everything else the rest.  Both empty on one CPU.
struct CpuSplit {
  cpu_set_t server;
  cpu_set_t generator;
  bool valid = false;
};

CpuSplit SplitCpus() {
  CpuSplit split;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  CPU_ZERO(&split.server);
  CPU_ZERO(&split.generator);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
    return split;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  split.server = allowed;
  CPU_CLR(last, &split.server);
  CPU_SET(last, &split.generator);
  split.valid = true;
  return split;
}

/// Pins the calling thread; threads it creates afterwards inherit the set.
void PinCallingThread(const CpuSplit& split, const cpu_set_t& set) {
  if (split.valid) (void)::sched_setaffinity(0, sizeof(set), &set);
}

/// Host-wide CPU ticks from /proc/stat: all, and stolen by the hypervisor.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  in >> cpu;
  for (int field = 0; field < 10; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

/// Share of the host's CPU time the hypervisor stole since `since`: a run
/// measured while it is high says more about the host than the program.
double StealSince(const CpuTicks& since) {
  const CpuTicks now = ReadCpuTicks();
  const double total = now.total - since.total;
  return total > 0.0 ? (now.steal - since.steal) / total : 0.0;
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

// --- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  // samples behind a timing; 0 for counts
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, std::size_t n = 0) {
    if (!std::isfinite(value)) value = kFailedLatencyMs;
    metrics_.push_back({std::move(name), value, std::move(unit), n});
  }
  /// Adds `prefix.p50` and `prefix.p99` of `samples`.
  void AddPercentiles(const std::string& prefix, Samples* samples, const char* unit) {
    Add(prefix + ".p50", samples->Percentile(50), unit, samples->count());
    Add(prefix + ".p99", samples->Percentile(99), unit, samples->count());
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The ServiceMetrics counters a traced pass reads — counts only, never
/// the bucketed percentiles.
struct Counters {
  double rejected = 0, completed = 0, degraded = 0, quarantined = 0, deadline_expired = 0;
  double publishes = 0, compactions = 0, direct_routed = 0, bytes = 0, batches = 0;
  double batch_requests = 0, dedup_hits = 0, fsyncs = 0;

  static Counters Sample(const service::ContainmentService& service) {
    const service::MetricsSnapshot m = service.Metrics();
    Counters c;
    c.rejected = static_cast<double>(m.rejected);
    c.completed = static_cast<double>(m.completed);
    c.degraded = static_cast<double>(m.degraded);
    c.quarantined = static_cast<double>(m.quarantined);
    c.deadline_expired = static_cast<double>(m.deadline_expired);
    c.publishes = static_cast<double>(m.publishes);
    c.compactions = static_cast<double>(m.compactions);
    c.direct_routed = static_cast<double>(m.direct_routed);
    c.bytes = static_cast<double>(m.net_bytes_in + m.net_bytes_out);
    c.batches = static_cast<double>(m.batches);
    c.batch_requests = static_cast<double>(m.batch_requests);
    c.dedup_hits = static_cast<double>(m.batch_dedup_hits);
    c.fsyncs = static_cast<double>(m.journal_fsyncs);
    return c;
  }
  /// Adds `sign` times `other`, field by field.
  void Accumulate(const Counters& other, double sign);
};

constexpr double Counters::*kCounterFields[] = {
    &Counters::rejected,    &Counters::completed,      &Counters::degraded,
    &Counters::quarantined, &Counters::deadline_expired, &Counters::publishes,
    &Counters::compactions, &Counters::direct_routed,  &Counters::bytes,
    &Counters::batches,     &Counters::batch_requests, &Counters::dedup_hits,
    &Counters::fsyncs};

void Counters::Accumulate(const Counters& other, double sign) {
  for (double Counters::*field : kCounterFields) this->*field += sign * (other.*field);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Inputs as oracle texts -------------------------------------------------

/// Distinct view texts (corpus + writer pool): the oracle's view side.
struct ViewTexts {
  std::vector<std::string> texts;
  std::vector<std::uint32_t> of_view;  // corpus view -> text
  std::vector<std::uint32_t> of_add;   // writer pool entry -> text

  explicit ViewTexts(const Inputs& inputs) {
    std::unordered_map<std::string, std::uint32_t> ids;
    auto intern = [&](const std::string& text) {
      const auto [it, inserted] =
          ids.emplace(text, static_cast<std::uint32_t>(texts.size()));
      if (inserted) texts.push_back(text);
      return it->second;
    };
    for (const std::string& v : inputs.views) of_view.push_back(intern(v));
    for (const std::string& a : inputs.adds) of_add.push_back(intern(a));
  }
};

// --- Oracle -------------------------------------------------------------------

/// The oracle's answers: from the cache in `dir`, else computed in a child
/// process that writes the cache — so the pairwise pass's memory never
/// counts toward this process's rss_peak_mb.  Call before any thread starts.
util::Result<OracleAnswers> RunOracle(const std::string& dir,
                                      const std::vector<std::string>& views,
                                      const std::vector<std::string>& probes,
                                      bool* from_cache) {
  const std::string path = OracleCachePath(dir, views, probes);
  OracleAnswers answers;
  *from_cache = ReadOracleCache(path, probes.size(), &answers);
  if (*from_cache) return answers;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return util::Status::Internal("fork failed");
  if (pid == 0) {
    util::Result<OracleAnswers> computed = ComputeOracle(views, probes);
    if (!computed.ok()) {
      std::fprintf(stderr, "oracle: %s\n", computed.status().ToString().c_str());
      ::_exit(1);
    }
    ::_exit(WriteOracleCache(path, *computed).ok() ? 0 : 1);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !ReadOracleCache(path, probes.size(), &answers)) {
    return util::Status::Internal("the oracle process failed");
  }
  return answers;
}

// --- Set-up -------------------------------------------------------------------

struct Served {
  std::unique_ptr<service::ContainmentService> service;
  std::vector<std::uint64_t> ids;  // per corpus view
  std::uint64_t version = 0;       // ready version
};

struct SetupSamples {
  Samples setup_s;
  Samples publish_ms;       // first AddView of a batch -> Publish returned
  Samples publish_call_us;  // Publish alone
  Samples stage_us;         // one AddView
};

/// Builds a service and loads the corpus: AddView in batches, Publish per
/// batch, Refreeze, then (churn) the write-ahead journal.  The service is
/// ready when this returns; the time from construction to here is one
/// setup_s sample.
util::Result<Served> Setup(const WorkloadSpec& spec, const Inputs& inputs,
                           const std::string& journal_path, SetupSamples* samples,
                           Tracer* tracer) {
  const double start = NowMicros();
  service::ServiceOptions options;
  options.num_threads = kWorkers;
  options.tier.num_shards = kShards;
  options.probe_timeout_micros = spec.probe_timeout_us;
  Served served;
  served.service = std::make_unique<service::ContainmentService>(options);
  service::ContainmentService& svc = *served.service;
  served.ids.reserve(inputs.views.size());
  double batch_start = start;
  for (std::size_t i = 0; i < inputs.views.size(); ++i) {
    const double t = NowMicros();
    if (i % spec.publish_batch == 0) batch_start = t;
    util::Result<std::uint64_t> id = svc.AddView(inputs.views[i]);
    samples->stage_us.Add(NowMicros() - t);
    if (!id.ok()) return id.status();
    served.ids.push_back(*id);
    if ((i + 1) % spec.publish_batch == 0 || i + 1 == inputs.views.size()) {
      const double publish_start = NowMicros();
      util::Result<std::uint64_t> version = svc.Publish();
      const double end = NowMicros();
      if (!version.ok()) return version.status();
      samples->publish_call_us.Add(end - publish_start);
      samples->publish_ms.Add((end - batch_start) / 1000.0);
      if (tracer != nullptr) {
        const std::int64_t batch = tracer->Record("index_manager.publish_batch",
                                                  batch_start, end, Tracer::kNoParent, 0);
        tracer->Record("index_manager.stage_batch", batch_start, publish_start, batch, 0);
        tracer->Record("index_manager.publish_call", publish_start, end, batch, 0);
      }
    }
  }
  util::Result<std::uint64_t> version = svc.Refreeze();
  if (!version.ok()) return version.status();
  served.version = *version;
  if (spec.journal) {
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);
    index::JournalOptions journal;
    journal.path = journal_path;
    journal.fsync = index::JournalFsync::kGroup;
    journal.group_window_micros = 10000;
    RDFC_RETURN_NOT_OK(svc.EnableJournal(journal));
    served.version = svc.current_version();
  }
  const double end = NowMicros();
  samples->setup_s.Add((end - start) / 1e6);
  if (tracer != nullptr) tracer->Record("bench.setup", start, end, Tracer::kNoParent, 0);
  return served;
}

// --- Answer checking --------------------------------------------------------

/// A finished phase kept for the answer check, which runs once the writer
/// (if any) has stopped and every snapshot's live set is known.
struct Phase {
  std::string name;
  std::vector<PlannedRequest> plan;
  PhaseResult result;
  bool measured = true;  // counts toward attempted/failed
};

/// A phase's timings in schedule order.
struct Tally {
  std::vector<double> latency_ms;  // done - due; a failed request counts as +inf
  std::vector<double> late_us;     // sent - due
  std::size_t attempted = 0;
  std::size_t failed = 0;  // non-OK status (quarantine excepted), lost
  std::size_t degraded = 0;  // degraded or quarantined answers
};

bool Failed(const Outcome& o) {
  return !o.answered ||
         (o.status != net::WireStatus::kOk && o.status != net::WireStatus::kQuarantined);
}

/// Latency and lateness of `phase` (no answer check).
Tally Measure(const Phase& phase) {
  Tally tally;
  for (const Outcome& o : phase.result.outcomes) {
    ++tally.attempted;
    tally.late_us.push_back(o.sent_us - o.due_us);
    if (Failed(o)) {
      ++tally.failed;
      tally.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    tally.latency_ms.push_back((o.done_us - o.due_us) / 1000.0);
    if (o.degraded || o.quarantined) ++tally.degraded;
  }
  return tally;
}

/// Wrong answers in `phase` — those flagged when they arrived plus the
/// deferred ones, checked now that the book is sealed; prints the first few.
std::size_t CheckAnswers(const Phase& phase, const AnswerBook& book,
                         const Inputs& inputs) {
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < phase.plan.size(); ++i) {
    const Outcome& o = phase.result.outcomes[i];
    const std::uint32_t key = phase.plan[i].key;
    const bool bad =
        o.wrong || (o.deferred && book.Check(key, o.version, o.degraded, o.ids) !=
                                      AnswerBook::Verdict::kRight);
    if (!bad) continue;
    if (++wrong <= 3) {
      const std::vector<std::uint64_t> expected = book.Expected(key, o.version);
      std::fprintf(stderr,
                   "WRONG ANSWER in %s: version %llu degraded %d got %zu ids, expected "
                   "%zu, probe:\n%s\n",
                   phase.name.c_str(), static_cast<unsigned long long>(o.version),
                   o.degraded ? 1 : 0, o.ids.size(), expected.size(),
                   inputs.probe_texts[key].c_str());
    }
  }
  return wrong;
}

// --- The serial layer pass (trace pass 3) ----------------------------------

struct LayerPass {
  Samples decode_us, encode_us, pin_us, prepare_us, base_walk_us, delta_walk_us;
  Samples fanout_width;
  double candidates = 0, states = 0, np_checks = 0, contained = 0;
  std::size_t probes = 0;
};

LayerPass RunLayerPass(service::ContainmentService* svc, const WorkloadSpec& spec,
                       const std::vector<PlannedRequest>& sample, Tracer* tracer,
                       std::uint64_t first_request) {
  LayerPass pass;
  service::IndexManager& manager = svc->manager();
  const std::size_t slot = manager.RegisterReader();
  util::ThreadPool fanout_pool({/*num_threads=*/kWorkers, /*queue_capacity=*/1024});
  auto budget = [&spec]() {
    return spec.probe_timeout_us > 0.0
               ? util::ProbeBudget::AfterMicros(spec.probe_timeout_us)
               : util::ProbeBudget();
  };
  for (std::size_t r = 0; r < sample.size(); ++r) {
    const std::uint64_t request_id = first_request + r;
    const double root_start = NowMicros();
    const std::int64_t root = tracer->Record("layer.request", root_start, root_start,
                                             Tracer::kNoParent, request_id);
    auto span = [&](const char* name, double start, double end) {
      tracer->Record(name, start, end, root, request_id);
    };

    net::WireRequest wire;
    wire.id = request_id;
    wire.deadline_ms = spec.deadline_ms;
    wire.query = sample[r].Text();
    std::string frame;
    net::EncodeRequest(wire, &frame);
    const std::string_view payload =
        std::string_view(frame).substr(net::kFramePrefixBytes);
    net::WireRequest decoded;
    double t = NowMicros();
    const util::Status decoded_ok = net::DecodeRequest(payload, &decoded);
    double e = NowMicros();
    pass.decode_us.Add(e - t);
    span("net.decode_request", t, e);
    if (!decoded_ok.ok()) continue;
    util::Result<query::BgpQuery> parsed = svc->Parse(decoded.query);
    if (!parsed.ok()) continue;

    net::WireResponse response;
    response.id = request_id;
    {
      t = NowMicros();
      const service::IndexManager::ReadGuard guard = manager.Acquire(slot);
      e = NowMicros();
      pass.pin_us.Add(e - t);
      span("index_manager.pin", t, e);
      response.snapshot_version = guard->version;

      t = NowMicros();
      const containment::PreparedProbe prepared =
          containment::PrepareProbe(*parsed, guard->dict());
      e = NowMicros();
      pass.prepare_us.Add(e - t);
      span("containment.prepare", t, e);

      double base_us = 0.0;
      double delta_us = 0.0;
      for (std::size_t s = 0; s < guard->num_shards(); ++s) {
        const service::ShardTier& tier = guard->shard(s);
        util::ProbeBudget walk_budget = budget();
        index::ProbeOptions options;
        options.budget = &walk_budget;
        t = NowMicros();
        if (tier.base != nullptr) {
          const index::ProbeResult walk = tier.base->FindContaining(prepared, options);
          (void)walk;
        }
        e = NowMicros();
        base_us += e - t;
        span("index.base_walk", t, e);
        walk_budget = budget();
        t = NowMicros();
        if (tier.delta != nullptr) {
          const index::ProbeResult walk = tier.delta->FindContaining(prepared, options);
          (void)walk;
        }
        e = NowMicros();
        delta_us += e - t;
        span("index.delta_walk", t, e);
      }
      pass.base_walk_us.Add(base_us);
      pass.delta_walk_us.Add(delta_us);

      util::ProbeBudget fan_budget = budget();
      index::ProbeOptions options;
      options.budget = &fan_budget;
      service::ProbeFanout fanout;
      const std::uint64_t signature = query::AnchorSignature(*parsed, guard->dict());
      t = NowMicros();
      const index::ProbeResult result = guard->FindParallel(
          prepared, options, &fanout_pool, signature % guard->num_shards(), &fanout);
      e = NowMicros();
      span("index_manager.fanout", t, e);
      pass.fanout_width.Add(fanout.parallel_walkers);
      ++pass.probes;
      pass.candidates += static_cast<double>(result.candidates);
      pass.states += static_cast<double>(result.states_explored);
      pass.np_checks += static_cast<double>(result.np_checks);
      pass.contained += static_cast<double>(result.contained.size());
      for (const index::ProbeMatch& match : result.contained) {
        guard->AppendViewIds(match.stored_id, &response.containing_views);
      }
    }
    std::sort(response.containing_views.begin(), response.containing_views.end());
    response.containing_views.erase(
        std::unique(response.containing_views.begin(), response.containing_views.end()),
        response.containing_views.end());
    std::string out;
    t = NowMicros();
    net::EncodeResponse(response, &out);
    e = NowMicros();
    pass.encode_us.Add(e - t);
    span("net.encode_response", t, e);
    tracer->SetEnd(root, NowMicros());
  }
  fanout_pool.Shutdown();
  return pass;
}

// --- Spans from the recorded outcomes --------------------------------------

std::size_t TraceStride(const PhaseResult& result) {
  return (result.outcomes.size() + kTracedRequestsPerPhase - 1) / kTracedRequestsPerPhase;
}

void TraceWire(Tracer* tracer, const PhaseResult& result, std::uint64_t first_request) {
  for (std::size_t i = 0; i < result.outcomes.size(); i += TraceStride(result)) {
    const Outcome& o = result.outcomes[i];
    const std::uint64_t id = first_request + i;
    const double end = o.answered ? o.done_us : o.sent_us;
    const std::int64_t root =
        tracer->Record("client.request", o.due_us, end, Tracer::kNoParent, id);
    tracer->Record("bench.gen_late", o.due_us, o.sent_us, root, id);
    if (!o.answered) continue;
    const std::int64_t trip =
        tracer->Record("net.round_trip", o.sent_us, o.done_us, root, id);
    // Only the server's duration is known; centre it in the round trip.
    const double server_start = o.sent_us + (o.done_us - o.sent_us - o.server_us) / 2.0;
    tracer->Record("service.server", server_start, server_start + o.server_us, trip, id);
  }
}

void TraceInProcess(Tracer* tracer, const PhaseResult& result,
                    std::uint64_t first_request) {
  for (std::size_t i = 0; i < result.outcomes.size(); i += TraceStride(result)) {
    const Outcome& o = result.outcomes[i];
    const StageTimes& st = result.stages[i];
    const std::uint64_t id = first_request + i;
    const double end = o.answered ? o.done_us : o.sent_us;
    const std::int64_t root =
        tracer->Record("inproc.request", o.due_us, end, Tracer::kNoParent, id);
    tracer->Record("bench.gen_late", o.due_us, o.sent_us, root, id);
    double t = o.sent_us;
    tracer->Record("sparql.parse", t, t + st.parse_us, root, id);
    t += st.parse_us;
    tracer->Record("query.anchor_signature", t, t + st.signature_us, root, id);
    t += st.signature_us;
    tracer->Record("service.submit", t, t + st.submit_us, root, id);
    if (!o.answered) continue;
    // Admission happens inside Submit; the response's own stage times
    // follow it back to back.
    const std::int64_t exec =
        tracer->Record("service.execute", t, t + st.execute_us, root, id);
    tracer->Record("service.queue_wait", t, t + st.queue_us, exec, id);
    t += st.queue_us;
    tracer->Record("containment.filter", t, t + st.filter_us, exec, id);
    t += st.filter_us;
    tracer->Record("containment.verify", t, t + st.verify_us, exec, id);
  }
}

// --- max_rps_at_slo -----------------------------------------------------------

struct SloSearch {
  double max_rps = 0.0;
  std::vector<Phase> steps;
};

/// Bisects [lo, hi] for the highest rate whose phase meets the SLO: p99
/// (timed from the due instant, failures missing it) <= 10 ms, no failed
/// request, no backlog beyond 10 ms of arrivals, and a generator on time.
SloSearch MaxRpsAtSlo(WireGenerator* generator, const WorkloadSpec& spec,
                      const Inputs& inputs, const AnswerBook& book, std::uint64_t seed,
                      double lo, double hi, int steps, double step_s,
                      std::uint64_t* fresh_counter) {
  SloSearch search;
  search.max_rps = lo;
  for (int step = 0; step < steps; ++step) {
    const double rate = (lo + hi) / 2.0;
    Schedule schedule(spec, inputs, rate, PhaseSeed(seed, 100 + step));
    Phase phase;
    phase.name = "slo-step";
    phase.measured = false;
    phase.plan = Plan(&schedule, inputs, step_s, seed, fresh_counter);
    phase.result = generator->Run(phase.plan, spec.deadline_ms, kDrainS, book);
    Tally tally = Measure(phase);
    const double p99 = Samples(tally.latency_ms).Percentile(99);
    const double backlog_limit = std::max(16.0, rate * 0.01);
    const bool pass = tally.failed == 0 && p99 <= kSloP99Ms &&
                      static_cast<double>(phase.result.backlog) <= backlog_limit &&
                      Samples(tally.late_us).Percentile(99) <= kMaxLateUs;
    std::fprintf(stderr,
                 "[slo] %s rate %.0f/s: p99 %.3f ms failed %zu backlog %zu -> %s\n",
                 spec.name.c_str(), rate, p99, tally.failed, phase.result.backlog,
                 pass ? "pass" : "fail");
    if (pass) {
      lo = rate;
      search.max_rps = rate;
    } else {
      hi = rate;
    }
    search.steps.push_back(std::move(phase));
  }
  return search;
}

// --- Output -------------------------------------------------------------------

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteRunJson(const std::string& path, const Args& args, const WorkloadSpec& spec,
                  const Report& report, bool correct, std::size_t attempted,
                  std::size_t failed, std::size_t wrong, double steal) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << JsonNumber(args.seconds)
      << ", \"trace\": " << (args.trace ? "true" : "false")
      << ", \"smoke\": " << (args.smoke ? "true" : "false")
      << ",\n \"host\": {\"nproc\": " << NumCpus() << ", \"cpu\": \"" << CpuModel()
      << "\", \"build_type\": \"" << RDFC_E2E_BUILD_TYPE
      << "\", \"cpu_steal_frac\": " << JsonNumber(steal)
      << "},\n \"constants\": {\"r1_rps\": " << JsonNumber(spec.r1_rps)
      << ", \"r2_rps\": " << JsonNumber(spec.r2_rps)
      << ", \"workers\": " << kWorkers << ", \"shards\": " << kShards
      << ", \"connections\": " << kConnections << "},\n \"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"wrong\": " << wrong << ",\n \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    out << (first ? "\n" : ",\n") << "  \"" << m.name << "\": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\", \"n\": " << m.n
        << "}";
    first = false;
  }
  out << "\n }\n}\n";
  if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

void PrintReport(const WorkloadSpec& spec, const Report& report, bool correct,
                 std::size_t attempted, std::size_t failed) {
  for (const Metric& m : report.metrics()) {
    if (m.n > 0) {
      std::printf("%s %s %.6g %s n=%zu\n", spec.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str(), m.n);
    } else {
      std::printf("%s %s %.6g %s\n", spec.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    line += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// --- One workload run -------------------------------------------------------

int RunWorkload(const Args& args, const WorkloadSpec& spec) {
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.out.c_str());
    return 2;
  }
  std::fprintf(stderr, "[%s] seed %llu, %.1f s, %s; host: %ld cpus, %s, %s build\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? "traced" : "untraced", NumCpus(),
               CpuModel().c_str(), RDFC_E2E_BUILD_TYPE);
  Tracer tracer(args.trace ? kMaxSpans : 0);
  Tracer* trace = args.trace ? &tracer : nullptr;
  // Every service, server and writer thread is created while this thread
  // runs on the server CPUs, and inherits them; the generator moves to its
  // own CPU just before the first phase.
  const CpuSplit cpus = SplitCpus();
  PinCallingThread(cpus, cpus.server);

  const Inputs inputs = GenerateInputs(spec, args.seed);
  const ViewTexts view_texts(inputs);
  std::fprintf(stderr, "[%s] %zu views (%zu distinct texts), %zu probe texts\n",
               spec.name.c_str(), inputs.views.size(), view_texts.texts.size(),
               inputs.probe_texts.size());

  // The oracle runs outside set-up: its time is bench.oracle_s.
  const double oracle_start = NowMicros();
  bool from_cache = false;
  util::Result<OracleAnswers> answers =
      RunOracle(args.out, view_texts.texts, inputs.probe_texts, &from_cache);
  const double oracle_s = (NowMicros() - oracle_start) / 1e6;
  if (!answers.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n", answers.status().ToString().c_str());
    return 2;
  }
  if (trace != nullptr) {
    trace->Record("bench.oracle", oracle_start, NowMicros(), Tracer::kNoParent, 0);
  }
  std::fprintf(stderr, "[%s] oracle %.2f s%s\n", spec.name.c_str(), oracle_s,
               from_cache ? " (cached)" : "");

  SetupSamples setup;
  Served served;
  const std::string journal_path =
      (std::filesystem::path(args.out) / (spec.name + ".wal")).string();
  for (int k = 0; k < kSetups; ++k) {
    served = Served();  // tear the previous build down before timing the next
    const bool last = k + 1 == kSetups;
    util::Result<Served> built =
        Setup(spec, inputs, journal_path, &setup, last ? trace : nullptr);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", built.status().ToString().c_str());
      return 2;
    }
    served = std::move(built).value();
  }
  service::ContainmentService& svc = *served.service;
  ResetPeakRss();
  std::fprintf(stderr, "[%s] setup_s median %.3f s\n", spec.name.c_str(),
               setup.setup_s.Percentile(50));

  AnswerBook book(std::move(answers).value(), view_texts.texts.size());
  {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> corpus;
    for (std::size_t i = 0; i < served.ids.size(); ++i) {
      corpus.emplace_back(served.ids[i], view_texts.of_view[i]);
    }
    book.RecordBatch(served.version, corpus, {});
  }
  if (!spec.writer) book.Seal();

  net::NetServer server(&svc, net::ServerOptions{});
  const util::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server failed: %s\n", started.ToString().c_str());
    return 2;
  }
  util::Result<std::unique_ptr<WireGenerator>> connected =
      WireGenerator::Connect(server.port(), kConnections);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", connected.status().ToString().c_str());
    return 2;
  }
  WireGenerator& generator = **connected;

  std::uint64_t fresh_counter = 0;
  auto plan = [&](double rate, std::uint64_t phase, double seconds) {
    Schedule schedule(spec, inputs, rate, PhaseSeed(args.seed, phase));
    return Plan(&schedule, inputs, seconds, args.seed, &fresh_counter);
  };

  std::vector<std::uint32_t> add_texts = view_texts.of_add;
  Writer writer(&svc, spec, inputs, std::move(add_texts), served.ids, &book,
                PhaseSeed(args.seed, 99));
  if (spec.writer) writer.Start();
  PinCallingThread(cpus, cpus.generator);

  if (args.calibrate) {
    const SloSearch search = MaxRpsAtSlo(&generator, spec, inputs, book, args.seed,
                                         spec.slo_lo_rps, spec.slo_hi_rps, 8, 2.0,
                                         &fresh_counter);
    std::printf("%s capacity (max_rps_at_slo) %.0f 1/s; 10%% = %.0f, 30%% = %.0f\n",
                spec.name.c_str(), search.max_rps, 0.1 * search.max_rps,
                0.3 * search.max_rps);
    return 0;
  }

  std::vector<Phase> phases;
  auto wire_phase = [&](const char* name, double rate, std::uint64_t id, double seconds,
                        bool measured) -> Phase& {
    Phase phase;
    phase.name = name;
    phase.measured = measured;
    phase.plan = plan(rate, id, seconds);
    phase.result = generator.Run(phase.plan, spec.deadline_ms, kDrainS, book);
    phases.push_back(std::move(phase));
    return phases.back();
  };
  // Each measured phase follows an unmeasured warm-up at its own rate, so a
  // change of rate has settled before timing starts.
  auto warm_up = [&](double rate, std::uint64_t id) {
    wire_phase("warmup", rate, 50 + id, kWarmupS, false);
  };

  Report report;
  Tally r1, r2;
  std::uint64_t next_request = 1;
  const CpuTicks ticks_at_start = ReadCpuTicks();
  bool late = false;
  // A host stall in one window is charged to latency, not held against the
  // generator; late in most windows, it cannot keep the schedule.
  auto check_late = [&](const Tally& t, const char* name) {
    std::string windows;
    for (const double p95 : PercentilePerWindow(t.latency_ms, 95, kWindows)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.3f", p95);
      windows += buf;
    }
    std::fprintf(stderr, "[%s] %s p95 ms by window:%s\n", spec.name.c_str(), name,
                 windows.c_str());
    const double p99 = WindowedPercentile(t.late_us, 99, kWindows);
    if (p99 > kMaxLateUs && !args.smoke) {
      std::fprintf(stderr, "[%s] phase %s invalid: generator late by %.0f us at p99\n",
                   spec.name.c_str(), name, p99);
      late = true;
    }
  };

  if (!args.trace) {
    const double half = args.seconds / 2.0;
    warm_up(spec.r1_rps, 1);
    r1 = Measure(wire_phase("r1", spec.r1_rps, 1, half, true));
    warm_up(spec.r2_rps, 2);
    r2 = Measure(wire_phase("r2", spec.r2_rps, 2, half, true));
    check_late(r1, "r1");
    check_late(r2, "r2");
  } else {
    // Pass 1: over the wire, with Metrics() deltas and process CPU time.
    Counters delta;
    Samples overhead_us, server_us, late_us;
    const std::size_t dict_before = svc.mutable_dict()->size();
    double cpu_s = 0.0;
    double wall_s = 0.0;
    std::size_t wire_requests = 0;
    for (int p = 0; p < 2; ++p) {
      const double rate = p == 0 ? spec.r1_rps : spec.r2_rps;
      warm_up(rate, 1 + p);
      delta.Accumulate(Counters::Sample(svc), -1.0);
      cpu_s -= CpuSeconds();
      Phase& phase = wire_phase(p == 0 ? "pass1-r1" : "pass1-r2", rate, 1 + p,
                                args.seconds * 0.2, true);
      cpu_s += CpuSeconds();
      delta.Accumulate(Counters::Sample(svc), +1.0);
      wall_s += phase.result.wall_s;
      TraceWire(&tracer, phase.result, next_request);
      next_request += phase.plan.size();
      wire_requests += phase.plan.size();
      const Tally t = Measure(phase);
      check_late(t, phase.name.c_str());
      late_us.AddAll(Samples(t.late_us));
      (p == 0 ? r1 : r2) = t;
      for (const Outcome& o : phase.result.outcomes) {
        if (Failed(o)) continue;
        overhead_us.Add(o.done_us - o.sent_us - o.server_us);
        server_us.Add(o.server_us);
      }
    }
    const double dict_growth =
        static_cast<double>(svc.mutable_dict()->size() - dict_before);

    // Pass 2: the same schedules in process.
    Samples parse_us, signature_us, queue_us, filter_us, verify_us, coverage;
    Samples inproc_r1_ms, inproc_r2_ms;
    for (int p = 0; p < 2; ++p) {
      Phase phase;
      phase.name = p == 0 ? "pass2-r1" : "pass2-r2";
      phase.plan = plan(p == 0 ? spec.r1_rps : spec.r2_rps, 1 + p, args.seconds * 0.15);
      // The collector waits on the server CPUs: the generator's CPU is busy
      // sending, and a hand-off there would be charged to every request.
      phase.result = RunInProcess(&svc, phase.plan, spec.deadline_ms, book,
                                  cpus.valid ? &cpus.server : nullptr);
      TraceInProcess(&tracer, phase.result, next_request);
      next_request += phase.plan.size();
      for (std::size_t i = 0; i < phase.plan.size(); ++i) {
        const Outcome& o = phase.result.outcomes[i];
        const StageTimes& st = phase.result.stages[i];
        if (Failed(o)) continue;
        parse_us.Add(st.parse_us);
        signature_us.Add(st.signature_us);
        queue_us.Add(st.queue_us);
        filter_us.Add(st.filter_us);
        verify_us.Add(st.verify_us);
        (p == 0 ? inproc_r1_ms : inproc_r2_ms).Add((o.done_us - o.due_us) / 1000.0);
        // The calls' own durations plus the response's admission-to-ready
        // time (queue, prepare, filter, verify, merge); the rest is the
        // future's hand-off to the collector.
        const double covered =
            st.parse_us + st.signature_us + st.submit_us + st.execute_us;
        if (p == 1) coverage.Add(covered / (o.done_us - o.sent_us));
      }
      phases.push_back(std::move(phase));
    }

    // Pass 3: a serial layer pass over a sample of the r2 phase's requests.
    const std::vector<PlannedRequest> r2_plan = plan(spec.r2_rps, 2, args.seconds * 0.2);
    const std::size_t sample_size = std::min(kLayerSample, r2_plan.size());
    const std::vector<PlannedRequest> sample(
        r2_plan.begin(), r2_plan.begin() + static_cast<std::ptrdiff_t>(sample_size));
    LayerPass layer = RunLayerPass(&svc, spec, sample, &tracer, next_request);
    next_request += sample.size();

    // max_rps_at_slo, demoted to a traced metric: its bisection does not fit
    // the untraced run's time and its grid step exceeds the spread bound.
    SloSearch slo =
        MaxRpsAtSlo(&generator, spec, inputs, book, args.seed, spec.slo_lo_rps,
                    spec.slo_hi_rps, kSloSteps, args.seconds * 0.05, &fresh_counter);
    for (Phase& step : slo.steps) phases.push_back(std::move(step));
    writer.Stop();  // the load is over; its samples below are read

    const Counters& d = delta;
    const double requests = static_cast<double>(wire_requests);
    const double executed = d.completed + d.degraded - d.dedup_hits;
    report.AddPercentiles("net.client_overhead_us", &overhead_us, "us");
    report.Add("net.batch_size.mean", Ratio(d.batch_requests, d.batches), "count");
    report.Add("net.dedup_hit_frac", Ratio(d.dedup_hits, d.batch_requests), "ratio");
    report.Add("net.bytes_per_probe", Ratio(d.bytes, requests), "bytes");
    report.Add("net.decode_request_us", layer.decode_us.Percentile(50), "us",
               layer.decode_us.count());
    report.Add("net.encode_response_us", layer.encode_us.Percentile(50), "us",
               layer.encode_us.count());
    // The net share: pass 1's median minus pass 2's at the same schedule.
    const double wire_r1_ms = Samples(r1.latency_ms).Percentile(50);
    const double wire_r2_ms = Samples(r2.latency_ms).Percentile(50);
    report.Add("net.share_us.p50.r1", (wire_r1_ms - inproc_r1_ms.Percentile(50)) * 1000.0,
               "us", inproc_r1_ms.count());
    report.Add("net.share_us.p50.r2", (wire_r2_ms - inproc_r2_ms.Percentile(50)) * 1000.0,
               "us", inproc_r2_ms.count());
    report.AddPercentiles("sparql.parse_us", &parse_us, "us");
    report.Add("rdf.dict_terms_added_per_kprobe", 1000.0 * Ratio(dict_growth, requests),
               "count");
    report.Add("query.anchor_signature_us.p50", signature_us.Percentile(50), "us",
               signature_us.count());
    report.AddPercentiles("service.server_us", &server_us, "us");
    report.AddPercentiles("service.queue_wait_us", &queue_us, "us");
    report.Add("service.shed_frac", Ratio(d.rejected, requests), "ratio");
    report.Add("service.deadline_frac", Ratio(d.deadline_expired, requests), "ratio");
    report.Add("service.quarantined_frac", Ratio(d.quarantined, requests), "ratio");
    report.Add("service.degraded_frac",
               Ratio(static_cast<double>(r1.degraded + r2.degraded), requests), "ratio");
    report.Add("service.cpu_util", Ratio(cpu_s, wall_s * static_cast<double>(NumCpus())),
               "ratio");
    report.Add("index_manager.pin_us.p50", layer.pin_us.Percentile(50), "us",
               layer.pin_us.count());
    report.Add("index_manager.fanout_width.mean", layer.fanout_width.Mean(), "count",
               layer.fanout_width.count());
    report.Add("index_manager.direct_routed_frac", Ratio(d.direct_routed, executed),
               "ratio");
    // Publishes: the writer's batches in churn, the corpus batches of the
    // set-ups elsewhere.
    Samples& stage = spec.writer ? writer.stage_us : setup.stage_us;
    Samples& publish = spec.writer ? writer.publish_ms : setup.publish_ms;
    Samples& publish_call = spec.writer ? writer.publish_call_us : setup.publish_call_us;
    report.Add("index_manager.stage_us.p50", stage.Percentile(50), "us", stage.count());
    report.AddPercentiles("index_manager.publish_ms", &publish, "ms");
    report.AddPercentiles("index_manager.publish_call_us", &publish_call, "us");
    report.Add("index_manager.compactions", d.compactions, "count");
    report.Add("index_manager.compaction_ms.mean",
               svc.Metrics().compaction_micros.mean() / 1000.0, "ms");
    report.Add("index_manager.delta_views.max",
               static_cast<double>(writer.delta_views_max), "count");
    report.AddPercentiles("index.base_walk_us", &layer.base_walk_us, "us");
    report.AddPercentiles("index.delta_walk_us", &layer.delta_walk_us, "us");
    const double probes = static_cast<double>(layer.probes);
    report.Add("index.candidates_per_probe", Ratio(layer.candidates, probes), "count");
    report.Add("index.states_explored_per_probe", Ratio(layer.states, probes), "count");
    report.Add("index.useful_frac", Ratio(layer.contained, layer.candidates), "ratio");
    report.Add("index.journal_fsyncs_per_publish", Ratio(d.fsyncs, d.publishes), "count");
    report.Add("containment.prepare_us.p50", layer.prepare_us.Percentile(50), "us",
               layer.prepare_us.count());
    report.AddPercentiles("containment.filter_us", &filter_us, "us");
    report.AddPercentiles("containment.verify_us", &verify_us, "us");
    report.Add("containment.np_checks_per_probe", Ratio(layer.np_checks, probes),
               "count");
    report.Add("containment.np_frac", Ratio(layer.np_checks, layer.candidates), "ratio");
    report.Add("bench.gen_late_us.p99", late_us.Percentile(99), "us", late_us.count());
    report.Add("bench.probe_p99_ms.r1", WindowedPercentile(r1.latency_ms, 99, kWindows),
               "ms", r1.latency_ms.size());
    report.Add("bench.probe_p99_ms.r2", WindowedPercentile(r2.latency_ms, 99, kWindows),
               "ms", r2.latency_ms.size());
    // Instrumentation on the in-process request path: the pass's extra
    // clock reads, plus the spans it records (charged as if recorded inline).
    const TraceCost cost = MeasureTraceCost();
    const double per_request_us = 4.0 * cost.clock_us + 9.0 * cost.record_us;
    report.Add("bench.trace_overhead_frac",
               per_request_us / (inproc_r2_ms.Percentile(50) * 1000.0), "ratio");
    report.Add("bench.pass2_coverage_frac", coverage.Percentile(50), "ratio",
               coverage.count());
    report.Add("bench.oracle_s", oracle_s, "s");
    report.Add("bench.cpu_steal_frac", StealSince(ticks_at_start), "ratio");
    report.Add("bench.max_rps_at_slo", slo.max_rps, "1/s");
    tracer.Count("pass1.requests", requests);
    tracer.Count("pass1.batches", d.batches);
    tracer.Count("pass1.batch_requests", d.batch_requests);
    tracer.Count("pass1.dedup_hits", d.dedup_hits);
    tracer.Count("pass1.direct_routed", d.direct_routed);
    tracer.Count("pass1.compactions", d.compactions);
    tracer.Count("pass1.publishes", d.publishes);
    tracer.Count("pass1.journal_fsyncs", d.fsyncs);
    tracer.Count("pass1.dict_terms_added", dict_growth);
    tracer.Count("pass3.candidates", layer.candidates);
    tracer.Count("pass3.states_explored", layer.states);
    tracer.Count("pass3.np_checks", layer.np_checks);
    tracer.Count("pass3.contained", layer.contained);
  }

  writer.Stop();
  book.Seal();
  server.Shutdown();
  const double steal = StealSince(ticks_at_start);
  if (steal > 0.05) {
    std::fprintf(stderr,
                 "[%s] the hypervisor stole %.0f%% of the CPU time during the run\n",
                 spec.name.c_str(), 100.0 * steal);
  }

  // Every answer of every phase, against allContaining(probe) ∩ live(v).
  std::size_t attempted = 0, failed = 0, wrong = 0;
  for (const Phase& phase : phases) {
    const std::size_t phase_wrong = CheckAnswers(phase, book, inputs);
    wrong += phase_wrong;
    if (!phase.measured) continue;
    const Tally t = Measure(phase);
    attempted += t.attempted;
    failed += t.failed + phase_wrong;
  }
  failed += writer.errors;
  const bool correct = wrong == 0 && writer.errors == 0;

  if (!args.trace) {
    report.Add("setup_s", setup.setup_s.Percentile(50), "s", setup.setup_s.count());
    // p50 over every sample of the phase; the tail as the median of the
    // windows' exact p95s (README "Why p95").
    const Tally* rates[] = {&r1, &r2};
    for (int i = 0; i < 2; ++i) {
      const Tally& t = *rates[i];
      const std::string rate = i == 0 ? ".r1" : ".r2";
      report.Add("probe_p50_ms" + rate, Samples(t.latency_ms).Percentile(50), "ms",
                 t.latency_ms.size());
      report.Add("probe_p95_ms" + rate, WindowedPercentile(t.latency_ms, 95, kWindows),
                 "ms", t.latency_ms.size());
    }
    report.Add("rss_peak_mb", PeakRssMb(), "MB");
  } else {
    const std::string trace_path =
        (std::filesystem::path(args.out) / (spec.name + ".trace.json")).string();
    const util::Status written = tracer.WriteJson(trace_path, spec.name);
    if (!written.ok()) std::fprintf(stderr, "%s\n", written.ToString().c_str());
  }
  std::filesystem::remove(journal_path, ec);

  // A traced run's file sits beside, not over, the untraced run's.
  WriteRunJson((std::filesystem::path(args.out) /
                (spec.name + (args.trace ? ".layers.json" : ".json")))
                   .string(),
               args, spec, report, correct, attempted, failed, wrong, steal);
  PrintReport(spec, report, correct, attempted, failed);
  if (!correct) {
    std::fprintf(stderr, "[%s] %zu wrong answers, %zu writer errors\n", spec.name.c_str(),
                 wrong, writer.errors);
    return 1;
  }
  if (late) return 3;
  return 0;
}

/// Runs every workload, each in its own process (this binary again); a smoke
/// run does each workload untraced and traced.
int RunAll(const Args& args, char** argv) {
  int failures = 0;
  for (const WorkloadSpec& spec : AllWorkloads(args.smoke)) {
    for (const bool trace : {false, true}) {
      if (trace != args.trace && !args.smoke) continue;
      std::vector<std::string> child_args = {
          argv[0],
          "--seed=" + std::to_string(args.seed),
          "--out=" + args.out,
          "--workload=" + spec.name,
          "--seconds=" + JsonNumber(args.seconds),
      };
      if (trace) child_args.push_back("--trace");
      if (args.smoke) child_args.push_back("--smoke");
      std::vector<char*> child_argv;
      for (std::string& a : child_args) child_argv.push_back(a.data());
      child_argv.push_back(nullptr);
      pid_t pid = 0;
      if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, child_argv.data(),
                        environ) != 0) {
        std::fprintf(stderr, "cannot start the %s run\n", spec.name.c_str());
        return 2;
      }
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "[%s] %s run failed\n", spec.name.c_str(),
                     trace ? "traced" : "untraced");
        ++failures;
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace rdfc

int main(int argc, char** argv) {
  using namespace rdfc::e2e;  // NOLINT(build/namespaces)
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --seed=N --out=DIR [--workload=W] [--seconds=S] [--trace] "
                 "[--smoke] [--calibrate]\n",
                 argv[0]);
    return 2;
  }
  if (args.workload.empty()) return RunAll(args, argv);
  const std::vector<WorkloadSpec> all = AllWorkloads(args.smoke);
  const WorkloadSpec* spec = FindWorkload(all, args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return RunWorkload(args, *spec);
}
