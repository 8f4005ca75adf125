#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace rdfc {
namespace e2e {

/// The frozen constants of one workload.  README.md "Workloads" gives each
/// one's reason; the rates were calibrated once (`--calibrate`) and are
/// constants from then on, never derived from a capacity a run measures.
struct WorkloadSpec {
  std::string name;

  // --- Corpus (views published before the measured phases) ---------------
  /// Paper combined workload at workload::ScaledWorkloadOptions(scale, seed).
  double combined_scale = 0.0;
  /// LUBM-extended views (workload::GenerateLubmExtended).
  std::size_t lubm_views = 0;
  /// LDBC and WatDiv views, plus the adversarial trap view when `trap`.
  std::size_t ldbc_views = 0;
  std::size_t watdiv_views = 0;
  bool trap = false;
  /// Views per Publish while loading the corpus.
  std::size_t publish_batch = 4096;

  // --- Probes -----------------------------------------------------------
  /// Held-out probe pool size (seed + 1).
  std::size_t probe_pool = 0;
  /// Share of requests whose probe gets one constant renamed to an IRI that
  /// is fresh on every request.
  double fresh_fraction = 0.0;
  /// Held-out templates (the first ones with an IRI) that get a fresh slot.
  std::size_t fresh_templates = 0;
  /// Identical requests due at the same instant.
  std::size_t burst = 1;
  /// Zipf exponent of probe popularity (0 = uniform over the pool).
  double zipf_alpha = 0.0;
  /// Share of requests that are the 12-spoke trap probe.
  double trap_fraction = 0.0;
  /// Share of requests specialising a view the writer adds.
  double spec_fraction = 0.0;

  // --- Writer (churn) -----------------------------------------------------
  bool writer = false;
  std::size_t add_pool = 0;  // pregenerated add texts (seed + 2), cycled
  std::size_t adds_per_batch = 0;
  std::size_t removes_per_batch = 0;
  double writer_period_ms = 0.0;
  bool journal = false;

  // --- Serving ------------------------------------------------------------
  std::uint32_t deadline_ms = 0;      // 0 = none
  double probe_timeout_us = 0.0;      // ServiceOptions::probe_timeout_micros

  // --- Load: fixed open-loop rates (requests/s) ---------------------------
  double r1_rps = 0.0;
  double r2_rps = 0.0;
  /// Bisection bounds of max_rps_at_slo.
  double slo_lo_rps = 0.0;
  double slo_hi_rps = 0.0;
};

/// The four workloads, in run order.  `smoke` shrinks every size and rate
/// so all four finish in seconds (ctest bench_e2e_smoke).
std::vector<WorkloadSpec> AllWorkloads(bool smoke);
/// Null when `name` is unknown.
const WorkloadSpec* FindWorkload(const std::vector<WorkloadSpec>& all,
                                 std::string_view name);

/// Probe text with an optional fresh-constant slot: the template's text is
/// `pieces` joined by the template's renamed constant; a fresh request joins
/// them with a never-seen IRI instead.
struct ProbeTemplate {
  std::string text;
  std::vector<std::string> fresh_pieces;  // empty: no IRI to rename
  /// Index (into Inputs::probe_texts) of the variant whose slot holds a
  /// placeholder IRI no view mentions; its oracle answer is every fresh
  /// request's answer, since the answer cannot depend on which unmentioned
  /// IRI fills the slot.
  std::uint32_t fresh_variant = 0;
};

/// Everything a workload run sends: generated once from the seed, as SPARQL
/// text — the server only ever sees these texts.
struct Inputs {
  std::vector<std::string> views;  // corpus, in publish order
  std::vector<std::string> adds;   // writer pool (churn), cycled in order
  std::vector<ProbeTemplate> templates;
  /// Every text the oracle answers: the templates' texts, then the fresh
  /// placeholder variants.  Index = the request's answer key.
  std::vector<std::string> probe_texts;
  std::vector<std::uint32_t> pool;        // held-out templates
  std::vector<std::uint32_t> fresh_pool;  // templates with a fresh slot
  std::vector<std::uint32_t> spec_pool;   // specialisations of writer adds
  std::int64_t trap = -1;                 // trap probe template, or -1
  std::vector<double> zipf_cdf;           // over `pool` when zipf_alpha > 0
};

[[nodiscard]] Inputs GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed);

/// One scheduled request of an open-loop phase.
struct Request {
  double due_us = 0.0;  // offset from the phase start
  std::uint32_t probe = 0;  // template
  bool fresh = false;
};

/// The deterministic request sequence of one phase: arrivals at a fixed
/// rate (bursts of `spec.burst` identical requests due together), probes
/// drawn from the seed.
class Schedule {
 public:
  Schedule(const WorkloadSpec& spec, const Inputs& inputs, double rate_rps,
           std::uint64_t seed);
  Request Next();

 private:
  std::uint32_t DrawProbe(bool* fresh);

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const double burst_interval_us_;
  util::Rng rng_;
  std::uint64_t issued_ = 0;
  Request current_;
};

/// Text actually sent for `request`; `counter` makes a fresh IRI unique.
std::string RequestText(const Inputs& inputs, const Request& request,
                        std::uint64_t seed, std::uint64_t counter);
/// Oracle answer key of `request`.
std::uint32_t AnswerKey(const Inputs& inputs, const Request& request);

}  // namespace e2e
}  // namespace rdfc
