#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "query/analysis.h"
#include "query/bgp_query.h"
#include "rdf/dictionary.h"
#include "sparql/writer.h"
#include "util/macros.h"
#include "workload/workload.h"

namespace rdfc {
namespace e2e {

namespace {

// The adversarial pair of bench_concurrent's mixed mode: the view demands
// both tails on one p-neighbour, the probe puts them on two of its twelve
// spokes, so the PTime filter passes and refuting the NP check explores
// ~12^6 assignments — far past any budget.
constexpr char kTrapView[] =
    "ASK { ?x <urn:adv:p> ?y . ?x <urn:adv:p> ?z0 . ?x <urn:adv:p> ?z1 . "
    "?x <urn:adv:p> ?z2 . ?x <urn:adv:p> ?z3 . ?x <urn:adv:p> ?z4 . "
    "?y <urn:adv:r> ?w0 . ?y <urn:adv:rp> ?w1 . }";

std::string TrapProbe() {
  std::string probe = "ASK { ";
  for (int i = 0; i < 12; ++i) {
    probe += "?a <urn:adv:p> ?b" + std::to_string(i) + " . ";
  }
  return probe + "?b0 <urn:adv:r> ?e0 . ?b1 <urn:adv:rp> ?e1 . }";
}

constexpr char kFreshPlaceholder[] = "urn:rdfc-bench:fresh";

/// Splits `text` at every occurrence of `separator`.
std::vector<std::string> SplitAll(const std::string& text, const std::string& separator) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  for (std::size_t at = text.find(separator); at != std::string::npos;
       at = text.find(separator, start)) {
    pieces.push_back(text.substr(start, at - start));
    start = at + separator.size();
  }
  pieces.push_back(text.substr(start));
  return pieces;
}

/// `q` with its first subject/object IRI renamed to the placeholder, split
/// around the placeholder; empty when `q` has no such IRI.
std::vector<std::string> FreshPieces(const query::BgpQuery& q,
                                     rdf::TermDictionary* dict) {
  rdf::TermId target = rdf::kNullTerm;
  for (const rdf::Triple& t : q.patterns()) {
    if (dict->IsIri(t.s)) {
      target = t.s;
      break;
    }
    if (dict->IsIri(t.o)) {
      target = t.o;
      break;
    }
  }
  if (target == rdf::kNullTerm) return {};
  const rdf::TermId placeholder = dict->MakeIri(kFreshPlaceholder);
  auto rename = [&](rdf::TermId term) { return term == target ? placeholder : term; };
  query::BgpQuery variant;
  variant.set_form(q.form());
  variant.set_select_all(q.select_all());
  for (rdf::TermId var : q.distinguished()) variant.AddDistinguished(var);
  for (const rdf::Triple& t : q.patterns()) {
    variant.AddPattern(rename(t.s), t.p, rename(t.o));
  }
  return SplitAll(sparql::WriteQuery(variant, *dict),
                  std::string("<") + kFreshPlaceholder + ">");
}

/// `view` plus one more edge from its first subject: a probe the view
/// contains (the identity maps the view into it).
query::BgpQuery Specialise(const query::BgpQuery& view, rdf::TermDictionary* dict) {
  query::BgpQuery probe = view;
  const rdf::Triple& first = view.patterns().front();
  probe.AddPattern(first.s, first.p, dict->MakeVariable("rdfcSpec"));
  return probe;
}

std::vector<std::string> Texts(const std::vector<query::BgpQuery>& queries,
                               const rdf::TermDictionary& dict) {
  std::vector<std::string> out;
  out.reserve(queries.size());
  for (const query::BgpQuery& q : queries) out.push_back(sparql::WriteQuery(q, dict));
  return out;
}

std::vector<query::BgpQuery> Combined(rdf::TermDictionary* dict, double scale,
                                      std::uint64_t seed) {
  std::vector<query::BgpQuery> out;
  for (workload::WorkloadQuery& wq :
       workload::GenerateCombined(dict, workload::ScaledWorkloadOptions(scale, seed))) {
    out.push_back(std::move(wq.query));
  }
  return out;
}

std::vector<query::BgpQuery> LubmExtended(rdf::TermDictionary* dict, std::size_t n,
                                          std::uint64_t seed) {
  util::Result<std::vector<query::BgpQuery>> queries =
      workload::GenerateLubmExtended(dict, n, seed);
  RDFC_CHECK(queries.ok());  // the fixed LUBM query set always parses
  return std::move(queries).value();
}

}  // namespace

std::vector<WorkloadSpec> AllWorkloads(bool smoke) {
  std::vector<WorkloadSpec> all;

  WorkloadSpec lookup;
  lookup.name = "lookup";
  lookup.combined_scale = smoke ? 0.002 : 0.03;
  lookup.probe_pool = smoke ? 256 : 4096;
  lookup.fresh_fraction = 0.05;
  lookup.fresh_templates = smoke ? 64 : 512;
  lookup.r1_rps = smoke ? 100 : 3100;
  lookup.r2_rps = smoke ? 300 : 9300;
  lookup.slo_lo_rps = smoke ? 100 : 3200;
  lookup.slo_hi_rps = smoke ? 2000 : 64000;
  all.push_back(lookup);

  WorkloadSpec hot_burst;
  hot_burst.name = "hot_burst";
  hot_burst.lubm_views = smoke ? 300 : 5000;
  hot_burst.probe_pool = smoke ? 64 : 256;
  hot_burst.zipf_alpha = 1.1;
  hot_burst.burst = 8;
  hot_burst.r1_rps = smoke ? 160 : 6700;
  hot_burst.r2_rps = smoke ? 480 : 20000;
  hot_burst.slo_lo_rps = smoke ? 160 : 6400;
  hot_burst.slo_hi_rps = smoke ? 4000 : 128000;
  all.push_back(hot_burst);

  WorkloadSpec churn;
  churn.name = "churn";
  churn.combined_scale = smoke ? 0.002 : 0.0325;
  churn.probe_pool = smoke ? 256 : 4096;
  churn.spec_fraction = 0.25;
  churn.writer = true;
  churn.add_pool = smoke ? 256 : 4096;
  churn.adds_per_batch = 48;
  churn.removes_per_batch = 16;
  churn.writer_period_ms = 500.0;
  churn.journal = true;
  churn.r1_rps = smoke ? 100 : 1000;
  churn.r2_rps = smoke ? 300 : 3000;
  churn.slo_lo_rps = smoke ? 100 : 700;
  churn.slo_hi_rps = smoke ? 2000 : 14000;
  all.push_back(churn);

  WorkloadSpec verify_heavy;
  verify_heavy.name = "verify_heavy";
  verify_heavy.ldbc_views = smoke ? 300 : 10000;
  verify_heavy.watdiv_views = smoke ? 300 : 10000;
  verify_heavy.trap = true;
  verify_heavy.probe_pool = smoke ? 512 : 4096;
  verify_heavy.trap_fraction = 0.01;
  verify_heavy.deadline_ms = 100;
  verify_heavy.probe_timeout_us = 20000.0;
  verify_heavy.r1_rps = smoke ? 100 : 380;
  verify_heavy.r2_rps = smoke ? 300 : 1200;
  verify_heavy.slo_lo_rps = smoke ? 100 : 350;
  verify_heavy.slo_hi_rps = smoke ? 2000 : 8000;
  all.push_back(verify_heavy);

  return all;
}

const WorkloadSpec* FindWorkload(const std::vector<WorkloadSpec>& all,
                                 std::string_view name) {
  for (const WorkloadSpec& spec : all) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  rdf::TermDictionary dict;

  // Corpus (seed).
  if (spec.combined_scale > 0.0) {
    in.views = Texts(Combined(&dict, spec.combined_scale, seed), dict);
  }
  if (spec.lubm_views > 0) {
    in.views = Texts(LubmExtended(&dict, spec.lubm_views, seed), dict);
  }
  if (spec.ldbc_views > 0) {
    in.views = Texts(workload::GenerateLdbc(&dict, spec.ldbc_views, seed), dict);
    for (std::string& text :
         Texts(workload::GenerateWatdiv(&dict, spec.watdiv_views, seed), dict)) {
      in.views.push_back(std::move(text));
    }
  }
  if (spec.trap) in.views.push_back(kTrapView);

  // Held-out probes (seed + 1).
  std::vector<query::BgpQuery> held;
  if (spec.combined_scale > 0.0) {
    held = Combined(&dict, spec.combined_scale, seed + 1);
    if (held.size() > spec.probe_pool) held.resize(spec.probe_pool);
  } else if (spec.lubm_views > 0) {
    held = LubmExtended(&dict, spec.probe_pool, seed + 1);
  } else {
    // LDBC-shaped probes with ND-degree > 1 (not f-graphs), deduplicated.
    std::unordered_set<std::string> seen;
    for (query::BgpQuery& q : workload::GenerateLdbc(&dict, spec.probe_pool, seed + 1)) {
      if (!query::IsFGraph(q) && seen.insert(sparql::WriteQuery(q, dict)).second) {
        held.push_back(std::move(q));
      }
    }
  }
  auto add_template = [&in](std::string text, std::vector<std::string> pieces) {
    ProbeTemplate t;
    t.text = std::move(text);
    t.fresh_pieces = std::move(pieces);
    in.templates.push_back(std::move(t));
    return static_cast<std::uint32_t>(in.templates.size() - 1);
  };
  for (const query::BgpQuery& q : held) {
    std::vector<std::string> pieces;
    if (spec.fresh_fraction > 0.0 && in.fresh_pool.size() < spec.fresh_templates) {
      pieces = FreshPieces(q, &dict);
    }
    const std::uint32_t id = add_template(sparql::WriteQuery(q, dict), std::move(pieces));
    in.pool.push_back(id);
    if (!in.templates[id].fresh_pieces.empty()) in.fresh_pool.push_back(id);
  }

  // Writer pool (seed + 2) and the probes specialising it.
  if (spec.writer) {
    std::vector<query::BgpQuery> adds = Combined(&dict, spec.combined_scale, seed + 2);
    if (adds.size() > spec.add_pool) adds.resize(spec.add_pool);
    in.adds = Texts(adds, dict);
    for (const query::BgpQuery& view : adds) {
      in.spec_pool.push_back(
          add_template(sparql::WriteQuery(Specialise(view, &dict), dict), {}));
    }
  }
  if (spec.trap) in.trap = add_template(TrapProbe(), {});

  for (const ProbeTemplate& t : in.templates) in.probe_texts.push_back(t.text);
  const std::string placeholder = std::string("<") + kFreshPlaceholder + ">";
  for (ProbeTemplate& t : in.templates) {
    if (t.fresh_pieces.empty()) continue;
    std::string variant = t.fresh_pieces.front();
    for (std::size_t i = 1; i < t.fresh_pieces.size(); ++i) {
      variant += placeholder + t.fresh_pieces[i];
    }
    t.fresh_variant = static_cast<std::uint32_t>(in.probe_texts.size());
    in.probe_texts.push_back(std::move(variant));
  }

  if (spec.zipf_alpha > 0.0) {
    double total = 0.0;
    for (std::size_t k = 0; k < in.pool.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), spec.zipf_alpha);
      in.zipf_cdf.push_back(total);
    }
    for (double& c : in.zipf_cdf) c /= total;
  }
  return in;
}

Schedule::Schedule(const WorkloadSpec& spec, const Inputs& inputs, double rate_rps,
                   std::uint64_t seed)
    : spec_(spec),
      inputs_(inputs),
      burst_interval_us_(1e6 * static_cast<double>(std::max<std::size_t>(1, spec.burst)) /
                         rate_rps),
      rng_(seed) {}

Request Schedule::Next() {
  const std::size_t burst = std::max<std::size_t>(1, spec_.burst);
  if (issued_ % burst == 0) {
    current_.due_us = static_cast<double>(issued_ / burst) * burst_interval_us_;
    current_.fresh = false;
    current_.probe = DrawProbe(&current_.fresh);
  }
  ++issued_;
  return current_;
}

std::uint32_t Schedule::DrawProbe(bool* fresh) {
  auto pick = [this](const std::vector<std::uint32_t>& from) {
    return from[rng_.Uniform(0, from.size() - 1)];
  };
  if (inputs_.trap >= 0 && rng_.Chance(spec_.trap_fraction)) {
    return static_cast<std::uint32_t>(inputs_.trap);
  }
  if (!inputs_.spec_pool.empty() && rng_.Chance(spec_.spec_fraction)) {
    return pick(inputs_.spec_pool);
  }
  if (!inputs_.fresh_pool.empty() && rng_.Chance(spec_.fresh_fraction)) {
    *fresh = true;
    return pick(inputs_.fresh_pool);
  }
  if (!inputs_.zipf_cdf.empty()) {
    const double u = rng_.UniformReal();
    const auto it = std::upper_bound(inputs_.zipf_cdf.begin(), inputs_.zipf_cdf.end(), u);
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - inputs_.zipf_cdf.begin()), inputs_.pool.size() - 1);
    return inputs_.pool[rank];
  }
  return pick(inputs_.pool);
}

std::string RequestText(const Inputs& inputs, const Request& request, std::uint64_t seed,
                        std::uint64_t counter) {
  const ProbeTemplate& t = inputs.templates[request.probe];
  if (!request.fresh) return t.text;
  const std::string iri = "<urn:rdfc-bench:fresh:" + std::to_string(seed) + "-" +
                          std::to_string(counter) + ">";
  std::string text = t.fresh_pieces.front();
  for (std::size_t i = 1; i < t.fresh_pieces.size(); ++i) text += iri + t.fresh_pieces[i];
  return text;
}

std::uint32_t AnswerKey(const Inputs& inputs, const Request& request) {
  return request.fresh ? inputs.templates[request.probe].fresh_variant : request.probe;
}

}  // namespace e2e
}  // namespace rdfc
