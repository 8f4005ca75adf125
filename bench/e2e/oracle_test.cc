// bench_e2e_oracle_test: the pairwise oracle agrees with the containment
// service on a small corpus (complete, degraded, and after removals), and
// the answer check flags an injected wrong answer.  Exit code 0 = pass.

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "service/containment_service.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s\n", what.c_str());
}

}  // namespace

int main() {
  using namespace rdfc;  // NOLINT(build/namespaces)
  using e2e::AnswerAcceptable;

  // The smoke-size lookup and verify_heavy inputs: combined-workload views
  // with held-out, fresh-constant and trap probes.
  const std::vector<e2e::WorkloadSpec> all = e2e::AllWorkloads(/*smoke=*/true);
  for (const char* name : {"lookup", "verify_heavy"}) {
    const e2e::WorkloadSpec& spec = *e2e::FindWorkload(all, name);
    const e2e::Inputs inputs = e2e::GenerateInputs(spec, /*seed=*/11);
    util::Result<e2e::OracleAnswers> answers =
        e2e::ComputeOracle(inputs.views, inputs.probe_texts);
    Expect(answers.ok(), std::string(name) + ": oracle computes");
    if (!answers.ok()) continue;

    service::ServiceOptions options;
    options.num_threads = 2;
    options.quarantine_threshold = 0;
    options.probe_timeout_micros = spec.probe_timeout_us;
    service::ContainmentService svc(options);
    e2e::AnswerBook book(*answers, inputs.views.size());
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < inputs.views.size(); ++i) {
      util::Result<std::uint64_t> id = svc.AddView(inputs.views[i]);
      Expect(id.ok(), std::string(name) + ": view parses");
      if (!id.ok()) return 1;
      ids.push_back(*id);
    }
    util::Result<std::uint64_t> version = svc.Publish();
    Expect(version.ok(), std::string(name) + ": publish");
    if (!version.ok()) return 1;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> corpus;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      corpus.emplace_back(ids[i], static_cast<std::uint32_t>(i));
    }
    book.RecordBatch(*version, corpus, {});

    // Every probe text (templates and fresh variants): the service's answer
    // equals the oracle's, or is a subset when degraded (the trap probe).
    std::size_t checked = 0, nonempty = 0, degraded = 0;
    std::uint32_t witness = 0;
    for (std::uint32_t key = 0; key < inputs.probe_texts.size(); ++key) {
      const bool trap = static_cast<std::int64_t>(key) == inputs.trap;
      if (!trap && key % 3 != 0) continue;  // a third of the probes keeps this fast
      util::Result<service::ProbeResponse> response = svc.Probe(inputs.probe_texts[key]);
      Expect(response.ok(), std::string(name) + ": probe runs");
      if (!response.ok()) continue;
      const std::vector<std::uint64_t> expected =
          book.Expected(key, response->snapshot_version);
      Expect(AnswerAcceptable(expected, response->containing_views, response->degraded),
             std::string(name) + ": service matches oracle on\n" +
                 inputs.probe_texts[key]);
      ++checked;
      if (response->degraded) ++degraded;
      if (!expected.empty()) {
        ++nonempty;
        witness = key;
      }
    }
    Expect(checked > 20 && nonempty > 0,
           std::string(name) + ": enough probes with answers were checked");
    Expect(inputs.trap < 0 || degraded > 0, std::string(name) + ": the trap degrades");
    std::printf("%s: %zu probes checked, %zu with answers, %zu degraded\n", name, checked,
                nonempty, degraded);
    if (nonempty == 0) continue;

    // An injected wrong answer is flagged: a missing id, an extra id, and a
    // degraded answer that over-reports.
    const std::vector<std::uint64_t> expected = book.Expected(witness, *version);
    std::vector<std::uint64_t> missing(expected.begin() + 1, expected.end());
    std::vector<std::uint64_t> extra = expected;
    extra.push_back(ids.size() + 1000);
    Expect(AnswerAcceptable(expected, expected, false), "exact answer accepted");
    Expect(!AnswerAcceptable(expected, missing, false), "missing id flagged");
    Expect(AnswerAcceptable(expected, missing, true), "degraded subset accepted");
    Expect(!AnswerAcceptable(expected, extra, false), "extra id flagged");
    Expect(!AnswerAcceptable(expected, extra, true), "degraded over-report flagged");

    // Removal: the expected answer at the new version drops the view, and
    // the service agrees; an answer at a version not yet recorded waits.
    Expect(book.Check(witness, *version + 1, false, expected) ==
               e2e::AnswerBook::Verdict::kLater,
           "unrecorded version deferred");
    const std::uint64_t victim = expected.front();
    Expect(svc.RemoveView(victim).ok(), "remove");
    util::Result<std::uint64_t> after = svc.Publish();
    Expect(after.ok(), "publish after remove");
    if (!after.ok()) return 1;
    book.RecordBatch(*after, {}, {victim});
    util::Result<service::ProbeResponse> response =
        svc.Probe(inputs.probe_texts[witness]);
    Expect(response.ok(), "probe after remove");
    if (response.ok()) {
      const std::vector<std::uint64_t> now = book.Expected(witness, *after);
      Expect(now.size() + 1 == expected.size(),
             "removed view leaves the expected answer");
      Expect(AnswerAcceptable(now, response->containing_views, response->degraded),
             "service matches oracle after removal");
      Expect(!AnswerAcceptable(now, expected, false), "stale answer flagged");
      using Verdict = e2e::AnswerBook::Verdict;
      Expect(book.Check(witness, *after, false, expected) == Verdict::kWrong,
             "stale answer flagged by the book");
      book.Seal();
      Expect(book.Check(witness, *after + 5, false, now) == Verdict::kRight,
             "sealed book answers later versions");
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d checks failed\n", failures);
    return 1;
  }
  std::printf("bench_e2e_oracle_test: all checks passed\n");
  return 0;
}
