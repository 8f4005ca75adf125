#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rdfc {
namespace e2e {

/// For each probe text, the sorted indices of the view texts that contain
/// it.
using OracleAnswers = std::vector<std::vector<std::uint32_t>>;

/// The answer oracle.  It shares no code with the mv-index: it runs the
/// pairwise NP homomorphism check containment::IsContainedIn (the paper's
/// Section 4 strawman) over every (probe, distinct view) pair, pruned only
/// by "every constant predicate of the view occurs in the probe" — a
/// containment mapping fixes constants, so a view edge labelled p can only
/// land on a probe edge labelled p.  Views and probes are parsed into the
/// oracle's own dictionary.
[[nodiscard]] util::Result<OracleAnswers> ComputeOracle(
    const std::vector<std::string>& views, const std::vector<std::string>& probes);

/// Where ComputeOracle's answers for these inputs are cached in `dir`: the
/// file is named by a hash of every input text, so a repeated seed skips the
/// pairwise pass.
std::string OracleCachePath(const std::string& dir, const std::vector<std::string>& views,
                            const std::vector<std::string>& probes);
/// False when the file is missing or not a complete cache of `num_probes`.
bool ReadOracleCache(const std::string& path, std::size_t num_probes, OracleAnswers* out);
[[nodiscard]] util::Status WriteOracleCache(const std::string& path,
                                            const OracleAnswers& answers);

/// True when `got` is an acceptable answer given the oracle's `expected`
/// (both sorted ascending, deduplicated): equal for a complete answer, a
/// subset for a degraded one — degraded answers may only under-report.
bool AnswerAcceptable(const std::vector<std::uint64_t>& expected,
                      const std::vector<std::uint64_t>& got, bool degraded);

/// Which service view ids were live at which snapshot version, keyed to the
/// oracle's view texts: expected(probe, v) = allContaining(probe) ∩ live(v).
/// Thread safe: one writer records publishes while the load generator
/// checks answers.
class AnswerBook {
 public:
  /// `answers` indexes view texts; `num_texts` bounds those indices.
  AnswerBook(OracleAnswers answers, std::size_t num_texts);

  /// Records one published batch: the `added` (view id, text) pairs are
  /// visible and the `removed` ids gone from snapshot `version` on.  Batches
  /// are recorded in version order by a single writer.
  void RecordBatch(std::uint64_t version,
               const std::vector<std::pair<std::uint64_t, std::uint32_t>>& added,
               const std::vector<std::uint64_t>& removed) RDFC_EXCLUDES(mu_);
  /// No batch follows: every snapshot version's live set is final.
  void Seal() RDFC_EXCLUDES(mu_);

  enum class Verdict { kRight, kWrong, kLater };
  /// Checks one answer (`ids` sorted) against Expected.  kLater when a batch
  /// published at or before `version` may not be recorded yet — the caller
  /// keeps the answer and checks it again after Seal().
  Verdict Check(std::uint32_t key, std::uint64_t version, bool degraded,
                const std::vector<std::uint64_t>& ids) const RDFC_EXCLUDES(mu_);

  /// Sorted ids of the views live at `version` that contain probe `key`.
  std::vector<std::uint64_t> Expected(std::uint32_t key, std::uint64_t version) const
      RDFC_EXCLUDES(mu_);

 private:
  static constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();
  struct Life {
    std::uint64_t from = kForever;
    std::uint64_t until = kForever;
  };
  std::vector<std::uint64_t> ExpectedLocked(std::uint32_t key,
                                            std::uint64_t version) const
      RDFC_REQUIRES(mu_);

  const OracleAnswers answers_;
  mutable util::Mutex mu_;
  std::vector<std::vector<std::uint64_t>> ids_of_text_ RDFC_GUARDED_BY(mu_);
  std::vector<Life> life_ RDFC_GUARDED_BY(mu_);  // indexed by view id
  std::uint64_t recorded_version_ RDFC_GUARDED_BY(mu_) = 0;
  bool sealed_ RDFC_GUARDED_BY(mu_) = false;
  // Expected answers of the latest version asked about, per key.
  mutable std::uint64_t cache_version_ RDFC_GUARDED_BY(mu_) = kForever;
  mutable std::vector<std::vector<std::uint64_t>> cache_ RDFC_GUARDED_BY(mu_);
  mutable std::vector<bool> cached_ RDFC_GUARDED_BY(mu_);
};

}  // namespace e2e
}  // namespace rdfc
