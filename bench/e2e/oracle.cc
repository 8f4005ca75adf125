#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "containment/homomorphism.h"
#include "query/bgp_query.h"
#include "rdf/dictionary.h"
#include "sparql/parser.h"

namespace rdfc {
namespace e2e {

namespace {

std::unordered_set<rdf::TermId> ConstantPredicates(const query::BgpQuery& q,
                                                   const rdf::TermDictionary& dict) {
  std::unordered_set<rdf::TermId> out;
  for (const rdf::Triple& t : q.patterns()) {
    if (!dict.IsVariable(t.p)) out.insert(t.p);
  }
  return out;
}

std::uint64_t HashTexts(const std::vector<std::string>& views,
                        const std::vector<std::string>& probes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // separator, so ["ab","c"] != ["a","bc"]
    h *= 1099511628211ull;
  };
  for (const std::string& v : views) mix(v);
  mix("--probes--");
  for (const std::string& p : probes) mix(p);
  return h;
}

constexpr char kCacheMagic[] = "rdfc-e2e-oracle-v1";

}  // namespace

util::Result<OracleAnswers> ComputeOracle(const std::vector<std::string>& views,
                                          const std::vector<std::string>& probes) {
  rdf::TermDictionary dict;
  std::vector<query::BgpQuery> parsed_views;
  parsed_views.reserve(views.size());
  // Inverted index: constant predicate -> views using it; a view is a
  // candidate when all of its constant predicates occur in the probe.
  std::unordered_map<rdf::TermId, std::vector<std::uint32_t>> views_with;
  std::vector<std::uint32_t> num_predicates;
  std::vector<std::uint32_t> predicate_free;
  for (const std::string& text : views) {
    util::Result<query::BgpQuery> q = sparql::ParseQuery(text, &dict);
    if (!q.ok()) return util::Status::InvalidArgument("oracle: bad view: " + text);
    const auto id = static_cast<std::uint32_t>(parsed_views.size());
    const std::unordered_set<rdf::TermId> predicates = ConstantPredicates(*q, dict);
    for (rdf::TermId p : predicates) views_with[p].push_back(id);
    num_predicates.push_back(static_cast<std::uint32_t>(predicates.size()));
    if (predicates.empty()) predicate_free.push_back(id);
    parsed_views.push_back(std::move(q).value());
  }

  OracleAnswers answers(probes.size());
  std::vector<std::uint32_t> hits(parsed_views.size(), 0);
  std::vector<std::uint32_t> touched;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    util::Result<query::BgpQuery> q = sparql::ParseQuery(probes[i], &dict);
    if (!q.ok()) return util::Status::InvalidArgument("oracle: bad probe: " + probes[i]);
    touched.clear();
    for (rdf::TermId p : ConstantPredicates(*q, dict)) {
      const auto it = views_with.find(p);
      if (it == views_with.end()) continue;
      for (std::uint32_t v : it->second) {
        if (hits[v]++ == 0) touched.push_back(v);
      }
    }
    std::vector<std::uint32_t> candidates = predicate_free;
    for (std::uint32_t v : touched) {
      if (hits[v] == num_predicates[v]) candidates.push_back(v);
      hits[v] = 0;
    }
    for (std::uint32_t v : candidates) {
      if (containment::IsContainedIn(*q, parsed_views[v], dict)) answers[i].push_back(v);
    }
    std::sort(answers[i].begin(), answers[i].end());
  }
  return answers;
}

std::string OracleCachePath(const std::string& dir, const std::vector<std::string>& views,
                            const std::vector<std::string>& probes) {
  char name[64];
  std::snprintf(name, sizeof(name), "oracle-%016llx.txt",
                static_cast<unsigned long long>(HashTexts(views, probes)));
  return (std::filesystem::path(dir) / name).string();
}

bool ReadOracleCache(const std::string& path, std::size_t num_probes,
                     OracleAnswers* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string magic;
  std::size_t n = 0;
  if (!(in >> magic >> n) || magic != kCacheMagic || n != num_probes) return false;
  OracleAnswers answers(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t k = 0;
    if (!(in >> k)) return false;
    answers[i].resize(k);
    for (std::uint32_t& v : answers[i]) {
      if (!(in >> v)) return false;
    }
  }
  *out = std::move(answers);
  return true;
}

util::Status WriteOracleCache(const std::string& path, const OracleAnswers& answers) {
  // Write-then-rename so a killed run never leaves a truncated cache.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << kCacheMagic << ' ' << answers.size() << '\n';
    for (const std::vector<std::uint32_t>& a : answers) {
      out << a.size();
      for (std::uint32_t v : a) out << ' ' << v;
      out << '\n';
    }
    if (!out) return util::Status::Internal("cannot write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return util::Status::Internal("cannot rename " + tmp);
  return util::Status::OK();
}

bool AnswerAcceptable(const std::vector<std::uint64_t>& expected,
                      const std::vector<std::uint64_t>& got, bool degraded) {
  if (!degraded) return got == expected;
  return std::includes(expected.begin(), expected.end(), got.begin(), got.end());
}

AnswerBook::AnswerBook(OracleAnswers answers, std::size_t num_texts)
    : answers_(std::move(answers)),
      ids_of_text_(num_texts),
      cache_(answers_.size()),
      cached_(answers_.size(), false) {}

void AnswerBook::RecordBatch(
    std::uint64_t version,
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& added,
    const std::vector<std::uint64_t>& removed) {
  util::MutexLock lock(&mu_);
  for (const auto& [id, text] : added) {
    if (life_.size() <= id) life_.resize(id + 1);
    life_[id].from = version;
    ids_of_text_[text].push_back(id);
  }
  for (std::uint64_t id : removed) life_[id].until = version;
  recorded_version_ = version;
  cache_version_ = kForever;  // live sets at or after `version` changed
}

void AnswerBook::Seal() {
  util::MutexLock lock(&mu_);
  sealed_ = true;
}

AnswerBook::Verdict AnswerBook::Check(std::uint32_t key, std::uint64_t version,
                                      bool degraded,
                                      const std::vector<std::uint64_t>& ids) const {
  util::MutexLock lock(&mu_);
  // Batches are recorded in version order, and only a batch changes the live
  // set (a refreeze publishes the same set under a new version): the answer
  // is final once a batch at or past `version` is recorded, or none follows.
  if (!sealed_ && version > recorded_version_) return Verdict::kLater;
  if (cache_version_ != version) {
    cache_version_ = version;
    std::fill(cached_.begin(), cached_.end(), false);
  }
  if (!cached_[key]) {
    cache_[key] = ExpectedLocked(key, version);
    cached_[key] = true;
  }
  return AnswerAcceptable(cache_[key], ids, degraded) ? Verdict::kRight : Verdict::kWrong;
}

std::vector<std::uint64_t> AnswerBook::Expected(std::uint32_t key,
                                                std::uint64_t version) const {
  util::MutexLock lock(&mu_);
  return ExpectedLocked(key, version);
}

std::vector<std::uint64_t> AnswerBook::ExpectedLocked(std::uint32_t key,
                                                      std::uint64_t version) const {
  std::vector<std::uint64_t> out;
  for (std::uint32_t text : answers_[key]) {
    for (std::uint64_t id : ids_of_text_[text]) {
      const Life& life = life_[id];
      if (life.from <= version && version < life.until) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace e2e
}  // namespace rdfc
