#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

namespace rdfc {
namespace e2e {

namespace {

std::chrono::steady_clock::time_point Epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

double NowMicros() {
  const auto epoch = Epoch();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   epoch)
      .count();
}

void SleepUntilMicros(double t) {
  std::this_thread::sleep_until(
      Epoch() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::micro>(t)));
}

std::int64_t Tracer::Record(const char* name, double start_us, double end_us,
                            std::int64_t parent, std::uint64_t request) {
  util::MutexLock lock(&mu_);
  if (parent == kDropped || spans_.size() >= max_spans_) {
    ++dropped_;
    return kDropped;
  }
  spans_.push_back({name, start_us, end_us, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::SetEnd(std::int64_t handle, double end_us) {
  util::MutexLock lock(&mu_);
  if (handle >= 0) spans_[static_cast<std::size_t>(handle)].end_us = end_us;
}

void Tracer::Count(const std::string& name, double value) {
  util::MutexLock lock(&mu_);
  counts_[name] += value;
}

namespace {

struct NameSummary {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredMicros(std::vector<std::pair<double, double>> intervals, double lo,
                     double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (const auto& [start, end] : intervals) {
    const double s = std::max(start, cursor);
    const double e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

util::Status Tracer::WriteJson(const std::string& path,
                               const std::string& workload) const {
  util::MutexLock lock(&mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_us,
                                                                    span.end_us);
    }
  }
  std::map<std::string, NameSummary> summary;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = span.end_us - span.start_us;
    NameSummary& s = summary[span.name];
    ++s.count;
    s.total_us += duration;
    s.self_us += duration - CoveredMicros(children[i], span.start_us, span.end_us);
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return util::Status::Internal("cannot write " + path);
  std::fprintf(out, "{\"workload\": \"%s\", \"dropped\": %zu,\n\"summary\": {",
               workload.c_str(), dropped_);
  bool first = true;
  for (const auto& [name, s] : summary) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %zu, \"total_us\": %.3f, "
                 "\"self_us\": %.3f}",
                 first ? "" : ",", name.c_str(), s.count, s.total_us, s.self_us);
    first = false;
  }
  std::fprintf(out, "\n},\n\"counts\": {");
  first = true;
  for (const auto& [name, value] : counts_) {
    std::fprintf(out, "%s\n  \"%s\": %.6g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::fprintf(out, "\n},\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s\n  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %lld, \"request\": %llu}",
                 i == 0 ? "" : ",", span.name, span.start_us, span.end_us,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) return util::Status::Internal("cannot write " + path);
  return util::Status::OK();
}

TraceCost MeasureTraceCost() {
  constexpr int kIterations = 20000;
  TraceCost cost;
  Tracer calibration(kIterations);
  double start = NowMicros();
  for (int i = 0; i < kIterations; ++i) {
    calibration.Record("calibration", 0.0, 1.0, Tracer::kNoParent, i);
  }
  cost.record_us = (NowMicros() - start) / kIterations;
  start = NowMicros();
  // steady_clock::now is an opaque library call: the loop cannot be elided.
  for (int i = 0; i < kIterations; ++i) (void)NowMicros();
  cost.clock_us = (NowMicros() - start) / kIterations;
  return cost;
}

}  // namespace e2e
}  // namespace rdfc
