#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rdfc {
namespace e2e {

/// Microseconds on the steady clock, from a process-wide epoch.  Every
/// benchmark timestamp (due times, spans, latencies) uses this one clock.
double NowMicros();
/// Sleeps until NowMicros() >= `t`.
void SleepUntilMicros(double t);

/// One traced interval.  Spans of one request share `request`; `parent` is
/// the index of the enclosing span (kNoParent for a root).
struct Span {
  const char* name = "";  // static string: the layer boundary's name
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder for the traced run (`--trace`).  Spans are
/// recorded from the benchmark's own files around calls into the program's
/// public functions, kept in memory, and written out once at exit.  Thread
/// safe; bounded by `max_spans` (later spans, and the children of a dropped
/// span, are counted as dropped instead of stored).
class Tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;
  static constexpr std::int64_t kDropped = -2;

  explicit Tracer(std::size_t max_spans) : max_spans_(max_spans) {}

  /// Records a span and returns its handle for children, or kDropped.
  std::int64_t Record(const char* name, double start_us, double end_us,
                      std::int64_t parent, std::uint64_t request)
      RDFC_EXCLUDES(mu_);
  /// Closes a span recorded before its end was known.
  void SetEnd(std::int64_t handle, double end_us) RDFC_EXCLUDES(mu_);

  /// Attaches a named count (Metrics() deltas, walk counters) to the trace.
  void Count(const std::string& name, double value) RDFC_EXCLUDES(mu_);

  /// Writes `{"workload", "spans": [...], "summary": {name: {count,
  /// total_us, self_us}}, "counts": {...}, "dropped"}` to `path`.  Self time
  /// is a span's duration minus the part of it its children cover.
  [[nodiscard]] util::Status WriteJson(const std::string& path,
                                       const std::string& workload) const
      RDFC_EXCLUDES(mu_);

 private:
  const std::size_t max_spans_;
  mutable util::Mutex mu_;
  std::vector<Span> spans_ RDFC_GUARDED_BY(mu_);
  std::map<std::string, double> counts_ RDFC_GUARDED_BY(mu_);
  std::size_t dropped_ RDFC_GUARDED_BY(mu_) = 0;
};

/// Mean cost in microseconds of one Tracer::Record call and of one
/// NowMicros call, measured on this host (bench.trace_overhead_frac).
struct TraceCost {
  double record_us = 0.0;
  double clock_us = 0.0;
};
TraceCost MeasureTraceCost();

}  // namespace e2e
}  // namespace rdfc
