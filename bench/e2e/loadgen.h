#pragma once

#include <sched.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "oracle.h"
#include "percentiles.h"
#include "service/containment_service.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace rdfc {
namespace e2e {

/// One request of a phase, planned before the phase starts so the
/// generator's hot loop only queues bytes.
struct PlannedRequest {
  Request request;
  std::uint32_t key = 0;                   // oracle answer key
  const std::string* text = nullptr;       // the template's text, or
  std::string fresh_text;                  // a fresh request's own text
  const std::string& Text() const { return text != nullptr ? *text : fresh_text; }
};

/// The first `duration_s` seconds of `schedule`.  `fresh_counter` numbers
/// fresh IRIs across every phase of a run.
std::vector<PlannedRequest> Plan(Schedule* schedule, const Inputs& inputs,
                                 double duration_s, std::uint64_t seed,
                                 std::uint64_t* fresh_counter);

/// What happened to one planned request.  Times are NowMicros().
struct Outcome {
  double due_us = 0.0;
  double sent_us = 0.0;  // wire: bytes handed to the socket; in-process: Parse start
  double done_us = 0.0;  // response in hand
  double server_us = 0.0;  // wire: WireResponse::server_micros
  std::uint64_t version = 0;
  net::WireStatus status = net::WireStatus::kInternal;
  bool answered = false;
  bool degraded = false;
  bool quarantined = false;
  bool wrong = false;
  /// The answer, kept only when its snapshot's live set was not final yet
  /// (AnswerBook::Verdict::kLater); checked again after the writer stops.
  bool deferred = false;
  std::vector<std::uint64_t> ids;
};

/// In-process pass only: the public calls' durations and the response's
/// own stage times, in microseconds.
struct StageTimes {
  double parse_us = 0.0;
  double signature_us = 0.0;
  double submit_us = 0.0;
  double queue_us = 0.0;
  double filter_us = 0.0;
  double verify_us = 0.0;
  double execute_us = 0.0;  // ProbeResponse::total_micros
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // parallel to the plan
  std::vector<StageTimes> stages;  // in-process pass only
  /// Requests sent but unanswered when the last one was sent.
  std::size_t backlog = 0;
  double wall_s = 0.0;
};

/// Files a response's answer into `outcome`: checked against `book` now, or
/// kept for a check after AnswerBook::Seal().
void FileAnswer(const AnswerBook& book, std::uint32_t key,
                std::vector<std::uint64_t> ids, Outcome* outcome);

/// Open-loop load over `connections` pipelined nonblocking net::Client
/// connections, driven by one thread.  Every request is due at a scheduled
/// instant and timed from that instant, so a stall also delays (and is
/// charged to) every request scheduled behind it; how late the generator
/// itself sent is recorded per request (sent_us - due_us).
class WireGenerator {
 public:
  [[nodiscard]] static util::Result<std::unique_ptr<WireGenerator>> Connect(
      std::uint16_t port, std::size_t connections);

  /// Sends `plan` on schedule and waits up to `drain_s` after the last send
  /// for the remaining responses (the rest count as lost).
  PhaseResult Run(const std::vector<PlannedRequest>& plan, std::uint32_t deadline_ms,
                  double drain_s, const AnswerBook& book);

 private:
  WireGenerator() = default;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::vector<bool> alive_;
  std::uint64_t next_id_ = 1;
};

/// The same schedule driven in process (trace pass 2): on the generator
/// thread ContainmentService::Parse, query::AnchorSignature and Submit; a
/// collector thread, pinned to `collector_cpus` when given, waits on the
/// futures in order.
PhaseResult RunInProcess(service::ContainmentService* service,
                         const std::vector<PlannedRequest>& plan,
                         std::uint32_t deadline_ms, const AnswerBook& book,
                         const cpu_set_t* collector_cpus);

/// The churn writer: every `writer_period_ms`, stages `adds_per_batch`
/// views from the add pool (cycled) and `removes_per_batch` removals of
/// random live views, then publishes, recording when each view id is live
/// in `book`.
class Writer {
 public:
  /// `add_text_ids[i]` is the oracle text index of `inputs.adds[i]`;
  /// `live_ids` the corpus views it may remove.
  Writer(service::ContainmentService* service, const WorkloadSpec& spec,
         const Inputs& inputs, std::vector<std::uint32_t> add_text_ids,
         std::vector<std::uint64_t> live_ids, AnswerBook* book, std::uint64_t seed);
  ~Writer();  // Stop()
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start();
  /// Idempotent; joins the writer thread.
  void Stop();

  // Read after Stop().
  Samples publish_ms;       // first AddView of a batch -> Publish() returned
  Samples publish_call_us;  // Publish() alone
  Samples stage_us;         // one AddView / RemoveView
  std::size_t delta_views_max = 0;
  std::size_t errors = 0;

 private:
  void Loop();
  void Batch();

  service::ContainmentService* const service_;
  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const std::vector<std::uint32_t> add_text_ids_;
  std::vector<std::uint64_t> live_ids_;
  AnswerBook* const book_;
  util::Rng rng_;
  std::size_t next_add_ = 0;
  std::atomic<bool> stop_{false};
  std::unique_ptr<util::ThreadPool> thread_;
};

}  // namespace e2e
}  // namespace rdfc
