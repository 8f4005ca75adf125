#include "loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <utility>

#include "query/analysis.h"
#include "trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rdfc {
namespace e2e {

namespace {

/// The phase starts this long after Run() is called, so the first due
/// instant is not already past when the loop begins.
constexpr double kLeadMicros = 2000.0;

net::WireStatus ToWireStatus(const service::ProbeResponse& response) {
  if (response.quarantined) return net::WireStatus::kQuarantined;
  if (response.status.ok()) return net::WireStatus::kOk;
  return response.status.code() == util::StatusCode::kDeadlineExceeded
             ? net::WireStatus::kDeadlineExceeded
             : net::WireStatus::kInternal;
}

}  // namespace

std::vector<PlannedRequest> Plan(Schedule* schedule, const Inputs& inputs,
                                 double duration_s, std::uint64_t seed,
                                 std::uint64_t* fresh_counter) {
  std::vector<PlannedRequest> plan;
  const double end_us = duration_s * 1e6;
  while (true) {
    const Request request = schedule->Next();
    if (request.due_us >= end_us) break;
    PlannedRequest planned;
    planned.request = request;
    planned.key = AnswerKey(inputs, request);
    if (request.fresh) {
      planned.fresh_text = RequestText(inputs, request, seed, (*fresh_counter)++);
    } else {
      planned.text = &inputs.templates[request.probe].text;
    }
    plan.push_back(std::move(planned));
  }
  return plan;
}

void FileAnswer(const AnswerBook& book, std::uint32_t key,
                std::vector<std::uint64_t> ids, Outcome* outcome) {
  switch (book.Check(key, outcome->version, outcome->degraded, ids)) {
    case AnswerBook::Verdict::kRight:
      return;
    case AnswerBook::Verdict::kWrong:
      outcome->wrong = true;
      outcome->ids = std::move(ids);  // kept for the diagnostic
      return;
    case AnswerBook::Verdict::kLater:
      outcome->deferred = true;
      outcome->ids = std::move(ids);
      return;
  }
}

util::Result<std::unique_ptr<WireGenerator>> WireGenerator::Connect(
    std::uint16_t port, std::size_t connections) {
  // NOLINTNEXTLINE(raw-new): the constructor is private to Connect.
  std::unique_ptr<WireGenerator> generator(new WireGenerator());
  for (std::size_t i = 0; i < connections; ++i) {
    auto client = std::make_unique<net::Client>();
    RDFC_RETURN_NOT_OK(client->Connect("127.0.0.1", port));
    RDFC_RETURN_NOT_OK(client->SetNonBlocking());
    // One connection carries many users' requests back to back.  Without
    // TCP_NODELAY our Nagle would hold a request behind the previous one's
    // acknowledgement, and without quick acknowledgements (re-armed after
    // every read) the server's Nagle holds a response until our next request
    // acknowledges the previous one: either way the schedule stops being the
    // one planned.
    const int one = 1;
    if (::setsockopt(client->fd(), IPPROTO_TCP, TCP_NODELAY, &one,  // NOLINT(raw-socket)
                     sizeof(one)) != 0) {
      return util::Status::Internal("cannot set TCP_NODELAY");
    }
    generator->clients_.push_back(std::move(client));
    generator->alive_.push_back(true);
  }
  return generator;
}

PhaseResult WireGenerator::Run(const std::vector<PlannedRequest>& plan,
                               std::uint32_t deadline_ms, double drain_s,
                               const AnswerBook& book) {
  PhaseResult result;
  result.outcomes.resize(plan.size());
  const std::size_t num_conns = clients_.size();
  const std::uint64_t base_id = next_id_;
  next_id_ += plan.size();

  const double t0 = NowMicros() + kLeadMicros;
  std::size_t next = 0;
  std::size_t received = 0;
  bool backlog_taken = false;
  double drain_deadline = 0.0;
  std::vector<std::size_t> unstamped;
  std::vector<pollfd> fds(num_conns);
  std::vector<net::WireResponse> responses;
  net::WireRequest wire;
  wire.opcode = net::Opcode::kProbe;
  wire.deadline_ms = deadline_ms;

  while (true) {
    // Queue every request whose due instant has come, then hand the bytes
    // to the sockets and stamp them sent.
    const double now = NowMicros();
    while (next < plan.size() && t0 + plan[next].request.due_us <= now) {
      Outcome& outcome = result.outcomes[next];
      outcome.due_us = t0 + plan[next].request.due_us;
      const std::size_t c = next % num_conns;
      if (alive_[c]) {
        wire.id = base_id + next;
        wire.query = plan[next].Text();
        clients_[c]->QueueRequest(wire);
        unstamped.push_back(next);
      } else {
        outcome.sent_us = now;  // a dead connection fails the request
      }
      ++next;
    }
    if (!unstamped.empty()) {
      for (std::size_t c = 0; c < num_conns; ++c) {
        if (alive_[c] && clients_[c]->has_queued() && !clients_[c]->FlushQueued().ok()) {
          alive_[c] = false;
        }
      }
      const double sent = NowMicros();
      for (std::size_t i : unstamped) result.outcomes[i].sent_us = sent;
      unstamped.clear();
    }
    if (next == plan.size()) {
      if (!backlog_taken) {
        backlog_taken = true;
        result.backlog = next - received;
        drain_deadline = NowMicros() + drain_s * 1e6;
      }
      if (received == plan.size() || NowMicros() > drain_deadline) break;
    }

    double wait_us = 1000.0;
    if (next < plan.size()) {
      wait_us = std::clamp(t0 + plan[next].request.due_us - NowMicros(), 0.0, 1000.0);
    }
    for (std::size_t c = 0; c < num_conns; ++c) {
      fds[c].fd = alive_[c] ? clients_[c]->fd() : -1;
      fds[c].events =
          static_cast<short>(POLLIN | (clients_[c]->has_queued() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    const timespec timeout{0, static_cast<long>(wait_us * 1000.0)};
    // The generator multiplexes its pipelined net::Client connections; the
    // framing itself stays inside net::Client.
    (void)::ppoll(fds.data(), fds.size(), &timeout, nullptr);  // NOLINT(raw-socket)

    for (std::size_t c = 0; c < num_conns; ++c) {
      if (!alive_[c]) continue;
      if (clients_[c]->has_queued() && !clients_[c]->FlushQueued().ok()) {
        alive_[c] = false;
        continue;
      }
      responses.clear();
      if (!clients_[c]->ReadAvailable(&responses).ok()) alive_[c] = false;
      if (!responses.empty()) {
        const int one = 1;
        // NOLINTNEXTLINE(raw-socket): re-armed after every read (see Connect).
        (void)::setsockopt(clients_[c]->fd(), IPPROTO_TCP, TCP_QUICKACK, &one,
                           sizeof(one));
      }
      const double done = NowMicros();
      for (net::WireResponse& response : responses) {
        if (response.id < base_id || response.id - base_id >= plan.size()) continue;
        Outcome& outcome = result.outcomes[response.id - base_id];
        if (outcome.answered) continue;
        outcome.answered = true;
        outcome.done_us = done;
        outcome.status = response.status;
        outcome.degraded = response.degraded;
        outcome.quarantined = response.quarantined;
        outcome.version = response.snapshot_version;
        outcome.server_us = response.server_micros;
        if (response.status == net::WireStatus::kOk) {
          FileAnswer(book, plan[response.id - base_id].key,
                     std::move(response.containing_views), &outcome);
        }
        ++received;
      }
    }
  }
  result.wall_s = (NowMicros() - t0) / 1e6;
  return result;
}

namespace {

/// Futures handed from the generator to the collector thread, in order.
class FutureQueue {
 public:
  struct Item {
    std::size_t index = 0;
    std::future<service::ProbeResponse> future;
  };

  void Push(Item item) RDFC_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    items_.push_back(std::move(item));
    ready_.NotifyOne();
  }
  void Close() RDFC_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    closed_ = true;
    ready_.NotifyOne();
  }
  /// False once closed and drained.
  bool Pop(Item* out) RDFC_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    while (items_.empty() && !closed_) ready_.Wait(&mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  util::Mutex mu_;
  util::CondVar ready_;
  std::deque<Item> items_ RDFC_GUARDED_BY(mu_);
  bool closed_ RDFC_GUARDED_BY(mu_) = false;
};

}  // namespace

PhaseResult RunInProcess(service::ContainmentService* service,
                         const std::vector<PlannedRequest>& plan,
                         std::uint32_t deadline_ms, const AnswerBook& book,
                         const cpu_set_t* collector_cpus) {
  PhaseResult result;
  result.outcomes.resize(plan.size());
  result.stages.resize(plan.size());
  FutureQueue queue;
  util::ThreadPool collector({/*num_threads=*/1, /*queue_capacity=*/1});
  // The collector writes only the outcomes it pops; the generator never
  // touches an outcome after pushing it, and reads them only after the
  // collector is joined.
  const util::Status started = collector.TrySubmit([&](std::size_t) {
    if (collector_cpus != nullptr) {
      (void)::sched_setaffinity(0, sizeof(*collector_cpus), collector_cpus);
    }
    FutureQueue::Item item;
    while (queue.Pop(&item)) {
      service::ProbeResponse response = item.future.get();
      Outcome& outcome = result.outcomes[item.index];
      outcome.done_us = NowMicros();
      outcome.answered = true;
      outcome.status = ToWireStatus(response);
      outcome.degraded = response.degraded;
      outcome.quarantined = response.quarantined;
      outcome.version = response.snapshot_version;
      if (outcome.status == net::WireStatus::kOk) {
        FileAnswer(book, plan[item.index].key, std::move(response.containing_views),
                   &outcome);
      }
      StageTimes& stages = result.stages[item.index];
      stages.queue_us = response.queue_micros;
      stages.filter_us = response.filter_micros;
      stages.verify_us = response.verify_micros;
      stages.execute_us = response.total_micros;
    }
  });
  RDFC_CHECK(started.ok());  // a fresh one-thread pool always admits

  const double t0 = NowMicros() + kLeadMicros;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Outcome& outcome = result.outcomes[i];
    StageTimes& stages = result.stages[i];
    outcome.due_us = t0 + plan[i].request.due_us;
    SleepUntilMicros(outcome.due_us);
    const double parse_start = NowMicros();
    outcome.sent_us = parse_start;
    util::Result<query::BgpQuery> parsed = service->Parse(plan[i].Text());
    const double parse_end = NowMicros();
    stages.parse_us = parse_end - parse_start;
    if (!parsed.ok()) {
      outcome.status = net::WireStatus::kInvalidArgument;
      continue;
    }
    service::ProbeRequest request;
    request.anchor_signature = query::AnchorSignature(*parsed, *service->mutable_dict());
    request.has_anchor_signature = true;
    const double signature_end = NowMicros();
    stages.signature_us = signature_end - parse_end;
    request.query = std::move(parsed).value();
    if (deadline_ms > 0) {
      request.deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
    }
    util::Result<std::future<service::ProbeResponse>> future =
        service->Submit(std::move(request));
    stages.submit_us = NowMicros() - signature_end;
    if (!future.ok()) {
      outcome.status = net::WireStatus::kResourceExhausted;
      continue;
    }
    queue.Push({i, std::move(future).value()});
  }
  queue.Close();
  collector.Shutdown();
  result.wall_s = (NowMicros() - t0) / 1e6;
  return result;
}

Writer::Writer(service::ContainmentService* service, const WorkloadSpec& spec,
               const Inputs& inputs, std::vector<std::uint32_t> add_text_ids,
               std::vector<std::uint64_t> live_ids, AnswerBook* book, std::uint64_t seed)
    : service_(service),
      spec_(spec),
      inputs_(inputs),
      add_text_ids_(std::move(add_text_ids)),
      live_ids_(std::move(live_ids)),
      book_(book),
      rng_(seed) {}

Writer::~Writer() { Stop(); }

void Writer::Start() {
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::make_unique<util::ThreadPool>(
      util::ThreadPool::Options{/*num_threads=*/1, /*queue_capacity=*/1});
  const util::Status started = thread_->TrySubmit([this](std::size_t) { Loop(); });
  RDFC_CHECK(started.ok());  // a fresh one-thread pool always admits
}

void Writer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_ != nullptr) {
    thread_->Shutdown();
    thread_.reset();
  }
}

void Writer::Loop() {
  const double period_us = spec_.writer_period_ms * 1000.0;
  double next = NowMicros() + period_us;
  while (!stop_.load(std::memory_order_relaxed)) {
    SleepUntilMicros(next);
    if (stop_.load(std::memory_order_relaxed)) break;
    Batch();
    // Keep the period; after an overrun start the next batch at once, but
    // never in a catch-up burst.
    next = std::max(next + period_us, NowMicros());
  }
}

void Writer::Batch() {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> added;  // (id, text)
  std::vector<std::uint64_t> removed;
  const double start = NowMicros();
  for (std::size_t i = 0; i < spec_.adds_per_batch; ++i) {
    const std::size_t a = next_add_++ % inputs_.adds.size();
    const double t = NowMicros();
    util::Result<std::uint64_t> id = service_->AddView(inputs_.adds[a]);
    stage_us.Add(NowMicros() - t);
    if (!id.ok()) {
      ++errors;
      continue;
    }
    added.emplace_back(*id, add_text_ids_[a]);
  }
  for (std::size_t i = 0; i < spec_.removes_per_batch && !live_ids_.empty(); ++i) {
    const std::size_t pick = rng_.Uniform(0, live_ids_.size() - 1);
    const std::uint64_t id = live_ids_[pick];
    live_ids_[pick] = live_ids_.back();
    live_ids_.pop_back();
    const double t = NowMicros();
    const util::Status status = service_->RemoveView(id);
    stage_us.Add(NowMicros() - t);
    if (!status.ok()) {
      ++errors;
      continue;
    }
    removed.push_back(id);
  }
  const double publish_start = NowMicros();
  util::Result<std::uint64_t> version = service_->Publish();
  const double end = NowMicros();
  publish_call_us.Add(end - publish_start);
  publish_ms.Add((end - start) / 1000.0);
  if (!version.ok()) {
    ++errors;
    return;
  }
  book_->RecordBatch(*version, added, removed);
  for (const auto& a : added) live_ids_.push_back(a.first);
  delta_views_max =
      std::max(delta_views_max, service_->manager().tier_stats().delta_views);
}

}  // namespace e2e
}  // namespace rdfc
