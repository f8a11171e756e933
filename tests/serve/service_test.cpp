// SimulationService: the job lifecycle end to end, in process. The
// acceptance-critical properties live here: submitting the same design
// twice proves the second job skipped lowering (cache-hit flag + counter)
// with byte-identical streamed reports, a fault-plan job and a
// watchdog-tripping job flow through as structured results, and the
// bounded queue rejects with BUSY deterministically.

#include "serve/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rtl/batch_runner.h"
#include "transfer/hash.h"
#include "transfer/mapping.h"
#include "transfer/schedule.h"
#include "transfer/text_format.h"

namespace ctrtl::serve {
namespace {

constexpr const char* kFig1 = R"(design fig1
cs_max 7
register R1 init 30
register R2 init 12
bus B1
bus B2
module ADD add
transfer R1 B1 R2 B2 5 ADD 6 B1 R1
)";

/// Collects one job's frames and lets the test block until the terminal
/// frame (DONE or ERROR) lands.
struct Collector {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Frame> frames;
  bool terminal = false;

  EventSink sink() {
    return [this](const Frame& frame) {
      std::unique_lock lock(mutex);
      frames.push_back(frame);
      if (frame.type == MessageType::kDone ||
          frame.type == MessageType::kError) {
        terminal = true;
        cv.notify_all();
      }
    };
  }

  void wait() {
    std::unique_lock lock(mutex);
    cv.wait(lock, [this] { return terminal; });
  }

  [[nodiscard]] std::vector<Frame> reports() const {
    std::vector<Frame> out;
    for (const Frame& frame : frames) {
      if (frame.type == MessageType::kReport) {
        out.push_back(frame);
      }
    }
    return out;
  }

  [[nodiscard]] const Frame& last() const { return frames.back(); }
};

ServiceOptions one_worker() {
  ServiceOptions options;
  options.workers = 1;
  return options;
}

JobRequest fig1_job(const std::string& job_id, std::uint64_t instances = 1) {
  JobRequest request;
  request.job_id = job_id;
  request.instances = instances;
  request.design_text = kFig1;
  return request;
}

TEST(ServiceTest, SecondIdenticalJobSkipsLoweringWithIdenticalReports) {
  SimulationService service(one_worker());

  Collector cold;
  ASSERT_EQ(service.submit(fig1_job("cold", 3), cold.sink()).status,
            SubmitStatus::kAccepted);
  cold.wait();

  Collector warm;
  ASSERT_EQ(service.submit(fig1_job("warm", 3), warm.sink()).status,
            SubmitStatus::kAccepted);
  warm.wait();

  // Terminal frames: DONE with the cache verdicts and matching keys.
  DonePayload cold_done, warm_done;
  std::string error;
  ASSERT_EQ(cold.last().type, MessageType::kDone);
  ASSERT_TRUE(parse_done(cold.last().payload, &cold_done, &error)) << error;
  ASSERT_EQ(warm.last().type, MessageType::kDone);
  ASSERT_TRUE(parse_done(warm.last().payload, &warm_done, &error)) << error;
  EXPECT_FALSE(cold_done.cache_hit);
  EXPECT_TRUE(warm_done.cache_hit) << "identical sources must hit the cache";
  EXPECT_EQ(cold_done.cache_key, warm_done.cache_key);
  EXPECT_GT(cold_done.lower_ns, 0u);
  EXPECT_EQ(warm_done.lower_ns, 0u) << "a hit must not lower again";

  // The cache-hit counter is the observable proof the second job skipped
  // lowering.
  const StatsPayload stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.instances_completed, 6u);

  // Byte-identical streamed reports (modulo the job-id line, which is the
  // only intentional difference).
  auto normalize = [](std::vector<Frame> frames) {
    std::vector<std::string> out;
    for (Frame& frame : frames) {
      const std::size_t line_end = frame.payload.find('\n');
      out.push_back(frame.payload.substr(line_end + 1));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(normalize(cold.reports()), normalize(warm.reports()));
}

TEST(ServiceTest, ReportsAreByteIdenticalToDirectBatchRunnerRun) {
  // The wire payloads must encode exactly what a direct (no service, no
  // cache) BatchRunner run of the same sources produces.
  SimulationService service(one_worker());
  Collector collector;
  ASSERT_EQ(service.submit(fig1_job("direct", 4), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  common::DiagnosticBag diags;
  const transfer::Design design = transfer::parse_design(kFig1, diags);
  ASSERT_FALSE(diags.has_errors());
  rtl::BatchRunner runner(
      transfer::CompiledDesign::compile(design),
      rtl::BatchRunOptions{.workers = 1,
                           .engine = rtl::BatchEngineKind::kCompiledLanes});
  const rtl::BatchRunResult expected = runner.run(4);

  const std::vector<Frame> reports = collector.reports();
  ASSERT_EQ(reports.size(), 4u);
  std::vector<std::string> got(4);
  for (const Frame& frame : reports) {
    ReportPayload parsed;
    std::string error;
    ASSERT_TRUE(parse_report(frame.payload, &parsed, &error)) << error;
    ASSERT_LT(parsed.instance, got.size());
    got[parsed.instance] = frame.payload;
  }
  for (std::size_t i = 0; i < expected.instances.size(); ++i) {
    EXPECT_EQ(got[i], encode_report("direct", i, expected.instances[i]));
  }
}

TEST(ServiceTest, FaultPlanJobStreamsConflicts) {
  SimulationService service(one_worker());
  JobRequest request = fig1_job("faulted");
  request.has_fault_plan = true;
  request.fault_plan_text = "force-bus B1 = 99 @5:ra\n";
  Collector collector;
  ASSERT_EQ(service.submit(std::move(request), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  ASSERT_EQ(collector.last().type, MessageType::kDone);
  DonePayload done;
  std::string error;
  ASSERT_TRUE(parse_done(collector.last().payload, &done, &error)) << error;
  // The forced drive collides on B1 at rb and the ILLEGAL then propagates
  // through ADD.in1 / B1@wb / R1.in — four conflict records total.
  EXPECT_EQ(done.conflicts, 4u);
  EXPECT_FALSE(done.cache_hit) << "faulted stream must key differently";

  ReportPayload report;
  ASSERT_TRUE(
      parse_report(collector.reports().at(0).payload, &report, &error));
  ASSERT_EQ(report.conflicts.size(), 4u);
  EXPECT_EQ(report.conflicts[0],
            "conflict on B1 at step 5, phase rb (driven at ra)");
  ASSERT_FALSE(report.registers.empty());
  EXPECT_EQ(report.registers[0],
            (std::pair<std::string, std::string>{"R1", "ILLEGAL"}));
}

TEST(ServiceTest, WatchdogTripIsAStructuredReportNotAJobError) {
  SimulationService service(one_worker());
  JobRequest request = fig1_job("wd");
  request.max_delta_cycles = 10;
  Collector collector;
  ASSERT_EQ(service.submit(std::move(request), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  // The job completes with DONE; the trip lives in the instance report.
  ASSERT_EQ(collector.last().type, MessageType::kDone);
  DonePayload done;
  std::string error;
  ASSERT_TRUE(parse_done(collector.last().payload, &done, &error)) << error;
  EXPECT_EQ(done.failures, 1u);

  ReportPayload report;
  ASSERT_TRUE(
      parse_report(collector.reports().at(0).payload, &report, &error));
  EXPECT_EQ(report.status, "watchdog-tripped");
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("watchdog"), std::string::npos);
}

TEST(ServiceTest, UnparseableDesignEndsInEParse) {
  SimulationService service(one_worker());
  JobRequest request;
  request.job_id = "bad";
  request.design_text = "this is not a design\n";
  Collector collector;
  ASSERT_EQ(service.submit(std::move(request), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  ASSERT_EQ(collector.last().type, MessageType::kError);
  ErrorPayload parsed;
  std::string error;
  ASSERT_TRUE(parse_error(collector.last().payload, &parsed, &error)) << error;
  EXPECT_EQ(parsed.code, ErrorCode::kParse);
  EXPECT_EQ(parsed.job_id, "bad");
  EXPECT_FALSE(parsed.diagnostics.empty());
  EXPECT_EQ(service.stats().jobs_failed, 1u);
}

TEST(ServiceTest, BadFaultPlanEndsInEFaultPlan) {
  SimulationService service(one_worker());
  JobRequest request = fig1_job("badplan");
  request.has_fault_plan = true;
  request.fault_plan_text = "force-bus NOSUCHBUS = 1 @5:ra\n";
  Collector collector;
  ASSERT_EQ(service.submit(std::move(request), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  ASSERT_EQ(collector.last().type, MessageType::kError);
  ErrorPayload parsed;
  std::string error;
  ASSERT_TRUE(parse_error(collector.last().payload, &parsed, &error)) << error;
  EXPECT_EQ(parsed.code, ErrorCode::kFaultPlan);
}

TEST(ServiceTest, AdmissionValidatesLimitsSynchronously) {
  ServiceOptions options;
  options.workers = 1;
  options.max_instances = 8;
  options.max_source_bytes = 64;
  SimulationService service(options);

  const SubmitOutcome too_many =
      service.submit(fig1_job("big", 9), [](const Frame&) { FAIL(); });
  EXPECT_EQ(too_many.status, SubmitStatus::kRejected);
  EXPECT_EQ(too_many.error.code, ErrorCode::kLimit);

  JobRequest huge = fig1_job("huge");
  huge.design_text = std::string(65, 'x');
  EXPECT_EQ(service.submit(std::move(huge), nullptr).error.code,
            ErrorCode::kLimit);

  JobRequest bad_id = fig1_job("has space");
  EXPECT_EQ(service.submit(std::move(bad_id), nullptr).error.code,
            ErrorCode::kValidate);
}

TEST(ServiceTest, FullQueueRejectsBusyDeterministically) {
  // One worker parked inside a job + capacity-1 queue: the third submit
  // must bounce with BUSY while nothing is lost for the first two.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool worker_parked = false;

  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.on_job_start = [&](const std::string&) {
    std::unique_lock lock(gate_mutex);
    worker_parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  SimulationService service(options);

  Collector a, b;
  ASSERT_EQ(service.submit(fig1_job("a"), a.sink()).status,
            SubmitStatus::kAccepted);
  {
    // Wait until the worker has dequeued job a — the queue is now empty.
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  ASSERT_EQ(service.submit(fig1_job("b"), b.sink()).status,
            SubmitStatus::kAccepted);  // fills the queue

  const SubmitOutcome busy = service.submit(fig1_job("c"), nullptr);
  EXPECT_EQ(busy.status, SubmitStatus::kBusy);
  EXPECT_EQ(busy.queued, 1u);
  EXPECT_EQ(service.stats().jobs_rejected_busy, 1u);

  {
    std::unique_lock lock(gate_mutex);
    gate_open = true;
    worker_parked = false;  // job b will park again at its own start
  }
  gate_cv.notify_all();
  {
    // Let job b through its gate too.
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  gate_cv.notify_all();
  a.wait();
  b.wait();
  EXPECT_EQ(a.last().type, MessageType::kDone);
  EXPECT_EQ(b.last().type, MessageType::kDone);
}

TEST(ServiceTest, SoftLimitShedsLowPriorityWithRetryHint) {
  // One worker parked on a normal job, queue capacity 4, shedding at depth
  // 2: low-priority jobs bounce once two jobs queue, normal jobs keep the
  // remaining headroom, and the hard limit still rejects everyone.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool worker_parked = false;

  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.shed_queue_depth = 2;
  options.retry_after_ms = 7;
  options.on_job_start = [&](const std::string& job_id) {
    if (job_id != "a") {
      return;  // only the first job parks; the drain must run unimpeded
    }
    std::unique_lock lock(gate_mutex);
    worker_parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  SimulationService service(options);

  const auto low = [](JobRequest request) {
    request.low_priority = true;
    return request;
  };

  Collector a, b, c, e, g;
  ASSERT_EQ(service.submit(fig1_job("a"), a.sink()).status,
            SubmitStatus::kAccepted);
  {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  // Queue is empty; two low-priority jobs fit under the soft limit.
  ASSERT_EQ(service.submit(low(fig1_job("b")), b.sink()).status,
            SubmitStatus::kAccepted);
  ASSERT_EQ(service.submit(low(fig1_job("c")), c.sink()).status,
            SubmitStatus::kAccepted);

  // Depth 2 reached: the next low-priority job is shed, with the reason
  // and the configured retry hint on the outcome.
  const SubmitOutcome shed = service.submit(low(fig1_job("d")), nullptr);
  EXPECT_EQ(shed.status, SubmitStatus::kBusy);
  EXPECT_EQ(shed.busy_reason, BusyReason::kShed);
  EXPECT_EQ(shed.retry_after_ms, 7u);

  // Normal priority still gets the headroom between soft and hard limits.
  ASSERT_EQ(service.submit(fig1_job("e"), e.sink()).status,
            SubmitStatus::kAccepted);
  EXPECT_EQ(service.submit(low(fig1_job("f")), nullptr).busy_reason,
            BusyReason::kShed);
  ASSERT_EQ(service.submit(fig1_job("g"), g.sink()).status,
            SubmitStatus::kAccepted);  // queue now at capacity 4

  const SubmitOutcome hard = service.submit(fig1_job("h"), nullptr);
  EXPECT_EQ(hard.status, SubmitStatus::kBusy);
  EXPECT_EQ(hard.busy_reason, BusyReason::kQueueFull);
  EXPECT_EQ(hard.retry_after_ms, 7u);

  const StatsPayload mid = service.stats();
  EXPECT_EQ(mid.jobs_shed, 2u);
  EXPECT_EQ(mid.jobs_rejected_busy, 3u) << "shed jobs count as busy too";

  {
    std::unique_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (Collector* collector : {&a, &b, &c, &e, &g}) {
    collector->wait();
    EXPECT_EQ(collector->last().type, MessageType::kDone);
  }
  EXPECT_EQ(service.stats().jobs_completed, 5u);
}

TEST(ServiceTest, CancelledWhileQueuedEndsInECancelledWithoutRunning) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool worker_parked = false;

  ServiceOptions options;
  options.workers = 1;
  options.on_job_start = [&](const std::string& job_id) {
    if (job_id != "first") {
      return;
    }
    std::unique_lock lock(gate_mutex);
    worker_parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  SimulationService service(options);

  Collector first, victim;
  ASSERT_EQ(service.submit(fig1_job("first"), first.sink()).status,
            SubmitStatus::kAccepted);
  {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  const SubmitOutcome queued =
      service.submit(fig1_job("victim", 4), victim.sink());
  ASSERT_EQ(queued.status, SubmitStatus::kAccepted);
  ASSERT_NE(queued.control, nullptr);

  // The client vanishes while the job is still queued.
  queued.control->cancel();
  {
    std::unique_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  first.wait();
  victim.wait();

  EXPECT_EQ(first.last().type, MessageType::kDone);
  ASSERT_EQ(victim.last().type, MessageType::kError);
  ErrorPayload parsed;
  std::string error;
  ASSERT_TRUE(parse_error(victim.last().payload, &parsed, &error)) << error;
  EXPECT_EQ(parsed.code, ErrorCode::kCancelled);
  EXPECT_TRUE(victim.reports().empty())
      << "a job cancelled before it started must not stream reports";
  EXPECT_TRUE(queued.control->finished());

  const StatsPayload stats = service.stats();
  EXPECT_EQ(stats.jobs_cancelled, 1u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_deadline_expired, 0u);
}

TEST(ServiceTest, DeadlineBurnedWhileQueuedEndsInEDeadline) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool worker_parked = false;

  ServiceOptions options;
  options.workers = 1;
  options.on_job_start = [&](const std::string& job_id) {
    if (job_id != "first") {
      return;
    }
    std::unique_lock lock(gate_mutex);
    worker_parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  SimulationService service(options);

  Collector first, stale;
  ASSERT_EQ(service.submit(fig1_job("first"), first.sink()).status,
            SubmitStatus::kAccepted);
  {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  JobRequest request = fig1_job("stale");
  request.deadline_ms = 1;
  ASSERT_EQ(service.submit(std::move(request), stale.sink()).status,
            SubmitStatus::kAccepted);
  // Burn the budget while the job is stuck behind the parked worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::unique_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  first.wait();
  stale.wait();

  ASSERT_EQ(stale.last().type, MessageType::kError);
  ErrorPayload parsed;
  std::string error;
  ASSERT_TRUE(parse_error(stale.last().payload, &parsed, &error)) << error;
  EXPECT_EQ(parsed.code, ErrorCode::kDeadline);
  ASSERT_FALSE(parsed.diagnostics.empty());
  EXPECT_NE(parsed.diagnostics[0].find("expired while queued"),
            std::string::npos);
  EXPECT_EQ(service.stats().jobs_deadline_expired, 1u);
}

TEST(ServiceTest, ShutdownDrainsAcceptedJobsAndRejectsNewOnes) {
  SimulationService service(one_worker());
  Collector collector;
  ASSERT_EQ(service.submit(fig1_job("last", 2), collector.sink()).status,
            SubmitStatus::kAccepted);
  service.shutdown();  // blocks until the queue drains
  collector.wait();
  EXPECT_EQ(collector.last().type, MessageType::kDone);

  const SubmitOutcome rejected = service.submit(fig1_job("late"), nullptr);
  EXPECT_EQ(rejected.status, SubmitStatus::kRejected);
  EXPECT_EQ(rejected.error.code, ErrorCode::kShutdown);
}

TEST(ServiceTest, EvictionUnderPressureKeepsJobsCorrect) {
  // cache_capacity 1 with alternating designs: every other job evicts the
  // previous entry, and every job still completes correctly.
  ServiceOptions options;
  options.workers = 2;
  options.cache_capacity = 1;
  SimulationService service(options);

  std::vector<std::unique_ptr<Collector>> collectors;
  for (int round = 0; round < 3; ++round) {
    for (const char* variant : {"init 30", "init 29"}) {
      JobRequest request;
      request.job_id = "evict";
      request.instances = 2;
      request.design_text = kFig1;
      const std::size_t pos = request.design_text.find("init 30");
      request.design_text.replace(pos, 7, variant);
      collectors.push_back(std::make_unique<Collector>());
      ASSERT_EQ(
          service.submit(std::move(request), collectors.back()->sink()).status,
          SubmitStatus::kAccepted);
    }
  }
  for (const auto& collector : collectors) {
    collector->wait();
    EXPECT_EQ(collector->last().type, MessageType::kDone);
  }
  const StatsPayload stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 6u);
  EXPECT_GE(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

// --- The warm path: source index and cached lane engines ------------------

/// Submits one job and blocks until its terminal frame.
std::unique_ptr<Collector> run_job(SimulationService& service,
                                   JobRequest request) {
  auto collector = std::make_unique<Collector>();
  EXPECT_EQ(service.submit(std::move(request), collector->sink()).status,
            SubmitStatus::kAccepted);
  collector->wait();
  return collector;
}

DonePayload done_of(const Collector& collector) {
  DonePayload done;
  std::string error;
  EXPECT_EQ(collector.last().type, MessageType::kDone);
  EXPECT_TRUE(parse_done(collector.last().payload, &done, &error)) << error;
  return done;
}

/// fig1 with R1's initial value replaced: one distinct design per `init`.
JobRequest fig1_variant(const std::string& job_id, int init) {
  JobRequest request = fig1_job(job_id);
  request.design_text.replace(request.design_text.find("init 30"), 7,
                              "init " + std::to_string(init));
  return request;
}

std::string temp_snapshot(const std::string& stem) {
  const std::string path = testing::TempDir() + stem + ".snap";
  std::remove(path.c_str());
  return path;
}

TEST(ServiceWarmPathTest, ByteIdenticalResubmitIsASourceHitWithIdenticalReports) {
  SimulationService service(one_worker());
  const auto first = run_job(service, fig1_job("same", 3));
  const auto second = run_job(service, fig1_job("same", 3));
  EXPECT_FALSE(done_of(*first).cache_hit);
  const DonePayload done = done_of(*second);
  EXPECT_TRUE(done.cache_hit);
  EXPECT_EQ(done.lower_ns, 0u);
  EXPECT_EQ(done.cache_key, done_of(*first).cache_key);

  const DesignCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.source_hits, 1u) << "the resubmit must skip the parse";
  ASSERT_EQ(first->reports().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first->reports()[i].payload, second->reports()[i].payload);
  }
}

TEST(ServiceWarmPathTest, WhitespaceVariantIsACanonicalHitButNotASourceHit) {
  SimulationService service(one_worker());
  const auto first = run_job(service, fig1_job("a"));
  JobRequest variant = fig1_job("a");
  variant.design_text.replace(variant.design_text.find("bus B1"), 6,
                              "bus   B1");
  const auto second = run_job(service, std::move(variant));
  const DonePayload done = done_of(*second);
  EXPECT_TRUE(done.cache_hit);
  EXPECT_EQ(done.cache_key, done_of(*first).cache_key);
  const DesignCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.source_hits, 0u);
  EXPECT_EQ(first->reports()[0].payload, second->reports()[0].payload);
}

TEST(ServiceWarmPathTest, FaultPlanIsPartOfTheSource) {
  SimulationService service(one_worker());
  JobRequest faulted = fig1_job("f");
  faulted.has_fault_plan = true;
  faulted.fault_plan_text = "force-bus B1 = 99 @5:ra\n";
  const auto plain = run_job(service, fig1_job("f"));
  const auto with_plan = run_job(service, faulted);
  EXPECT_FALSE(done_of(*with_plan).cache_hit);
  EXPECT_NE(done_of(*plain).cache_key, done_of(*with_plan).cache_key);
  const auto plain_again = run_job(service, fig1_job("f"));
  const auto with_plan_again = run_job(service, faulted);
  EXPECT_EQ(done_of(*plain_again).cache_key, done_of(*plain).cache_key);
  EXPECT_EQ(done_of(*with_plan_again).cache_key,
            done_of(*with_plan).cache_key);
  EXPECT_EQ(with_plan->reports()[0].payload,
            with_plan_again->reports()[0].payload);
  // Plan text without the flag is ignored, as the full path ignores it.
  JobRequest unflagged = faulted;
  unflagged.has_fault_plan = false;
  EXPECT_EQ(done_of(*run_job(service, unflagged)).cache_key,
            done_of(*plain).cache_key);
  const DesignCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.source_hits, 3u);
}

TEST(ServiceWarmPathTest, EvictedSourceTakesTheFullPathAgain) {
  ServiceOptions options = one_worker();
  options.cache_capacity = 1;
  SimulationService service(options);
  const auto a = run_job(service, fig1_variant("j", 30));
  (void)run_job(service, fig1_variant("j", 29));
  const DesignCache::Stats before = service.cache_stats();
  const auto a_again = run_job(service, fig1_variant("j", 30));
  const DesignCache::Stats after = service.cache_stats();
  EXPECT_FALSE(done_of(*a_again).cache_hit);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 0u);
  EXPECT_EQ(a->reports()[0].payload, a_again->reports()[0].payload);
}

TEST(ServiceWarmPathTest, GarbageIsEParseEveryTimeAndNeverIndexed) {
  SimulationService service(one_worker());
  JobRequest garbage;
  garbage.job_id = "bad";
  garbage.design_text = "this is not a design\n";
  for (int i = 0; i < 2; ++i) {
    const auto collector = run_job(service, garbage);
    ASSERT_EQ(collector->last().type, MessageType::kError);
    ErrorPayload error;
    std::string message;
    ASSERT_TRUE(parse_error(collector->last().payload, &error, &message));
    EXPECT_EQ(error.code, ErrorCode::kParse);
  }
  const DesignCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ServiceWarmPathTest, ConcurrentSubmitsOfOneSourceMissOnce) {
  ServiceOptions options;
  options.workers = 4;
  SimulationService service(options);
  std::vector<std::unique_ptr<Collector>> collectors(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < collectors.size(); ++i) {
    threads.emplace_back([&, i] {
      collectors[i] = run_job(service, fig1_job("race", 2));
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const DesignCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  for (const auto& collector : collectors) {
    EXPECT_EQ(collector->reports()[0].payload,
              collectors[0]->reports()[0].payload);
  }
}

TEST(ServiceWarmPathTest, BootLowersOnlyTheNewestCapacityKeys) {
  const std::string path = temp_snapshot("boot_survivors");
  constexpr int kDesigns = 6;
  {
    // A record whose key no longer matches its sources, ahead of the rest:
    // boot must still hash it to find that out.
    SnapshotJournal journal(path);
    SnapshotRecord stale;
    stale.key = 0x0123456789abcdefull;
    stale.design_text = fig1_variant("x", 1).design_text;
    ASSERT_TRUE(journal.append(stale));
  }
  {
    ServiceOptions options = one_worker();
    options.cache_capacity = 16;
    options.snapshot_path = path;
    SimulationService writer(options);
    for (int i = 0; i < kDesigns; ++i) {
      (void)run_job(writer, fig1_variant("w", 100 + i));
    }
  }
  ServiceOptions options = one_worker();
  options.cache_capacity = 3;
  options.snapshot_path = path;
  SimulationService service(options);
  const StatsPayload stats = service.stats();
  EXPECT_EQ(stats.snapshot_records_loaded, static_cast<std::uint64_t>(kDesigns));
  EXPECT_EQ(stats.snapshot_records_skipped, 1u);
  EXPECT_EQ(stats.cache_entries, 3u);
  EXPECT_EQ(stats.cache_misses, 3u) << "boot lowers only the survivors";
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_EQ(service.journaled_keys(), 3u);

  // The newest three hit by source (touched oldest first, which keeps
  // their order); the older ones were never lowered.
  for (int i = kDesigns - 3; i < kDesigns; ++i) {
    EXPECT_TRUE(done_of(*run_job(service, fig1_variant("w", 100 + i))).cache_hit)
        << "design " << i;
  }
  EXPECT_EQ(service.cache_stats().source_hits, 3u);
  // A full replay's LRU order: the oldest survivor is the next victim.
  (void)run_job(service, fig1_variant("n", 7));
  EXPECT_FALSE(
      done_of(*run_job(service, fig1_variant("w", 100 + kDesigns - 3))).cache_hit);
  EXPECT_FALSE(done_of(*run_job(service, fig1_variant("w", 100))).cache_hit);
  std::remove(path.c_str());
}

TEST(ServiceWarmPathTest, ReMissAppendsAgainAndBootFollowsTheTail) {
  // Capacity 1: A, B, A journals A twice (the eviction of A forgot it), so
  // the journal reads A B A and a capacity-2 boot keeps A as most recent.
  const std::string path = temp_snapshot("boot_tail");
  {
    ServiceOptions options = one_worker();
    options.cache_capacity = 1;
    options.snapshot_path = path;
    SimulationService writer(options);
    for (const int init : {30, 29, 30}) {
      (void)run_job(writer, fig1_variant("w", init));
    }
  }
  SnapshotParseResult parsed;
  std::string error;
  ASSERT_TRUE(load_snapshot_file(path, &parsed, &error)) << error;
  ASSERT_EQ(parsed.records.size(), 3u);
  EXPECT_EQ(parsed.records[0], parsed.records[2]);

  ServiceOptions options = one_worker();
  options.cache_capacity = 2;
  options.snapshot_path = path;
  SimulationService service(options);
  EXPECT_EQ(service.stats().snapshot_records_loaded, 3u);
  EXPECT_EQ(service.stats().cache_entries, 2u);
  (void)run_job(service, fig1_variant("n", 1));  // evicts B, the LRU entry
  EXPECT_TRUE(done_of(*run_job(service, fig1_variant("w", 30))).cache_hit);
  EXPECT_FALSE(done_of(*run_job(service, fig1_variant("w", 29))).cache_hit);
  std::remove(path.c_str());
}

TEST(ServiceWarmPathTest, BootReplacesAKeyThatFailsToLowerWithTheNextOlder) {
  // The newest record parses and key-checks but names an undeclared bus,
  // so it cannot lower: it counts as skipped and the older design takes
  // the single cache slot.
  const std::string path = temp_snapshot("boot_lower_failure");
  const auto key_of = [](const std::string& text) {
    common::DiagnosticBag diags;
    const transfer::Design design = transfer::parse_design(text, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.to_text();
    return transfer::canonical_stream_hash(
        design, transfer::to_instances(design.transfers));
  };
  std::string unlowerable = kFig1;
  unlowerable.replace(unlowerable.find("transfer R1 B1"), 14, "transfer R1 B9");
  {
    SnapshotJournal journal(path);
    for (const std::string& text : {std::string(kFig1), unlowerable}) {
      SnapshotRecord record;
      record.key = key_of(text);
      record.design_text = text;
      ASSERT_TRUE(journal.append(record));
    }
  }
  ServiceOptions options = one_worker();
  options.cache_capacity = 1;
  options.snapshot_path = path;
  SimulationService service(options);
  EXPECT_EQ(service.stats().snapshot_records_loaded, 1u);
  EXPECT_EQ(service.stats().snapshot_records_skipped, 1u);
  EXPECT_EQ(service.stats().cache_entries, 1u);
  EXPECT_TRUE(done_of(*run_job(service, fig1_job("good"))).cache_hit);
  EXPECT_EQ(service.cache_stats().source_hits, 1u);
  std::remove(path.c_str());
}

TEST(ServiceWarmPathTest, JournalDedupSetStaysWithinTheCache) {
  const std::string path = temp_snapshot("journal_bound");
  constexpr std::size_t kCapacity = 3;
  ServiceOptions options = one_worker();
  options.cache_capacity = kCapacity;
  options.snapshot_path = path;
  {
    SimulationService service(options);
    for (std::size_t i = 0; i < 10 * kCapacity; ++i) {
      (void)run_job(service, fig1_variant("d", 200 + static_cast<int>(i)));
      EXPECT_LE(service.journaled_keys(), kCapacity);
    }
    EXPECT_EQ(service.journaled_keys(), kCapacity);
  }
  SnapshotParseResult parsed;
  std::string error;
  ASSERT_TRUE(load_snapshot_file(path, &parsed, &error)) << error;
  EXPECT_EQ(parsed.records.size(), 10 * kCapacity);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ctrtl::serve
