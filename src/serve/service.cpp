#include "serve/service.h"

#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/diagnostics.h"
#include "fault/inject.h"
#include "rtl/batch_runner.h"
#include "rtl/lane_engine.h"
#include "transfer/hash.h"
#include "transfer/mapping.h"
#include "transfer/text_format.h"

namespace ctrtl::serve {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<std::string> bag_to_strings(const common::DiagnosticBag& diags) {
  std::vector<std::string> out;
  out.reserve(diags.entries().size());
  for (const common::Diagnostic& diagnostic : diags.entries()) {
    out.push_back(common::to_string(diagnostic));
  }
  return out;
}

/// A job's sources taken through admission up to the cache key.
struct PreparedDesign {
  transfer::Design design;
  std::vector<transfer::TransInstance> instances;
  std::uint64_t key = 0;
};

// `Sources` is a `JobRequest` or a `SnapshotRecord`: both carry the design
// text, the fault-plan flag and the plan text under the same names.

/// Parses the design, applies the fault plan (or derives the design's own
/// instance stream) and content-hashes the post-fault canonical stream. On
/// failure returns nullopt with the diagnostics in `diags` and the job's
/// error code in `code`.
template <typename Sources>
std::optional<PreparedDesign> prepare(const Sources& sources,
                                      common::DiagnosticBag& diags,
                                      ErrorCode* code) {
  PreparedDesign out;
  out.design = transfer::parse_design(sources.design_text, diags);
  if (diags.has_errors()) {
    *code = ErrorCode::kParse;
    return std::nullopt;
  }
  diags.clear();
  if (sources.has_fault_plan) {
    std::optional<fault::FaultedDesign> faulted =
        fault::parse_and_apply(out.design, sources.fault_plan_text, diags);
    if (!faulted.has_value()) {
      *code = ErrorCode::kFaultPlan;
      return std::nullopt;
    }
    out.design = std::move(faulted->design);
    out.instances = std::move(faulted->instances);
  } else {
    out.instances = transfer::to_instances(out.design.transfers);
  }
  out.key = transfer::canonical_stream_hash(out.design, out.instances);
  return out;
}

/// The source-index key: the exact bytes that determine the design. The
/// length prefix keeps the design text and the plan apart; the plan text
/// counts only when the flag is set, as it does in `prepare`.
template <typename Sources>
std::string source_key(const Sources& sources) {
  std::string out = std::to_string(sources.design_text.size());
  out += ':';
  out += sources.design_text;
  if (sources.has_fault_plan) {
    out += '+';
    out += sources.fault_plan_text;
  }
  return out;
}

/// Lowers the design and builds its lane tables. `CompiledDesign::compile`
/// throws invalid_argument on validation failure.
std::shared_ptr<const rtl::LaneEngine> build_engine(
    const PreparedDesign& prepared) {
  return std::make_shared<const rtl::LaneEngine>(
      transfer::CompiledDesign::compile(prepared.design, prepared.instances));
}

}  // namespace

SimulationService::SimulationService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, [this](std::uint64_t key) {
        // The journal deduplicates only what the cache holds, so a design
        // that comes back after eviction is journaled afresh at the tail.
        if (journal_) {
          journal_->forget(key);
        }
      }) {
  if (options_.workers == 0) {
    options_.workers = 1;
  }
  if (!options_.snapshot_path.empty()) {
    journal_ = std::make_unique<SnapshotJournal>(options_.snapshot_path);
    // Replay before the workers exist: the cache is warm (and the loaded/
    // skipped counters final) before the first job can be dequeued.
    restore_snapshot();
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SimulationService::~SimulationService() { shutdown(); }

void SimulationService::restore_snapshot() {
  SnapshotParseResult parsed;
  std::string error;
  if (!load_snapshot_file(options_.snapshot_path, &parsed, &error)) {
    // An unreadable snapshot must never stop the service from booting —
    // persistence degrades to a cold cache.
    return;
  }
  snapshot_skipped_ = parsed.skipped;
  // Re-run admission on every persisted source. A record the current binary
  // parses, faults, or hashes differently than the one that journaled it
  // is skipped, not trusted: the snapshot can only ever warm the cache with
  // entries this process would compute. Only the newest `cache_capacity`
  // distinct keys would survive a full replay, so only they are lowered:
  // the walk goes back from the tail, and the next older key takes the
  // place of one that fails to lower.
  struct Survivor {
    std::size_t record;
    std::shared_ptr<const rtl::LaneEngine> engine;
  };
  std::vector<Survivor> survivors;  // newest first
  std::unordered_set<std::uint64_t> seen;
  std::unordered_set<std::uint64_t> failed;
  for (std::size_t i = parsed.records.size(); i-- > 0;) {
    const SnapshotRecord& record = parsed.records[i];
    common::DiagnosticBag diags;
    ErrorCode code = ErrorCode::kInternal;
    const std::optional<PreparedDesign> prepared =
        prepare(record, diags, &code);
    if (!prepared.has_value() || prepared->key != record.key) {
      ++snapshot_skipped_;
      continue;
    }
    // The walk meets a key's newest record first, so a key that fails to
    // lower is known to have failed before its older records come up.
    if (survivors.size() < cache_.capacity() && seen.insert(record.key).second) {
      try {
        survivors.push_back(Survivor{i, build_engine(*prepared)});
      } catch (const std::exception&) {
        failed.insert(record.key);
      }
    }
    if (failed.contains(record.key)) {
      ++snapshot_skipped_;
    } else {
      ++snapshot_loaded_;
    }
  }

  // Insert oldest first: the LRU order then equals a full replay's.
  for (auto it = survivors.rbegin(); it != survivors.rend(); ++it) {
    const SnapshotRecord& record = parsed.records[it->record];
    const std::string source = source_key(record);
    (void)cache_.get_or_compile(
        record.key, [&] { return it->engine; }, nullptr, &source);
    journal_->note_existing(record.key);
  }
}

SubmitOutcome SimulationService::submit(JobRequest request, EventSink sink) {
  SubmitOutcome outcome;
  const auto reject = [&](ErrorCode code, std::string message) {
    outcome.status = SubmitStatus::kRejected;
    outcome.error.job_id = request.job_id;
    outcome.error.code = code;
    outcome.error.diagnostics.push_back(std::move(message));
    return outcome;
  };

  if (!valid_job_id(request.job_id)) {
    request.job_id.clear();  // don't echo garbage back
    return reject(ErrorCode::kValidate, "invalid job id");
  }
  if (request.instances == 0) {
    return reject(ErrorCode::kValidate, "instances must be positive");
  }
  if (request.instances > options_.max_instances) {
    return reject(ErrorCode::kLimit,
                  "instances " + std::to_string(request.instances) +
                      " exceeds limit " +
                      std::to_string(options_.max_instances));
  }
  if (request.design_text.size() > options_.max_source_bytes ||
      request.fault_plan_text.size() > options_.max_source_bytes) {
    return reject(ErrorCode::kLimit,
                  "source blob exceeds " +
                      std::to_string(options_.max_source_bytes) + " bytes");
  }

  std::unique_lock lock(mutex_);
  if (draining_) {
    return reject(ErrorCode::kShutdown, "server is shutting down");
  }
  // Two-tier admission: the hard bound applies to everyone; the soft bound
  // (when enabled) sheds low-priority work first so normal-priority jobs
  // keep the remaining queue headroom under overload.
  const bool hard_full = queue_.size() >= options_.queue_capacity;
  const bool shed = !hard_full && request.low_priority &&
                    options_.shed_queue_depth != 0 &&
                    queue_.size() >= options_.shed_queue_depth;
  if (hard_full || shed) {
    ++jobs_rejected_busy_;
    if (shed) {
      ++jobs_shed_;
    }
    outcome.status = SubmitStatus::kBusy;
    outcome.queued = queue_.size();
    outcome.retry_after_ms = options_.retry_after_ms;
    outcome.busy_reason = shed ? BusyReason::kShed : BusyReason::kQueueFull;
    return outcome;
  }
  Job job;
  job.control = std::make_shared<JobControl>();
  job.has_deadline = request.deadline_ms != 0;
  if (job.has_deadline) {
    // The budget is measured from admission — queue wait burns it too, so
    // an overloaded server expires stale work instead of running it late.
    job.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(request.deadline_ms);
  }
  outcome.control = job.control;
  job.request = std::move(request);
  job.sink = std::move(sink);
  // Emit ACCEPTED through the sink *before* the job becomes visible to any
  // worker. Frame order — ACCEPTED, then REPORTs, then the terminal — is a
  // contract; were ACCEPTED sent by the caller after submit() returned, a
  // fast worker could stream the whole job first and reorder the wire.
  // Sinks must not call back into the service (the queue lock is held).
  if (job.sink) {
    AcceptedPayload accepted;
    accepted.job_id = job.request.job_id;
    accepted.queued = queue_.size() + 1;
    job.sink(Frame{MessageType::kAccepted, encode_accepted(accepted)});
  }
  queue_.push_back(std::move(job));
  ++jobs_accepted_;
  outcome.status = SubmitStatus::kAccepted;
  outcome.queued = queue_.size();
  lock.unlock();
  queue_cv_.notify_one();
  return outcome;
}

void SimulationService::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      queue_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // draining and nothing left
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (options_.on_job_start) {
      options_.on_job_start(job.request.job_id);
    }
    process(std::move(job));
  }
}

void SimulationService::process(Job job) {
  const JobRequest& request = job.request;
  const auto fail = [&](ErrorCode code, std::vector<std::string> diagnostics) {
    ErrorPayload error;
    error.job_id = request.job_id;
    error.code = code;
    error.diagnostics = std::move(diagnostics);
    {
      // Count before emitting: a caller woken by the terminal frame must
      // observe the updated stats.
      std::unique_lock lock(mutex_);
      ++jobs_failed_;
      if (code == ErrorCode::kDeadline) {
        ++jobs_deadline_expired_;
      } else if (code == ErrorCode::kCancelled) {
        ++jobs_cancelled_;
      }
    }
    if (job.control) {
      job.control->mark_finished();
    }
    if (job.sink) {
      job.sink(Frame{MessageType::kError, encode_error(error)});
    }
  };

  // Jobs can die while still queued: the client may have vanished, or a
  // tight deadline may have burned out before a worker freed up.
  if (job.control &&
      job.control->reason() == JobControl::kCancelledByClient) {
    fail(ErrorCode::kCancelled, {"job cancelled before it started"});
    return;
  }
  if (job.has_deadline && std::chrono::steady_clock::now() >= job.deadline) {
    if (job.control) {
      job.control->expire();
    }
    fail(ErrorCode::kDeadline,
         {"deadline of " + std::to_string(request.deadline_ms) +
          " ms expired while queued"});
    return;
  }

  try {
    // A byte-identical resubmit of a cached design skips straight to its
    // engine. Anything else takes the full admission path, where the
    // canonical key stays the authority.
    const std::string source = source_key(request);
    std::uint64_t key = 0;
    bool cache_hit = false;
    std::uint64_t lower_ns = 0;
    std::shared_ptr<const rtl::LaneEngine> engine =
        cache_.find_source(source, &key);
    if (engine) {
      cache_hit = true;
    } else {
      common::DiagnosticBag diags;
      ErrorCode code = ErrorCode::kInternal;
      const std::optional<PreparedDesign> prepared =
          prepare(request, diags, &code);
      if (!prepared.has_value()) {
        fail(code, bag_to_strings(diags));
        return;
      }
      key = prepared->key;
      // Cache lookup; a miss lowers and builds the lane tables under the
      // cache lock (single-flight), then journals the sources behind the
      // fresh entry. Eviction runs under the same lock, so the journal's
      // dedup set tracks the cache's keys exactly. The journal write is
      // best-effort: a failure degrades persistence, never the job. Only
      // designs that survived validation reach the snapshot, so replay
      // cannot E-VALIDATE.
      try {
        engine = cache_.get_or_compile(
            key,
            [&] {
              const std::uint64_t start = now_ns();
              auto built = build_engine(*prepared);
              lower_ns = now_ns() - start;
              if (journal_ && cache_.capacity() != 0) {
                SnapshotRecord record;
                record.key = key;
                record.design_text = request.design_text;
                record.has_fault_plan = request.has_fault_plan;
                record.fault_plan_text = request.fault_plan_text;
                (void)journal_->append(record);
              }
              return built;
            },
            &cache_hit, &source);
      } catch (const std::invalid_argument& error) {
        fail(ErrorCode::kValidate, {error.what()});
        return;
      }
    }

    // Lane-sharded run, streaming each completed lane block out as REPORT
    // frames. The sink calls are serialized by the runner, so frames for
    // one job never interleave mid-frame.
    std::vector<std::pair<std::string, rtl::RtValue>> inputs;
    inputs.reserve(request.inputs.size());
    for (const auto& [name, value] : request.inputs) {
      inputs.emplace_back(name, rtl::RtValue::of(value));
    }
    rtl::BatchRunOptions run_options;
    run_options.workers = options_.lane_workers;
    run_options.max_cycles = request.max_cycles;
    run_options.max_delta_cycles = request.max_delta_cycles;
    run_options.engine = rtl::BatchEngineKind::kCompiledLanes;
    run_options.lane_block = options_.lane_block;
    if (job.control) {
      // Cooperative termination: polled by the runner before each lane
      // block. Deadline expiry is detected here (and recorded first-wins
      // on the control), so an in-run expiry and a client cancel cannot
      // both claim the job.
      const std::shared_ptr<JobControl> control = job.control;
      const bool has_deadline = job.has_deadline;
      const std::chrono::steady_clock::time_point deadline = job.deadline;
      run_options.cancel = [control, has_deadline, deadline] {
        if (has_deadline &&
            std::chrono::steady_clock::now() >= deadline) {
          control->expire();
        }
        return control->reason() != JobControl::kRunning;
      };
    }
    rtl::BatchRunner runner(
        engine, run_options,
        inputs.empty() ? rtl::BatchInputProvider{}
                       : [inputs](std::size_t) { return inputs; });

    const std::uint64_t run_start = now_ns();
    const rtl::BatchRunResult result = runner.run(
        request.instances,
        [&](std::size_t first_instance,
            std::span<const rtl::InstanceResult> block) {
          if (!job.sink) {
            return;
          }
          for (std::size_t i = 0; i < block.size(); ++i) {
            job.sink(Frame{
                MessageType::kReport,
                encode_report(request.job_id, first_instance + i, block[i])});
          }
        });
    const std::uint64_t run_ns = now_ns() - run_start;

    // A run truncated by deadline or cancel ends with ERROR, not DONE.
    // REPORT frames for the lane blocks that finished were already
    // streamed and stay valid — the terminal frame names how far it got.
    const int reason =
        job.control ? job.control->reason() : JobControl::kRunning;
    if (reason != JobControl::kRunning) {
      const std::uint64_t ran = static_cast<std::uint64_t>(
          result.instances.size() - result.cancelled_count());
      {
        std::unique_lock lock(mutex_);
        instances_completed_ += ran;
      }
      const std::string progress = " after completing " +
                                   std::to_string(ran) + " of " +
                                   std::to_string(request.instances) +
                                   " instances";
      if (reason == JobControl::kDeadlineExpired) {
        fail(ErrorCode::kDeadline,
             {"deadline of " + std::to_string(request.deadline_ms) +
              " ms expired" + progress});
      } else {
        fail(ErrorCode::kCancelled, {"job cancelled" + progress});
      }
      return;
    }

    DonePayload done;
    done.job_id = request.job_id;
    done.instances = result.instances.size();
    done.failures = result.failure_count();
    done.conflicts = result.conflict_count();
    done.cache_hit = cache_hit;
    done.cache_key = transfer::to_hex(key);
    done.lower_ns = lower_ns;
    done.run_ns = run_ns;
    {
      // Count before emitting, so stats are current once DONE is visible.
      std::unique_lock lock(mutex_);
      ++jobs_completed_;
      instances_completed_ += result.instances.size();
    }
    if (job.control) {
      job.control->mark_finished();
    }
    if (job.sink) {
      job.sink(Frame{MessageType::kDone, encode_done(done)});
    }
  } catch (const std::exception& error) {
    fail(ErrorCode::kInternal, {error.what()});
  }
}

DesignCache::Stats SimulationService::cache_stats() const {
  return cache_.stats();
}

std::size_t SimulationService::journaled_keys() const {
  return journal_ ? journal_->journaled_keys() : 0;
}

StatsPayload SimulationService::stats() const {
  const DesignCache::Stats cache = cache_.stats();
  StatsPayload out;
  std::unique_lock lock(mutex_);
  out.jobs_accepted = jobs_accepted_;
  out.jobs_completed = jobs_completed_;
  out.jobs_rejected_busy = jobs_rejected_busy_;
  out.jobs_failed = jobs_failed_;
  out.jobs_shed = jobs_shed_;
  out.jobs_deadline_expired = jobs_deadline_expired_;
  out.jobs_cancelled = jobs_cancelled_;
  out.instances_completed = instances_completed_;
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions;
  out.cache_entries = cache.entries;
  out.cache_capacity = cache_.capacity();
  out.queue_capacity = options_.queue_capacity;
  out.workers = options_.workers;
  out.snapshot_records_loaded = snapshot_loaded_;
  out.snapshot_records_skipped = snapshot_skipped_;
  return out;
}

void SimulationService::shutdown() {
  {
    std::unique_lock lock(mutex_);
    if (draining_ && workers_.empty()) {
      return;
    }
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
}

}  // namespace ctrtl::serve
