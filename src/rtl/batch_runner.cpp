#include "rtl/batch_runner.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "rtl/lane_engine.h"
#include "transfer/build.h"
#include "transfer/schedule.h"

namespace ctrtl::rtl {

namespace {

common::Diagnostic error_diagnostic(std::string message) {
  common::Diagnostic diag;
  diag.severity = common::Severity::kError;
  diag.message = std::move(message);
  return diag;
}

/// The result of a work unit skipped by the cancellation poll: never ran,
/// nothing to snapshot.
InstanceResult cancelled_instance() {
  InstanceResult result;
  result.report.status = RunStatus::kCancelled;
  return result;
}

}  // namespace

InstanceResult run_instance(RtModel& model, const RunOptions& options) {
  InstanceResult result;
  try {
    RunResult run = model.run(options);
    result.cycles = run.cycles;
    result.stats = run.stats;
    result.conflicts = std::move(run.conflicts);
    result.report = std::move(run.report);
  } catch (const std::exception& error) {
    // The simulation threw (a process exception, not a watchdog trip —
    // those are already folded into the report by RtModel::run). The model
    // object is still alive, so the register snapshot below is the valid
    // partial result at the failure point.
    result.report.status = RunStatus::kError;
    result.report.diagnostics.push_back(error_diagnostic(error.what()));
  }
  result.registers.reserve(model.registers().size());
  for (const auto& reg : model.registers()) {
    result.registers.emplace_back(reg->name(), reg->value());
  }
  return result;
}

BatchRunner::BatchRunner(ModelFactory factory, BatchRunOptions options)
    : factory_(std::move(factory)),
      options_(options),
      engine_(kernel::BatchOptions{options.workers}) {
  if (!factory_) {
    throw std::invalid_argument("BatchRunner requires a model factory");
  }
  if (options_.engine == BatchEngineKind::kCompiledLanes) {
    throw std::invalid_argument(
        "BatchRunner: the lane engine needs one shared CompiledDesign — "
        "construct from CompiledDesign::compile, not a model factory");
  }
}

BatchRunner::BatchRunner(std::shared_ptr<const transfer::CompiledDesign> design,
                         BatchRunOptions options, BatchInputProvider inputs)
    : BatchRunner(std::move(design), nullptr, options, std::move(inputs)) {}

BatchRunner::BatchRunner(std::shared_ptr<const LaneEngine> lanes,
                         BatchRunOptions options, BatchInputProvider inputs)
    : BatchRunner(lanes ? lanes->compiled_ptr() : nullptr, lanes, options,
                  std::move(inputs)) {}

BatchRunner::BatchRunner(std::shared_ptr<const transfer::CompiledDesign> design,
                         std::shared_ptr<const LaneEngine> lanes,
                         BatchRunOptions options, BatchInputProvider inputs)
    : options_(options),
      design_(std::move(design)),
      inputs_(std::move(inputs)),
      lane_engine_(std::move(lanes)),
      engine_(kernel::BatchOptions{options.workers}) {
  if (!design_) {
    throw std::invalid_argument("BatchRunner requires a compiled design");
  }
  // The per-instance reference path for this design: elaborate from the
  // shared schedule (no per-instance re-lowering) and apply the instance's
  // inputs. Used by run_one and by engine == kPerInstance.
  factory_ = [this](std::size_t instance) {
    std::unique_ptr<RtModel> model =
        transfer::build_model(*design_, options_.mode);
    if (inputs_) {
      for (const auto& [name, value] : inputs_(instance)) {
        model->set_input(name, value);
      }
    }
    return model;
  };
  if (options_.engine == BatchEngineKind::kCompiledLanes && !lane_engine_) {
    lane_engine_ = std::make_shared<const LaneEngine>(design_);
  }
}

BatchRunner::~BatchRunner() = default;

InstanceResult BatchRunner::run_one(std::size_t instance) const {
  std::unique_ptr<RtModel> model;
  try {
    model = factory_(instance);
  } catch (const std::exception& error) {
    // A throwing factory (or input provider inside the design-based
    // factory) is an instance-level failure: isolate it so the rest of the
    // batch completes. There is no model, so there is nothing to snapshot.
    InstanceResult result;
    result.report.status = RunStatus::kError;
    result.report.diagnostics.push_back(error_diagnostic(error.what()));
    return result;
  }
  if (!model) {
    // Returning null is caller misuse of the factory contract, not an
    // instance failure — keep throwing.
    throw std::invalid_argument("model factory returned null for instance " +
                                std::to_string(instance));
  }
  return run_instance(
      *model, RunOptions{.max_cycles = options_.max_cycles,
                         .max_delta_cycles = options_.max_delta_cycles});
}

BatchRunResult BatchRunner::run(std::size_t count) {
  return run(count, nullptr);
}

BatchRunResult BatchRunner::run(std::size_t count, const BatchResultSink& sink) {
  BatchRunResult result;
  // Serializes sink invocations across worker threads: the sink sees one
  // completed work unit at a time, in completion order.
  std::mutex sink_mutex;
  const auto emit = [&](std::size_t first,
                        std::span<const InstanceResult> block) {
    if (sink) {
      const std::scoped_lock lock(sink_mutex);
      sink(first, block);
    }
  };
  if (options_.engine == BatchEngineKind::kCompiledLanes) {
    const std::size_t shard = std::max<std::size_t>(1, options_.lane_block);
    const std::size_t jobs = (count + shard - 1) / shard;
    std::vector<std::vector<InstanceResult>> blocks =
        engine_.map<std::vector<InstanceResult>>(jobs, [&](std::size_t job) {
          const std::size_t first = job * shard;
          const std::size_t width = std::min(shard, count - first);
          if (options_.cancel && options_.cancel()) {
            // Skipped units are not emitted: the sink only ever sees
            // instances that actually ran.
            return std::vector<InstanceResult>(width, cancelled_instance());
          }
          try {
            std::vector<InstanceResult> block = lane_engine_->run_block(
                first, width, inputs_, options_.max_cycles,
                options_.max_delta_cycles);
            emit(first, block);
            return block;
          } catch (const std::exception&) {
            // One lane poisoned the whole SoA block (typically its input
            // provider threw). Isolate by re-running the block one lane at
            // a time: single-lane results equal multi-lane results by the
            // lane contract, so healthy instances are byte-identical to the
            // un-failed run and only the offender reports an error.
            std::vector<InstanceResult> isolated;
            isolated.reserve(width);
            for (std::size_t i = 0; i < width; ++i) {
              try {
                std::vector<InstanceResult> one = lane_engine_->run_block(
                    first + i, 1, inputs_, options_.max_cycles,
                    options_.max_delta_cycles);
                isolated.push_back(std::move(one[0]));
              } catch (const std::exception& error) {
                InstanceResult failed;
                failed.report.status = RunStatus::kError;
                failed.report.diagnostics.push_back(
                    error_diagnostic(error.what()));
                isolated.push_back(std::move(failed));
              }
            }
            emit(first, isolated);
            return isolated;
          }
        });
    result.instances.reserve(count);
    for (std::vector<InstanceResult>& block_results : blocks) {
      for (InstanceResult& instance : block_results) {
        result.instances.push_back(std::move(instance));
      }
    }
  } else {
    result.instances =
        engine_.map<InstanceResult>(count, [&](std::size_t instance) {
          if (options_.cancel && options_.cancel()) {
            return cancelled_instance();
          }
          InstanceResult one = run_one(instance);
          emit(instance, std::span<const InstanceResult>(&one, 1));
          return one;
        });
  }
  result.wall_time_ns = engine_.last_dispatch().wall_time_ns;
  result.workers = engine_.worker_count();
  for (const InstanceResult& instance : result.instances) {
    result.total = result.total + instance.stats;
  }
  return result;
}

}  // namespace ctrtl::rtl
