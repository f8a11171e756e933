#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kernel/batch.h"
#include "rtl/model.h"

namespace ctrtl::transfer {
struct CompiledDesign;
}

namespace ctrtl::rtl {

class LaneEngine;

/// Per-instance external inputs: `(input name, value)` pairs applied in
/// order before control step 1 (the `RtModel::set_input` protocol). Invoked
/// concurrently with distinct instance indices — must be thread-safe.
using BatchInputProvider =
    std::function<std::vector<std::pair<std::string, RtValue>>(std::size_t)>;

/// How a batch executes its instances.
enum class BatchEngineKind : std::uint8_t {
  /// One model and one scheduler per instance (any `TransferMode`); jobs are
  /// whole instances. The fully general shape — instances may come from a
  /// factory producing arbitrarily different models.
  kPerInstance,
  /// One shared compiled action table, instances as structure-of-arrays
  /// lanes (`LaneEngine`); jobs are fixed-size lane blocks. Requires all
  /// instances to share one `transfer::CompiledDesign` (they may still
  /// differ in external inputs).
  kCompiledLanes,
};

/// Options for a `BatchRunner`.
struct BatchRunOptions {
  /// Worker threads; 0 = one per available hardware thread.
  std::size_t workers = 0;
  /// Cycle limit applied to every instance (`RtModel::run` semantics).
  std::uint64_t max_cycles = kernel::Scheduler::kNoLimit;
  /// Delta-cycle watchdog limit applied to every instance
  /// (`RunOptions::max_delta_cycles` semantics): a non-converging instance
  /// ends with a kWatchdogTripped report instead of hanging its worker.
  std::uint64_t max_delta_cycles = kernel::Scheduler::kNoLimit;
  /// Execution engine; `kCompiledLanes` requires a design- or engine-based
  /// constructor.
  BatchEngineKind engine = BatchEngineKind::kPerInstance;
  /// Lane-engine shard size: instances simulated per SoA block. Fixed (not
  /// derived from the worker count) so the work decomposition — and
  /// therefore every result bit — is identical for every worker count.
  std::size_t lane_block = 16;
  /// Transfer mode for per-instance models elaborated from a
  /// `CompiledDesign` (ignored by the factory constructor and by
  /// `kCompiledLanes`, which is compiled by construction).
  TransferMode mode = TransferMode::kCompiled;
  /// Cooperative cancellation poll. When set, the runner invokes it before
  /// starting each work unit (a lane block under `kCompiledLanes`, one
  /// instance under `kPerInstance`); once it returns true, every unit not
  /// yet started is skipped — its instances report `RunStatus::kCancelled`
  /// and are NOT streamed through the `BatchResultSink`. Units already
  /// running complete normally (their results stay byte-identical to an
  /// uncancelled run), so cancellation latency is bounded by one work
  /// unit, never by the whole batch. Must be thread-safe; it is polled
  /// concurrently from worker threads. A truly non-converging instance
  /// never reaches the next poll point — bound it with `max_delta_cycles`
  /// (the watchdog), which this poll complements rather than replaces.
  std::function<bool()> cancel = nullptr;
};

/// Everything observable about one simulated instance: the run outcome
/// (kernel statistics, cycle count, conflicts) plus the final value of every
/// register in elaboration order. Two instances are behaviourally identical
/// iff their `InstanceResult`s compare equal.
struct InstanceResult {
  std::uint64_t cycles = 0;
  kernel::KernelStats stats;
  std::vector<Conflict> conflicts;
  /// (register name, final value), in elaboration order.
  std::vector<std::pair<std::string, RtValue>> registers;
  /// Guarded-execution outcome: kOk, kWatchdogTripped, or kError (the
  /// instance threw — its exception was caught at the instance boundary and
  /// the rest of the batch kept running). Non-ok results still carry the
  /// partial registers/conflicts observed up to the failure point.
  RunReport report;

  friend bool operator==(const InstanceResult& a, const InstanceResult& b) {
    // Stats are timing-dependent only in wall_time_ns; compare behaviour.
    return a.cycles == b.cycles && a.conflicts == b.conflicts &&
           a.registers == b.registers && a.report == b.report &&
           a.stats.delta_cycles == b.stats.delta_cycles &&
           a.stats.events == b.stats.events &&
           a.stats.updates == b.stats.updates &&
           a.stats.transactions == b.stats.transactions;
  }
};

/// Incremental result streaming: invoked once per completed work unit with
/// the results of instances `first_instance .. first_instance +
/// block.size() - 1` (a whole lane block under `kCompiledLanes`, a single
/// instance under `kPerInstance`), as soon as that unit finishes — long
/// before `run` returns. Calls are serialized by the runner (never
/// concurrent with each other) but arrive on worker threads in completion
/// order, which varies with scheduling; within one call the block is in
/// ascending instance order. The spanned results are identical to the slots
/// the final `BatchRunResult` will hold, so a consumer that streams and one
/// that waits observe byte-identical data. `ctrtl_serve` hangs its
/// per-instance report streaming off this hook.
using BatchResultSink =
    std::function<void(std::size_t first_instance,
                       std::span<const InstanceResult> block)>;

/// Result of one batch dispatch: per-instance results indexed by instance
/// number (deterministic — independent of worker interleaving), aggregated
/// kernel statistics, and the batch wall time.
struct BatchRunResult {
  std::vector<InstanceResult> instances;
  kernel::KernelStats total;
  std::uint64_t wall_time_ns = 0;
  std::size_t workers = 0;

  [[nodiscard]] std::size_t conflict_count() const {
    std::size_t count = 0;
    for (const InstanceResult& instance : instances) {
      count += instance.conflicts.size();
    }
    return count;
  }

  /// Instances whose report is not kOk (watchdog trips + errors; skipped
  /// instances of a cancelled batch count here too).
  [[nodiscard]] std::size_t failure_count() const {
    std::size_t count = 0;
    for (const InstanceResult& instance : instances) {
      count += instance.report.ok() ? 0 : 1;
    }
    return count;
  }

  /// Instances skipped by the cooperative cancellation poll
  /// (`BatchRunOptions::cancel`) — they never ran.
  [[nodiscard]] std::size_t cancelled_count() const {
    std::size_t count = 0;
    for (const InstanceResult& instance : instances) {
      count += instance.report.status == RunStatus::kCancelled ? 1 : 0;
    }
    return count;
  }
};

/// Runs N independent instances of a clock-free design across a worker pool.
///
/// Two shapes, selected by `BatchRunOptions::engine`:
///
///   - `kPerInstance`: each instance is produced by a factory (or elaborated
///     from a shared `CompiledDesign`) and simulated to quiescence on its own
///     `Scheduler`, one simulation per worker thread at a time. Simulations
///     never share mutable state, so the only cross-thread traffic is job
///     dispatch.
///   - `kCompiledLanes`: all instances share one immutable compiled action
///     table; per-instance state is laid out as contiguous SoA lanes and the
///     batch is sharded into fixed-size lane blocks across the pool (see
///     `LaneEngine`). Requires a design- or engine-based constructor.
///
/// Determinism guarantee: `run(n)` returns the same `BatchRunResult`
/// (ignoring wall time) for any worker count, and per-instance equal to n
/// sequential `run_one` calls. Factories and input providers must be
/// thread-safe — they are invoked concurrently with distinct indices.
///
/// Isolation guarantee: one misbehaving instance cannot take down the
/// batch. An instance that throws (factory, input provider, or simulation)
/// or trips the delta-cycle watchdog yields an `InstanceResult` whose
/// `report` records the failure with its diagnostics, while every other
/// instance completes normally — and the result stays byte-stable across
/// worker counts.
class BatchRunner {
 public:
  using ModelFactory = std::function<std::unique_ptr<RtModel>(std::size_t instance)>;

  /// Fully general per-instance batch. Throws `std::invalid_argument` when
  /// `options.engine == kCompiledLanes` — lanes need one shared design.
  explicit BatchRunner(ModelFactory factory, BatchRunOptions options = {});

  /// All instances share one pre-lowered design (`CompiledDesign::compile`),
  /// differing only in the inputs the provider sets. Supports both engines:
  /// `kPerInstance` elaborates one model per instance from the shared
  /// schedule (lower once, elaborate N times), `kCompiledLanes` shares the
  /// whole action table and runs SoA lane blocks.
  explicit BatchRunner(std::shared_ptr<const transfer::CompiledDesign> design,
                       BatchRunOptions options = {},
                       BatchInputProvider inputs = nullptr);

  /// Like the design-based constructor, but shares an already-built lane
  /// engine (and the design it owns) instead of lowering new lane tables.
  /// A `LaneEngine` is immutable, so any number of runners — on any
  /// threads — may share one; `ctrtl_serve` caches it per design.
  explicit BatchRunner(std::shared_ptr<const LaneEngine> lanes,
                       BatchRunOptions options = {},
                       BatchInputProvider inputs = nullptr);

  ~BatchRunner();

  /// Simulates instances `0..count-1`.
  [[nodiscard]] BatchRunResult run(std::size_t count);

  /// Like `run(count)`, additionally streaming every completed work unit
  /// through `sink` while the batch is still in flight (see
  /// `BatchResultSink`). A null sink is equivalent to `run(count)`; the
  /// returned result is identical either way.
  [[nodiscard]] BatchRunResult run(std::size_t count,
                                   const BatchResultSink& sink);

  /// Builds and simulates one instance on the calling thread through the
  /// per-instance path — the sequential reference the determinism and
  /// lane-equivalence tests compare against.
  [[nodiscard]] InstanceResult run_one(std::size_t instance) const;

  [[nodiscard]] std::size_t worker_count() const { return engine_.worker_count(); }

  /// The shared lane engine; nullptr unless constructed for `kCompiledLanes`.
  [[nodiscard]] const LaneEngine* lane_engine() const { return lane_engine_.get(); }

 private:
  BatchRunner(std::shared_ptr<const transfer::CompiledDesign> design,
              std::shared_ptr<const LaneEngine> lanes, BatchRunOptions options,
              BatchInputProvider inputs);

  ModelFactory factory_;
  BatchRunOptions options_;
  std::shared_ptr<const transfer::CompiledDesign> design_;
  BatchInputProvider inputs_;
  std::shared_ptr<const LaneEngine> lane_engine_;
  kernel::BatchEngine engine_;
};

/// Simulates an already-built model and snapshots its observable state.
/// Guarded: a simulation exception is caught at this boundary and reported
/// as `result.report` (status kError, message in the diagnostics) with the
/// registers snapshotted as they stood; a watchdog trip arrives the same
/// way with status kWatchdogTripped.
[[nodiscard]] InstanceResult run_instance(RtModel& model,
                                          const RunOptions& options = {});

}  // namespace ctrtl::rtl
