#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/scheduler.h"
#include "rtl/batch_runner.h"
#include "rtl/model.h"
#include "transfer/design.h"
#include "transfer/module_sim.h"
#include "transfer/schedule.h"

namespace ctrtl::rtl {

/// Lane-parallel compiled execution of many instances of ONE design.
///
/// `CompiledEngine` (PR 3) proved the six-phase control steps are fully
/// static and lowered a single model into straight-line per-delta-cycle
/// tables. This engine takes the next step for batch workloads: all
/// instances of a batch share one immutable `transfer::StaticSchedule` and
/// one compiled action table (lowered exactly once), while the per-instance
/// mutable state — signal values, sink contribution arrays with
/// non-DISC/ILLEGAL counters, module pipelines, register latches, conflict
/// records, kernel counters — is laid out structure-of-arrays with one
/// *lane* per instance. Every fire/release/resolve/latch action then runs
/// as a tight inner loop over contiguous lanes (branch-light by design: the
/// DISC/ILLEGAL resolution is counter arithmetic, not a scan), instead of
/// re-walking the schedule once per instance.
///
/// The engine object holds only the immutable tables, so one instance can
/// be shared read-only by any number of threads: `run_block` keeps all
/// mutable lane state on the caller's stack. `BatchRunner` shards a batch
/// into fixed-size lane blocks across its `kernel::BatchEngine` worker pool
/// (`BatchRunOptions::engine = BatchEngineKind::kCompiledLanes`).
///
/// Equivalence contract (same as PR 3, per lane): final register values,
/// conflicts with the event kernel's exact `(step, phase)` pinning *and
/// order*, and the delta_cycles/events/updates/transactions counters are
/// identical to an event-kernel run of the same instance. Verified by
/// `verify::check_engine_equivalence` and the differential sweep in
/// tests/verify/engine_equivalence_test.cpp.
class LaneEngine {
 public:
  /// Per-instance external inputs: `(input name, value)` pairs applied in
  /// order before control step 1 (the `RtModel::set_input` protocol).
  /// A null provider means no instance sets any input.
  using InputProvider = BatchInputProvider;

  /// Lowers the shared tables from the pre-compiled design. The
  /// `CompiledDesign` (and the schedule inside it) is retained read-only
  /// for the engine's lifetime.
  explicit LaneEngine(std::shared_ptr<const transfer::CompiledDesign> compiled);

  LaneEngine(const LaneEngine&) = delete;
  LaneEngine& operator=(const LaneEngine&) = delete;

  /// Simulates instances `first_instance .. first_instance + lanes - 1` in
  /// SoA lockstep and returns their results indexed by lane (so slot `i`
  /// is instance `first_instance + i`). Thread-safe: `const`, all mutable
  /// state is local to the call. `max_cycles` has `RtModel::run` semantics
  /// applied to every lane; `max_delta_cycles` arms the per-lane watchdog
  /// (`RunOptions::max_delta_cycles` semantics) — a trip marks the affected
  /// lanes' reports kWatchdogTripped with the same diagnostic the other
  /// engines emit, while already-quiescent lanes stay kOk.
  [[nodiscard]] std::vector<InstanceResult> run_block(
      std::size_t first_instance, std::size_t lanes,
      const InputProvider& inputs,
      std::uint64_t max_cycles = kernel::Scheduler::kNoLimit,
      std::uint64_t max_delta_cycles = kernel::Scheduler::kNoLimit) const;

  /// Sizes of the shared lowered tables (diagnostics, tests, tools).
  /// Everything here is per-design, independent of the lane count.
  struct TableStats {
    std::size_t cycles = 0;          ///< planned delta cycles incl. trailing
    std::size_t signals = 0;         ///< distinct signals in the value table
    std::size_t resolved_sinks = 0;  ///< distinct transfer sink signals
    std::size_t drivers = 0;         ///< total sink contributions per lane
    std::size_t fire_actions = 0;
    std::size_t release_actions = 0;
    std::size_t update_entries = 0;
    std::size_t modules = 0;
    std::size_t registers = 0;
  };
  [[nodiscard]] TableStats table_stats() const;

  [[nodiscard]] const transfer::CompiledDesign& compiled() const {
    return *compiled_;
  }

  /// The shared design the tables were lowered from.
  [[nodiscard]] const std::shared_ptr<const transfer::CompiledDesign>&
  compiled_ptr() const {
    return compiled_;
  }

 private:
  /// One transfer sink signal with its statically assigned drivers. The
  /// per-lane contribution values and resolution counters live in the
  /// block state; this holds only the shared layout.
  struct SinkSlot {
    std::uint32_t signal = 0;        ///< value-table index
    std::uint32_t contrib_base = 0;  ///< first row in the contribution table
    std::uint32_t drivers = 0;
  };

  struct FireAction {
    std::uint32_t slot = 0;
    std::uint32_t driver = 0;
    std::uint32_t source = 0;  ///< value-table index
  };

  struct ReleaseAction {
    std::uint32_t slot = 0;
    std::uint32_t driver = 0;
  };

  struct UpdateEntry {
    enum class Kind : std::uint8_t {
      kSink,         ///< re-resolve sink slot `index` (conflict-monitored)
      kModuleOut,    ///< module `index` output takes its pending value
      kRegisterOut,  ///< register `index` output takes its latch, if dirty
    };
    Kind kind = Kind::kSink;
    std::uint32_t index = 0;
  };

  /// Everything one delta cycle does, precomputed and shared by all lanes.
  /// CS/PH assignments never carry lane-varying state, so they are folded
  /// into the lane-uniform counter increments instead of update entries.
  struct CyclePlan {
    std::vector<UpdateEntry> updates;
    std::vector<FireAction> fires;
    std::vector<ReleaseAction> releases;
    bool eval_modules = false;
    bool latch_registers = false;
    unsigned step = 0;
    Phase phase = Phase::kRa;
    /// Counter increments identical for every lane this cycle: updates from
    /// CS/PH/sink/module-out entries, events from CS/PH (each assignment on
    /// the phase wheel changes the value), transactions from
    /// fires/releases/module evaluations/controller drives.
    std::uint32_t uniform_updates = 0;
    std::uint32_t uniform_events = 0;
    std::uint32_t uniform_transactions = 0;
  };

  struct ModuleTable {
    const transfer::ModuleDecl* decl = nullptr;
    std::vector<std::uint32_t> inputs;  ///< value-table indices
    std::uint32_t op = kNoSignal;
    std::uint32_t out = 0;
  };

  struct RegisterTable {
    const transfer::RegisterDecl* decl = nullptr;
    std::uint32_t in = 0;
    std::uint32_t out = 0;
  };

  static constexpr std::uint32_t kNoSignal = 0xffffffffu;

  struct LaneBlock;  // mutable SoA state, defined in the .cpp

  void execute_cycle(std::uint64_t ordinal, LaneBlock& block) const;

  std::shared_ptr<const transfer::CompiledDesign> compiled_;
  std::vector<std::string> signal_names_;
  std::vector<RtValue> signal_initial_;
  std::unordered_map<std::string, std::uint32_t> input_index_;

  std::vector<SinkSlot> slots_;
  std::uint32_t total_drivers_ = 0;
  std::vector<ModuleTable> modules_;
  std::vector<RegisterTable> registers_;
  std::vector<std::uint32_t> preloaded_registers_;
  std::vector<RtValue> preload_values_;

  /// plan_[d] is delta-cycle ordinal d (1-based; plan_[0] unused). The last
  /// entry is the trailing cycle that applies the final `cr` latches.
  std::vector<CyclePlan> plan_;
  std::uint64_t wheel_cycles_ = 0;  ///< cs_max * kPhasesPerStep
  bool trailing_has_static_updates_ = false;
  std::size_t init_transactions_ = 0;
};

}  // namespace ctrtl::rtl
