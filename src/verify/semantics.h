#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "rtl/model.h"
#include "transfer/design.h"
#include "transfer/tuple.h"

namespace ctrtl::verify {

/// Result of the reference evaluation of a design.
struct EvalResult {
  /// Final register values after cs_max control steps.
  std::map<std::string, rtl::RtValue> registers;
  /// ILLEGAL events in (step, phase) order — same records the simulator's
  /// conflict monitor produces.
  std::vector<rtl::Conflict> conflicts;
  /// What a delta-cycle-faithful simulation must cost: cs_max * 6, plus
  /// one trailing delta cycle when the final step latches a register or
  /// releases a `wb` sink.
  std::uint64_t expected_delta_cycles = 0;
};

/// One driven-sink resolution of the reference transition system: the sink
/// was driven (>= 1 contribution) at `pred(visible_phase)` of `step` and
/// the resolved value becomes visible at `visible_phase`. Streamed to the
/// `ResolutionObserver` of `evaluate` — this is how the conflict-oracle
/// comparison mode sees every concrete DISC/value/ILLEGAL outcome, not just
/// the ILLEGAL transitions the conflict record keeps.
struct Resolution {
  std::string sink;
  unsigned step = 0;
  rtl::Phase visible_phase = rtl::Phase::kRb;
  rtl::RtValue value;
};

using ResolutionObserver = std::function<void(const Resolution&)>;

/// The paper's *dedicated formal semantics* of register transfer models
/// (section 2.7), implemented as a direct transition system over
/// (step, phase) — deliberately **without** the event-driven kernel.
///
/// Each control step evaluates its six phases in order; a value driven by a
/// TRANS instance at phase p is visible at phase succ(p); buses and ports
/// resolve contributions with the section 2.3 function; modules compute at
/// `cm` with their pipeline discipline; registers latch at `cr`.
///
/// The property test `semantics == simulation` realizes the paper's claim
/// that "the close relationship of the register transfer model to the VHDL
/// simulation delta cycle allows to prove the consistency of the dedicated
/// semantics ... with VHDL simulation semantics".
///
/// Throws std::invalid_argument when the design does not validate.
[[nodiscard]] EvalResult evaluate(
    const transfer::Design& design,
    const std::map<std::string, std::int64_t>& inputs = {});

/// Same transition system over an explicit TRANS instance stream instead of
/// the design's own tuples — the fault-injection and generated-corpus entry
/// point (a `fault::FaultPlan` or a generator emits the stream directly).
/// `observer`, when non-null, receives every driven-sink resolution in
/// execution order (see `Resolution`).
[[nodiscard]] EvalResult evaluate(
    const transfer::Design& design,
    std::span<const transfer::TransInstance> instances,
    const std::map<std::string, std::int64_t>& inputs = {},
    const ResolutionObserver& observer = nullptr);

}  // namespace ctrtl::verify
