#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "gen.h"
#include "kernel/stats.h"
#include "transfer/design.h"

/// The paper's claim 4 (section 2.7): one design built and run, in-process,
/// on each of the four execution models.
namespace perfbench {

enum class Model : std::uint8_t {
  kClockfree,  ///< paper-faithful event-kernel model (kProcessPerTransfer)
  kCompiled,   ///< compiled single-instance model (kCompiled)
  kHandshake,  ///< baseline::HandshakeModel
  kClocked,    ///< baseline::ClockedRtlSim over clocked::plan_translation
};

inline constexpr std::array<Model, 4> kModels = {
    Model::kClockfree, Model::kCompiled, Model::kHandshake, Model::kClocked};

[[nodiscard]] std::string_view model_name(Model model);

struct ModelRun {
  double plan_ns = 0;  ///< clocked::plan_translation (kClocked only)
  double elab_ns = 0;  ///< model construction (after planning)
  double run_ns = 0;
  /// Control steps for the clock-free models, clock cycles for kClocked.
  std::uint64_t steps = 0;
  ctrtl::kernel::KernelStats stats;
  /// Every final register equals the generator's expectation.
  bool registers_ok = false;
};

/// Builds and runs `design` on `model`. Build time is `plan_ns + elab_ns`.
[[nodiscard]] ModelRun run_model(Model model,
                                 const ctrtl::transfer::Design& design,
                                 const GenDesign& expected);

}  // namespace perfbench
