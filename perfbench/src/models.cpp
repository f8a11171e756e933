#include "models.h"

#include <chrono>

#include "baseline/clocked_rtl.h"
#include "baseline/handshake.h"
#include "clocked/translate.h"
#include "transfer/build.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double nanos_since(Clock::time_point from) {
  return std::chrono::duration<double, std::nano>(Clock::now() - from).count();
}

template <typename ValueOf>
bool registers_match(const GenDesign& expected, ValueOf value_of) {
  for (const auto& [name, value] : expected.registers) {
    if (ctrtl::rtl::to_string(value_of(name)) != value) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view model_name(Model model) {
  switch (model) {
    case Model::kClockfree:
      return "clockfree";
    case Model::kCompiled:
      return "compiled";
    case Model::kHandshake:
      return "handshake";
    case Model::kClocked:
      return "clocked";
  }
  return "?";
}

ModelRun run_model(Model model, const ctrtl::transfer::Design& design,
                   const GenDesign& expected) {
  ModelRun out;
  Clock::time_point start = Clock::now();
  switch (model) {
    case Model::kClockfree:
    case Model::kCompiled: {
      auto rt = ctrtl::transfer::build_model(
          design, model == Model::kClockfree
                      ? ctrtl::rtl::TransferMode::kProcessPerTransfer
                      : ctrtl::rtl::TransferMode::kCompiled);
      out.elab_ns = nanos_since(start);
      start = Clock::now();
      const ctrtl::rtl::RunResult result = rt->run();
      out.run_ns = nanos_since(start);
      out.stats = result.stats;
      out.steps = rt->cs_max();
      out.registers_ok = registers_match(expected, [&](const std::string& name) {
        return rt->find_register(name)->value();
      });
      break;
    }
    case Model::kHandshake: {
      ctrtl::baseline::HandshakeModel hs(design);
      out.elab_ns = nanos_since(start);
      start = Clock::now();
      const auto result = hs.run();
      out.run_ns = nanos_since(start);
      out.stats = result.stats;
      out.steps = design.cs_max;
      out.registers_ok = registers_match(expected, [&](const std::string& name) {
        return hs.register_value(name);
      });
      break;
    }
    case Model::kClocked: {
      const ctrtl::clocked::TranslationPlan plan =
          ctrtl::clocked::plan_translation(design);
      out.plan_ns = nanos_since(start);
      start = Clock::now();
      ctrtl::baseline::ClockedRtlSim sim(plan);
      out.elab_ns = nanos_since(start);
      start = Clock::now();
      const auto result = sim.run();
      out.run_ns = nanos_since(start);
      out.stats = result.stats;
      out.steps = result.clock_cycles;
      out.registers_ok = registers_match(expected, [&](const std::string& name) {
        return sim.register_value(name);
      });
      break;
    }
  }
  return out;
}

}  // namespace perfbench
