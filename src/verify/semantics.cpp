#include "verify/semantics.h"

#include <optional>
#include <stdexcept>

#include "transfer/mapping.h"
#include "transfer/module_sim.h"
#include "transfer/walk.h"

namespace ctrtl::verify {

namespace {

using rtl::Phase;
using rtl::RtValue;
using transfer::Endpoint;
using transfer::ModuleSim;
using transfer::TransInstance;

}  // namespace

EvalResult evaluate(const transfer::Design& design,
                    const std::map<std::string, std::int64_t>& inputs) {
  return evaluate(design, transfer::to_instances(design.transfers), inputs);
}

EvalResult evaluate(const transfer::Design& design,
                    std::span<const TransInstance> instances,
                    const std::map<std::string, std::int64_t>& inputs,
                    const ResolutionObserver& observer) {
  common::DiagnosticBag diags;
  if (!validate(design, diags)) {
    throw std::invalid_argument("reference semantics: design does not validate:\n" +
                                diags.to_text());
  }

  // --- static state ----------------------------------------------------------
  std::map<std::string, RtValue> registers;
  for (const transfer::RegisterDecl& reg : design.registers) {
    registers[reg.name] = reg.initial.has_value() ? RtValue::of(*reg.initial)
                                                  : RtValue::disc();
  }
  std::map<std::string, RtValue> constants;
  for (const transfer::ConstantDecl& constant : design.constants) {
    constants[constant.name] = RtValue::of(constant.value);
  }
  std::map<std::string, RtValue> input_values;
  for (const transfer::InputDecl& input : design.inputs) {
    const auto it = inputs.find(input.name);
    input_values[input.name] =
        it == inputs.end() ? RtValue::disc() : RtValue::of(it->second);
  }
  std::map<std::string, ModuleSim> modules;
  for (const transfer::ModuleDecl& module : design.modules) {
    modules.emplace(module.name, ModuleSim(module));
  }

  const transfer::InstanceWalker walker(instances, design.cs_max);

  EvalResult result;
  result.expected_delta_cycles =
      static_cast<std::uint64_t>(design.cs_max) * rtl::kPhasesPerStep;
  // The final step leaves work for one trailing delta cycle when a `wb`
  // driver's release falls after the last `cr`, or (below) when a register
  // latches at the last `cr` and its output update is still pending.
  bool trailing_cycle =
      design.cs_max > 0 && !walker.fires(design.cs_max, Phase::kWb).empty();

  // Transfer-driven sink values visible at the phase being evaluated.
  // While computing phase p, `visible` still holds the pred(p) values —
  // exactly what an instance firing at pred(p) reads from a bus source.
  std::map<std::string, RtValue> visible;

  const auto source_value = [&](const Endpoint& source) -> RtValue {
    switch (source.kind) {
      case Endpoint::Kind::kRegisterOut:
        return registers.at(source.resource);
      case Endpoint::Kind::kConstant: {
        const auto it = constants.find(source.resource);
        if (it != constants.end()) {
          return it->second;
        }
        // Implicit op-code constants.
        std::int64_t code = 0;
        if (transfer::parse_op_constant_name(source.resource, code)) {
          return RtValue::of(code);
        }
        throw std::logic_error("reference semantics: unknown constant '" +
                               source.resource + "'");
      }
      case Endpoint::Kind::kInput:
        return input_values.at(source.resource);
      case Endpoint::Kind::kModuleOut:
        return modules.at(source.resource).out();
      case Endpoint::Kind::kBus: {
        const auto it = visible.find(source.resource);
        return it == visible.end() ? RtValue::disc() : it->second;
      }
      default:
        throw std::logic_error("reference semantics: bad source endpoint");
    }
  };

  for (unsigned step = 1; step <= design.cs_max; ++step) {
    for (int phase_index = 0; phase_index < rtl::kPhasesPerStep; ++phase_index) {
      const Phase phase = rtl::phase_from_index(phase_index);

      // 1. Resolve every transfer-driven sink visible at this phase: the
      //    contributions come from instances that fired in the previous
      //    phase of the same step.
      std::map<std::string, std::vector<RtValue>> contributions;
      if (phase != rtl::kPhaseLow) {
        for (const TransInstance* instance :
             walker.fires(step, rtl::pred(phase))) {
          contributions[to_string(instance->sink)].push_back(
              source_value(instance->source));
        }
      }
      std::map<std::string, RtValue> next_visible;
      for (const auto& [sink, values] : contributions) {
        next_visible[sink] = rtl::resolve_rt(values);
      }
      // Conflict events: a monitored sink changing *to* ILLEGAL.
      for (const auto& [sink, value] : next_visible) {
        if (observer) {
          observer(Resolution{sink, step, phase, value});
        }
        if (!value.is_illegal()) {
          continue;
        }
        const auto prev_it = visible.find(sink);
        const bool was_illegal =
            prev_it != visible.end() && prev_it->second.is_illegal();
        if (!was_illegal) {
          result.conflicts.push_back(rtl::Conflict{sink, step, phase});
        }
      }
      visible = std::move(next_visible);

      // 2. Phase actions.
      if (phase == Phase::kCm) {
        for (auto& [name, module] : modules) {
          std::vector<RtValue> operands(module.decl().num_inputs(),
                                        RtValue::disc());
          for (unsigned port = 0; port < operands.size(); ++port) {
            const auto it =
                visible.find(to_string(Endpoint::module_in(name, port)));
            if (it != visible.end()) {
              operands[port] = it->second;
            }
          }
          RtValue op = RtValue::disc();
          if (module.decl().has_op_port()) {
            const auto it = visible.find(to_string(Endpoint::module_op(name)));
            if (it != visible.end()) {
              op = it->second;
            }
          }
          module.step(operands, op);
        }
      } else if (phase == Phase::kCr) {
        for (auto& [name, value] : registers) {
          const auto it = visible.find(to_string(Endpoint::register_in(name)));
          if (it != visible.end() && !it->second.is_disc()) {
            value = it->second;
            trailing_cycle = trailing_cycle || step == design.cs_max;
          }
        }
      }
    }
    // Between steps every single-phase transfer window has closed: the
    // next step's `ra` phase sees all transfer-driven sinks at DISC.
    visible.clear();
  }

  if (trailing_cycle) {
    ++result.expected_delta_cycles;
  }
  result.registers = std::move(registers);
  return result;
}

}  // namespace ctrtl::verify
