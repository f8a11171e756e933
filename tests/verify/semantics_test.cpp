#include "verify/semantics.h"

#include <gtest/gtest.h>

#include "rtl/modules.h"

namespace ctrtl::verify {
namespace {

using transfer::Design;
using transfer::Endpoint;
using transfer::ModuleKind;
using transfer::OperandPath;
using transfer::RegisterTransfer;

Design fig1_design() {
  Design d;
  d.name = "fig1";
  d.cs_max = 7;
  d.registers = {{"R1", 30}, {"R2", 12}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1}};
  d.transfers = {
      RegisterTransfer::full("R1", "B1", "R2", "B2", 5, "ADD", 6, "B1", "R1")};
  return d;
}

TEST(Semantics, Fig1FinalRegisters) {
  const EvalResult result = evaluate(fig1_design());
  EXPECT_EQ(result.registers.at("R1"), rtl::RtValue::of(42));
  EXPECT_EQ(result.registers.at("R2"), rtl::RtValue::of(12));
  EXPECT_TRUE(result.conflicts.empty());
  EXPECT_EQ(result.expected_delta_cycles, 42u);
}

TEST(Semantics, Fig1WithItsWriteInTheFinalStepCostsOneTrailingDelta) {
  // examples/rtd/fig1.rtd at cs_max 6: R1 latches at the last cr and its
  // wb driver releases after it, so the engines run 6 * 6 + 1 deltas.
  Design d = fig1_design();
  d.cs_max = 6;
  const EvalResult result = evaluate(d);
  EXPECT_EQ(result.registers.at("R1"), rtl::RtValue::of(42));
  EXPECT_EQ(result.expected_delta_cycles, 37u);
}

TEST(Semantics, UninitializedOperandPoisonsModule) {
  Design d = fig1_design();
  d.registers[0].initial.reset();  // R1 never loaded
  const EvalResult result = evaluate(d);
  // The ADD sees (DISC, 12) at cm — mixed operands violate the paper's
  // both-or-neither discipline, so it computes ILLEGAL, which the register
  // then latches at step 6.
  EXPECT_TRUE(result.registers.at("R1").is_illegal());
}

TEST(Semantics, ConflictLocatedExactly) {
  Design d = fig1_design();
  // Route both operands over B1 in step 5.
  d.transfers[0].operand_b->bus = "B1";
  const EvalResult result = evaluate(d);
  ASSERT_FALSE(result.conflicts.empty());
  EXPECT_EQ(result.conflicts[0], (rtl::Conflict{"B1", 5, rtl::Phase::kRb}));
}

TEST(Semantics, IllegalPropagatesThroughModuleToRegister) {
  Design d = fig1_design();
  d.transfers[0].operand_b->bus = "B1";
  const EvalResult result = evaluate(d);
  EXPECT_TRUE(result.registers.at("R1").is_illegal())
      << "ILLEGAL operands -> ILLEGAL module result -> latched";
  // Secondary conflicts appear where the ILLEGAL value transits.
  bool saw_secondary = false;
  for (const rtl::Conflict& conflict : result.conflicts) {
    if (conflict.step == 6) {
      saw_secondary = true;
    }
  }
  EXPECT_TRUE(saw_secondary);
}

TEST(Semantics, PipelinedModuleLatency) {
  Design d;
  d.cs_max = 6;
  d.registers = {{"A", 6}, {"B", 7}, {"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"MUL", ModuleKind::kMul, 2, 0}};
  d.transfers = {
      RegisterTransfer::full("A", "B1", "B", "B2", 1, "MUL", 3, "B1", "OUT")};
  const EvalResult result = evaluate(d);
  EXPECT_EQ(result.registers.at("OUT"), rtl::RtValue::of(42));
}

TEST(Semantics, ChainedStepsReuseModule) {
  Design d;
  d.cs_max = 5;
  d.registers = {{"A", 10}, {"B", 20}, {"C", 12}, {"T", std::nullopt},
                 {"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1}};
  d.transfers = {
      RegisterTransfer::full("A", "B1", "B", "B2", 1, "ADD", 2, "B1", "T"),
      RegisterTransfer::full("T", "B1", "C", "B2", 3, "ADD", 4, "B1", "OUT"),
  };
  const EvalResult result = evaluate(d);
  EXPECT_EQ(result.registers.at("OUT"), rtl::RtValue::of(42));
  EXPECT_TRUE(result.conflicts.empty());
}

TEST(Semantics, AluWithOpCode) {
  Design d;
  d.cs_max = 3;
  d.registers = {{"A", 9}, {"B", 4}, {"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"ALU", ModuleKind::kAlu, 1}};
  d.transfers = {RegisterTransfer::full("A", "B1", "B", "B2", 1, "ALU", 2, "B1",
                                        "OUT", rtl::alu_ops::kSub)};
  const EvalResult result = evaluate(d);
  EXPECT_EQ(result.registers.at("OUT"), rtl::RtValue::of(5));
}

TEST(Semantics, MaccAccumulates) {
  Design d;
  d.cs_max = 5;
  d.registers = {{"A", 3}, {"B", 4}, {"C", 5}, {"D", 6}, {"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}, {"B3"}};
  d.modules = {{"MACC", ModuleKind::kMacc, 1, 0}};
  RegisterTransfer clear;
  clear.read_step = 1;
  clear.module = "MACC";
  clear.op = rtl::MaccModule::kOpClear;
  d.transfers = {
      clear,
      RegisterTransfer::full("A", "B1", "B", "B2", 2, "MACC", 3, "B3", "OUT",
                             rtl::MaccModule::kOpMac),
      RegisterTransfer::full("C", "B1", "D", "B2", 3, "MACC", 4, "B3", "OUT",
                             rtl::MaccModule::kOpMac),
  };
  const EvalResult result = evaluate(d);
  EXPECT_EQ(result.registers.at("OUT"), rtl::RtValue::of(42));  // 3*4 + 5*6
}

TEST(Semantics, ConstantAndInputSources) {
  Design d;
  d.cs_max = 3;
  d.registers = {{"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.constants = {{"two", 2}};
  d.inputs = {{"x_in"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1}};
  RegisterTransfer t;
  t.operand_a = OperandPath{Endpoint::constant("two"), "B1"};
  t.operand_b = OperandPath{Endpoint::input("x_in"), "B2"};
  t.read_step = 1;
  t.module = "ADD";
  t.write_step = 2;
  t.write_bus = "B1";
  t.destination = "OUT";
  d.transfers = {t};
  const EvalResult result = evaluate(d, {{"x_in", 40}});
  EXPECT_EQ(result.registers.at("OUT"), rtl::RtValue::of(42));
}

TEST(Semantics, UnsetInputIsDisc) {
  Design d;
  d.cs_max = 2;
  d.registers = {{"OUT", std::nullopt}};
  d.buses = {{"B1"}};
  d.inputs = {{"x_in"}};
  d.modules = {{"CP", ModuleKind::kCopy, 0}};
  RegisterTransfer t;
  t.operand_a = OperandPath{Endpoint::input("x_in"), "B1"};
  t.read_step = 1;
  t.module = "CP";
  t.write_step = 1;
  t.write_bus = "B1";
  t.destination = "OUT";
  d.transfers = {t};
  const EvalResult result = evaluate(d);
  EXPECT_TRUE(result.registers.at("OUT").is_disc());
}

TEST(Semantics, InvalidDesignThrows) {
  Design d = fig1_design();
  d.transfers[0].module = "NOPE";
  EXPECT_THROW(evaluate(d), std::invalid_argument);
}

TEST(Semantics, SharedBusAcrossPhasesIsClean) {
  // Write bus B1 reused as read bus within the same step window — the
  // single-phase transfer windows never overlap.
  const EvalResult result = evaluate(fig1_design());
  EXPECT_TRUE(result.conflicts.empty());
}

}  // namespace
}  // namespace ctrtl::verify
