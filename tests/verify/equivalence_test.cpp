#include "verify/equivalence.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "transfer/build.h"
#include "transfer/conflict.h"
#include "verify/random_design.h"

namespace ctrtl::verify {
namespace {

using transfer::Design;
using transfer::ModuleKind;
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

TEST(Consistency, Fig1SemanticsMatchesSimulation) {
  const CheckReport report = check_consistency(fig1_design());
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(Consistency, DeltaCyclesMatchExactlyWithAndWithoutAFinalStepWrite) {
  // Stock fig1 writes R1 in step 6 and leaves step 7 idle: 7 * 6 deltas.
  // At cs_max 6 the write lands in the final step, whose latch and wb
  // release cost one trailing delta: 6 * 6 + 1.
  for (const auto& [cs_max, deltas] :
       {std::pair<unsigned, std::uint64_t>{7, 42}, {6, 37}}) {
    Design d = fig1_design();
    d.cs_max = cs_max;
    EXPECT_EQ(evaluate(d).expected_delta_cycles, deltas) << "cs_max " << cs_max;
    EXPECT_EQ(transfer::build_model(d)->run().stats.delta_cycles, deltas)
        << "cs_max " << cs_max;
    const CheckReport report = check_consistency(d);
    EXPECT_TRUE(report.consistent()) << report.to_text();
  }
}

TEST(Consistency, ConflictingDesignStillConsistent) {
  // Consistency is about semantics == simulation, including for *broken*
  // schedules: both sides must report the identical conflicts.
  Design d = fig1_design();
  d.transfers[0].operand_b->bus = "B1";
  const CheckReport report = check_consistency(d);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(Consistency, InputsFlowToBothSides) {
  Design d;
  d.cs_max = 3;
  d.registers = {{"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.inputs = {{"x_in"}, {"y_in"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1}};
  RegisterTransfer t;
  t.operand_a = transfer::OperandPath{transfer::Endpoint::input("x_in"), "B1"};
  t.operand_b = transfer::OperandPath{transfer::Endpoint::input("y_in"), "B2"};
  t.read_step = 1;
  t.module = "ADD";
  t.write_step = 2;
  t.write_bus = "B1";
  t.destination = "OUT";
  d.transfers = {t};
  const CheckReport report = check_consistency(d, {{"x_in", 20}, {"y_in", 22}});
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

// --- The paper's consistency theorem, randomized -------------------------------

class ConsistencyProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConsistencyProperty, CleanRandomDesigns) {
  RandomDesignOptions options;
  options.seed = static_cast<std::uint32_t>(GetParam());
  options.num_transfers = 4 + static_cast<unsigned>(GetParam() % 10);
  options.use_alu = GetParam() % 2 == 0;
  const Design design = random_design(options);
  const CheckReport report = check_consistency(design);
  EXPECT_TRUE(report.consistent())
      << "seed " << GetParam() << ":\n"
      << report.to_text();
}

TEST_P(ConsistencyProperty, ConflictingRandomDesigns) {
  RandomDesignOptions options;
  options.seed = static_cast<std::uint32_t>(GetParam()) + 1000;
  options.num_transfers = 4 + static_cast<unsigned>(GetParam() % 10);
  options.inject_conflicts = true;
  const Design design = random_design(options);
  const CheckReport report = check_consistency(design);
  EXPECT_TRUE(report.consistent())
      << "seed " << GetParam() << ":\n"
      << report.to_text();
}

TEST_P(ConsistencyProperty, InjectedConflictIsDetectedByBothSides) {
  RandomDesignOptions options;
  options.seed = static_cast<std::uint32_t>(GetParam()) + 2000;
  options.inject_conflicts = true;
  const Design design = random_design(options);
  const EvalResult reference = evaluate(design);
  EXPECT_FALSE(reference.conflicts.empty())
      << "injected conflict must surface in the reference semantics";
  // And the static analyzer must have predicted at least one drive conflict.
  const transfer::AnalysisReport analysis = transfer::analyze(design);
  EXPECT_FALSE(analysis.drive_conflicts.empty());
}

TEST_P(ConsistencyProperty, StaticCleanImpliesDynamicClean) {
  RandomDesignOptions options;
  options.seed = static_cast<std::uint32_t>(GetParam()) + 3000;
  options.num_transfers = 6;
  const Design design = random_design(options);
  const transfer::AnalysisReport analysis = transfer::analyze(design);
  ASSERT_TRUE(analysis.clean());
  const EvalResult reference = evaluate(design);
  EXPECT_TRUE(reference.conflicts.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyProperty, ::testing::Range(1, 26));

// --- compare_write_traces -------------------------------------------------------

TEST(CompareWriteTraces, IdenticalTracesConsistent) {
  const std::vector<RegisterWrite> trace = {
      {1, "R1", rtl::RtValue::of(5)}, {2, "R2", rtl::RtValue::of(7)}};
  EXPECT_TRUE(compare_write_traces(trace, trace).consistent());
}

TEST(CompareWriteTraces, ValueMismatchReported) {
  const std::vector<RegisterWrite> a = {{1, "R1", rtl::RtValue::of(5)}};
  const std::vector<RegisterWrite> b = {{1, "R1", rtl::RtValue::of(6)}};
  const CheckReport report = compare_write_traces(a, b);
  ASSERT_EQ(report.mismatches.size(), 1u);
  EXPECT_NE(report.mismatches[0].find("R1"), std::string::npos);
}

TEST(CompareWriteTraces, LengthMismatchReported) {
  const std::vector<RegisterWrite> a = {{1, "R1", rtl::RtValue::of(5)}};
  EXPECT_FALSE(compare_write_traces(a, {}).consistent());
}

TEST(CompareWriteTraces, PreloadIgnorable) {
  const std::vector<RegisterWrite> with_preload = {
      {0, "R1", rtl::RtValue::of(1)}, {2, "R2", rtl::RtValue::of(7)}};
  const std::vector<RegisterWrite> without = {{2, "R2", rtl::RtValue::of(7)}};
  EXPECT_FALSE(compare_write_traces(with_preload, without).consistent());
  EXPECT_TRUE(
      compare_write_traces(with_preload, without, /*ignore_preload=*/true)
          .consistent());
}

}  // namespace
}  // namespace ctrtl::verify
