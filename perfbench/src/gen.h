#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

/// The benchmark's own seeded design generator. It writes `.rtd` text and
/// works out each design's final registers and conflict records while it
/// schedules the transfers, so the benchmark needs neither the library's
/// generators nor its evaluators to know the right answer.
namespace perfbench {

struct GenConfig {
  /// Register transfers in the main schedule.
  unsigned transfers = 48;
  /// Transfers started per control step; each gets its own add/sub module
  /// pair and three buses, so the schedule is conflict-free by construction.
  unsigned parallel = 1;
  /// Data registers (raised to `2 * parallel + 2` when smaller).
  unsigned registers = 8;
  /// Appends two transfers that share one write bus into two dead registers,
  /// which must produce exactly three conflict records.
  bool inject_conflict = false;
};

struct GenDesign {
  /// Everything after the `design <name>` line.
  std::string body;
  unsigned cs_max = 0;
  unsigned transfers = 0;
  bool has_conflict = false;
  /// Expected final (register, rendered value) pairs in declaration order.
  std::vector<std::pair<std::string, std::string>> registers;
  /// Expected conflict records as `rtl::to_string(Conflict)`, sorted.
  std::vector<std::string> conflicts;

  /// The full `.rtd` source under `name`. The name is part of the design's
  /// cache key, so renaming gives a distinct design with identical results.
  [[nodiscard]] std::string text(const std::string& name) const {
    return "design " + name + "\n" + body;
  }
};

[[nodiscard]] GenDesign generate(std::mt19937_64& rng, const GenConfig& config);

}  // namespace perfbench
