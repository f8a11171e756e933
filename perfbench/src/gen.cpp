#include "gen.h"

#include <algorithm>
#include <sstream>

#include "rtl/model.h"

namespace perfbench {

namespace {

/// Sums stay below this; a larger sum is computed as a difference instead,
/// so every value is a natural number far from int64 overflow.
constexpr std::int64_t kValueLimit = std::int64_t{1} << 40;
constexpr unsigned kConstants = 4;

struct Operand {
  std::string text;  // .rtd source field
  std::int64_t value = 0;
};

}  // namespace

GenDesign generate(std::mt19937_64& rng, const GenConfig& config) {
  const auto draw = [&](std::uint64_t lo, std::uint64_t hi) {
    return lo + rng() % (hi - lo + 1);
  };
  const unsigned parallel = std::max(1u, config.parallel);
  const unsigned num_regs = std::max(config.registers, 2 * parallel + 2);
  const unsigned steps = (config.transfers + parallel - 1) / parallel;

  GenDesign out;
  out.has_conflict = config.inject_conflict;
  // The last write lands one step before cs_max: a write in the final step
  // releases its bus in a trailing delta cycle, past cs_max * 6.
  out.cs_max = steps + 2 + (config.inject_conflict ? 1 : 0);

  std::vector<std::int64_t> value(num_regs);
  std::vector<std::int64_t> constant(kConstants);
  std::ostringstream text;
  text << "cs_max " << out.cs_max << '\n';
  for (unsigned r = 0; r < num_regs; ++r) {
    value[r] = static_cast<std::int64_t>(draw(1, 999));
    text << "register R" << r << " init " << value[r] << '\n';
  }
  if (config.inject_conflict) {
    text << "register D0 init 0\nregister D1 init 0\n";
  }
  for (unsigned b = 0; b < 3 * parallel; ++b) {
    text << "bus B" << b << '\n';
  }
  if (config.inject_conflict) {
    text << "bus X0\nbus X1\nbus X2\nbus X3\nbus XW\n";
  }
  for (unsigned k = 0; k < kConstants; ++k) {
    constant[k] = static_cast<std::int64_t>(draw(1, 99));
    text << "constant K" << k << ' ' << constant[k] << '\n';
  }
  for (unsigned j = 0; j < parallel; ++j) {
    text << "module A" << j << " add latency 1\n";
    text << "module S" << j << " sub latency 1\n";
  }
  if (config.inject_conflict) {
    text << "module XA0 add latency 1\nmodule XA1 add latency 1\n";
  }

  // Slot j of a step reads over B(3j), B(3j+1) at step s and writes over
  // B(3j+2) at s+1, so no bus carries two values in one phase. A value
  // written at step s latches at s's `cr`, after that step's reads.
  // Sources skip registers whose write lands in the read step and the
  // destinations of the step's own transfers: the handshake baseline runs
  // transfers one after another and would read the new value (it matches
  // the clock-free model only on such hazard-free schedules).
  std::vector<unsigned> readable;
  const auto register_operand = [&] {
    const unsigned r = readable[draw(0, readable.size() - 1)];
    return Operand{"R" + std::to_string(r), value[r]};
  };
  std::vector<std::pair<unsigned, std::int64_t>> pending;
  std::vector<unsigned> order(num_regs);
  unsigned remaining = config.transfers;
  for (unsigned step = 1; step <= steps; ++step) {
    const unsigned launch = std::min(parallel, remaining);
    remaining -= launch;
    for (unsigned r = 0; r < num_regs; ++r) {
      order[r] = r;
    }
    std::shuffle(order.begin(), order.end(), rng);
    readable.clear();
    for (unsigned r = 0; r < num_regs; ++r) {
      const bool written =
          std::any_of(pending.begin(), pending.end(),
                      [&](const auto& write) { return write.first == r; }) ||
          std::find(order.begin(), order.begin() + launch, r) != order.begin() + launch;
      if (!written) {
        readable.push_back(r);
      }
    }
    std::vector<std::pair<unsigned, std::int64_t>> launched;
    for (unsigned j = 0; j < launch; ++j) {
      Operand a = register_operand();
      Operand b;
      if (draw(0, 3) == 0) {
        const unsigned k = static_cast<unsigned>(draw(0, kConstants - 1));
        b = Operand{"%K" + std::to_string(k), constant[k]};
      } else {
        b = register_operand();
      }
      std::string module = "A" + std::to_string(j);
      std::int64_t result = a.value + b.value;
      if (result > kValueLimit) {
        if (a.value < b.value) {
          std::swap(a, b);
        }
        module = "S" + std::to_string(j);
        result = a.value - b.value;
      }
      const unsigned dst = order[j];
      text << "transfer " << a.text << " B" << 3 * j << ' ' << b.text << " B"
           << 3 * j + 1 << ' ' << step << ' ' << module << ' ' << step + 1
           << " B" << 3 * j + 2 << " R" << dst << '\n';
      launched.emplace_back(dst, result);
      ++out.transfers;
    }
    for (const auto& [r, v] : pending) {
      value[r] = v;
    }
    pending = std::move(launched);
  }
  for (const auto& [r, v] : pending) {
    value[r] = v;
  }

  for (unsigned r = 0; r < num_regs; ++r) {
    out.registers.emplace_back("R" + std::to_string(r), std::to_string(value[r]));
  }
  if (config.inject_conflict) {
    // Both results meet on XW at `wa`: XW resolves ILLEGAL at `wb`, and each
    // destination port then sees ILLEGAL at `cr` and latches it.
    const unsigned read = steps + 1;
    const unsigned write = read + 1;
    text << "transfer R0 X0 R1 X1 " << read << " XA0 " << write << " XW D0\n";
    text << "transfer R1 X2 R0 X3 " << read << " XA1 " << write << " XW D1\n";
    out.transfers += 2;
    out.registers.emplace_back("D0", "ILLEGAL");
    out.registers.emplace_back("D1", "ILLEGAL");
    for (const auto& [signal, phase] :
         {std::pair{"XW", ctrtl::rtl::Phase::kWb},
          std::pair{"D0.in", ctrtl::rtl::Phase::kCr},
          std::pair{"D1.in", ctrtl::rtl::Phase::kCr}}) {
      out.conflicts.push_back(ctrtl::rtl::to_string(
          ctrtl::rtl::Conflict{signal, write, phase}));
    }
    std::sort(out.conflicts.begin(), out.conflicts.end());
  }
  out.body = text.str();
  return out;
}

}  // namespace perfbench
