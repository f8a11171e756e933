// perfbench_load — the load program of the repository benchmark.
//
//   perfbench_load --workload <serve_warm|serve_cold|serve_bulk|claim4>
//                  --seed N --seconds S --trace 0|1
//                  --server PATH --workdir DIR [--selftest]
//
// Every workload has two parts. A served part starts the real `ctrtl_serve`
// binary, boots it from a snapshot journal, and drives it over its Unix
// socket from closed-loop client threads. A model part builds and runs the
// workload's conflict-free designs in-process on the four execution models
// of the paper's claim 4. The workloads differ in their designs, their job
// shape and how the run time is split between the parts.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer ones: wire timestamps from a traced client, an
// in-process replay of each traced job's stages, and per-model build/run
// splits. Every output is checked against what the benchmark's own
// generator (or, for faulted jobs, verify::evaluate) says it must be;
// --selftest corrupts one expected value to show that the checks can fail.
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fault/inject.h"
#include "gen.h"
#include "models.h"
#include "rtl/batch_runner.h"
#include "rtl/lane_engine.h"
#include "serve/client.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "server.h"
#include "transfer/hash.h"
#include "transfer/mapping.h"
#include "transfer/schedule.h"
#include "transfer/text_format.h"
#include "verify/semantics.h"
#include "wire.h"

namespace {

namespace serve = ctrtl::serve;
namespace transfer = ctrtl::transfer;
using perfbench::GenConfig;
using perfbench::GenDesign;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double micros_since(Clock::time_point from) {
  return std::chrono::duration<double, std::micro>(Clock::now() - from).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (position - static_cast<double>(low));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::size_t clients = 2;
  std::size_t workers = 2;
  std::size_t lane_workers = 1;
  std::size_t cache = 8;
  std::uint64_t instances = 64;
  /// Share of --seconds given to the served part; the rest runs the models.
  double serve_share = 0.75;
};

/// What one job's REPORTs must say.
struct Expect {
  std::vector<std::pair<std::string, std::string>> registers;
  std::vector<std::string> conflicts;  // sorted
  std::uint64_t delta_cycles = 0;
};

/// One distinct job source: a design under a fixed name, or a base design
/// renamed per job (`unique_names`), optionally with a fault plan.
struct Source {
  const GenDesign* design = nullptr;
  std::string fault_plan;  // empty: none
  Expect expect;
};

struct Inputs {
  Workload workload;
  std::vector<GenDesign> designs;
  std::vector<Source> sources;
  /// serve_cold: every job gets a fresh design name, so every job misses.
  bool unique_names = false;
  /// Records written to the boot journal (name, source index).
  std::vector<std::pair<std::string, std::size_t>> journal;
  /// Indices into `designs` run on the four models (conflict-free ones).
  std::vector<std::size_t> model_designs;
};

Expect expect_from_generator(const GenDesign& design) {
  return Expect{design.registers, design.conflicts,
                static_cast<std::uint64_t>(design.cs_max) * ctrtl::rtl::kPhasesPerStep};
}

/// Fault-plan jobs: the expectation is the reference transition system run
/// on the faulted stream, computed here apart from every engine.
Expect expect_from_evaluate(const GenDesign& design, const std::string& plan) {
  ctrtl::common::DiagnosticBag diags;
  const transfer::Design parsed = transfer::parse_design(design.text("x"), diags);
  const auto faulted = ctrtl::fault::parse_and_apply(parsed, plan, diags);
  if (diags.has_errors() || !faulted.has_value()) {
    throw std::runtime_error("fault plan does not apply: " + diags.to_text());
  }
  const ctrtl::verify::EvalResult eval =
      ctrtl::verify::evaluate(faulted->design, faulted->instances);
  Expect expect;
  for (const transfer::RegisterDecl& reg : faulted->design.registers) {
    expect.registers.emplace_back(reg.name, ctrtl::rtl::to_string(eval.registers.at(reg.name)));
  }
  for (const ctrtl::rtl::Conflict& conflict : eval.conflicts) {
    expect.conflicts.push_back(ctrtl::rtl::to_string(conflict));
  }
  std::sort(expect.conflicts.begin(), expect.conflicts.end());
  expect.delta_cycles = eval.expected_delta_cycles;
  return expect;
}

std::string job_name(const Inputs& inputs, std::size_t source, std::uint64_t job) {
  return inputs.unique_names ? "job" + std::to_string(job) : "d" + std::to_string(source);
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed, bool selftest) {
  Inputs in;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + std::hash<std::string>{}(workload));
  in.workload.name = workload;
  std::vector<GenConfig> configs;
  if (workload == "serve_warm") {
    // Four 48-transfer designs, two with a planted write-bus conflict; all
    // fit in the cache, so every timed job is a hit.
    for (int i = 0; i < 4; ++i) {
      configs.push_back(GenConfig{48, 2, 10, i % 2 == 1});
    }
  } else if (workload == "serve_cold") {
    // 64 small base designs renamed per job: every job misses, lowers,
    // evicts and appends to the journal. Every fourth carries a fault plan.
    in.workload.instances = 4;
    in.unique_names = true;
    for (int i = 0; i < 64; ++i) {
      configs.push_back(GenConfig{24, 2, 8, i % 8 == 5});
    }
  } else if (workload == "serve_bulk") {
    in.workload.clients = 1;
    in.workload.workers = 1;
    in.workload.lane_workers = 2;
    in.workload.instances = 2048;
    configs.push_back(GenConfig{24, 2, 12, false});
  } else if (workload == "claim4") {
    // E6's size range on serialized schedules (one transfer per step), run
    // on the four models; width-1 jobs are served on one of them (below).
    in.workload.instances = 1;
    in.workload.serve_share = 0.5;
    for (unsigned size : {8u, 32u, 128u, 512u}) {
      configs.push_back(GenConfig{size, 1, 8, false});
    }
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  for (const GenConfig& config : configs) {
    in.designs.push_back(perfbench::generate(rng, config));
  }
  if (selftest) {
    in.designs[0].registers[0].second += "0";
  }
  for (std::size_t i = 0; i < in.designs.size(); ++i) {
    const GenDesign& design = in.designs[i];
    Source source{&design, "", expect_from_generator(design)};
    if (in.unique_names && i % 4 == 3) {
      static const char* const kPlans[] = {"force-bus B0 = 7 @2:ra\n",
                                           "stuck-disc R1\n",
                                           "corrupt-module A0 = 5\n"};
      source.fault_plan = kPlans[(i / 4) % 3];
      source.expect = expect_from_evaluate(design, source.fault_plan);
    }
    in.sources.push_back(std::move(source));
    if (!design.has_conflict) {
      in.model_designs.push_back(i);
    }
  }
  if (workload == "claim4") {
    // Served jobs use the 128-transfer design alone: over all four sizes the
    // median job would fall in the gap between two sizes' latencies.
    in.sources = {in.sources[2]};
  }
  if (in.unique_names) {
    in.model_designs.resize(std::min<std::size_t>(in.model_designs.size(), 4));
    for (std::size_t r = 0; r < 1000; ++r) {
      in.journal.emplace_back("boot" + std::to_string(r), r % in.sources.size());
    }
  } else {
    for (std::size_t i = 0; i < in.sources.size(); ++i) {
      in.journal.emplace_back(job_name(in, i, 0), i);
    }
  }
  return in;
}

serve::JobRequest make_request(const Inputs& in, std::uint64_t job, std::size_t* source_index) {
  const std::size_t index = job % in.sources.size();
  const Source& source = in.sources[index];
  serve::JobRequest request;
  request.job_id = "j" + std::to_string(job);
  request.instances = in.workload.instances;
  request.design_text = source.design->text(job_name(in, index, job));
  request.has_fault_plan = !source.fault_plan.empty();
  request.fault_plan_text = source.fault_plan;
  *source_index = index;
  return request;
}

/// Writes the boot journal: one record per (name, source) with the key the
/// server itself would compute, so replay accepts every record.
void write_journal(const Inputs& in, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const auto& [name, index] : in.journal) {
    const Source& source = in.sources[index];
    serve::SnapshotRecord record;
    record.design_text = source.design->text(name);
    record.has_fault_plan = !source.fault_plan.empty();
    record.fault_plan_text = source.fault_plan;
    ctrtl::common::DiagnosticBag diags;
    transfer::Design design = transfer::parse_design(record.design_text, diags);
    std::vector<transfer::TransInstance> stream;
    if (record.has_fault_plan) {
      const auto faulted = ctrtl::fault::parse_and_apply(design, record.fault_plan_text, diags);
      design = faulted->design;
      stream = faulted->instances;
    } else {
      stream = transfer::to_instances(design.transfers);
    }
    record.key = transfer::canonical_stream_hash(design, stream);
    out << serve::encode_snapshot_record(record);
  }
  if (!out.good()) {
    throw std::runtime_error("cannot write journal " + path);
  }
}

// ---------------------------------------------------------------------------
// Output checks

/// Empty when the job's REPORTs and DONE are right; otherwise the first
/// problem found.
std::string check_job(const std::vector<serve::ReportPayload>& reports,
                      const serve::DonePayload& done, const Expect& expect,
                      std::uint64_t instances) {
  if (reports.size() != instances || done.instances != instances) {
    return "expected " + std::to_string(instances) + " instances, got " +
           std::to_string(reports.size()) + " REPORTs and DONE instances " +
           std::to_string(done.instances);
  }
  std::vector<bool> seen(instances, false);
  std::uint64_t conflicts = 0;
  const serve::ReportPayload* first = nullptr;
  for (const serve::ReportPayload& report : reports) {
    if (report.instance >= instances || seen[report.instance]) {
      return "bad or repeated instance index " + std::to_string(report.instance);
    }
    seen[report.instance] = true;
    conflicts += report.conflicts.size();
    if (report.delta_cycles != expect.delta_cycles) {
      return "delta_cycles " + std::to_string(report.delta_cycles) + " != cs_max*6 = " +
             std::to_string(expect.delta_cycles);
    }
    if (first == nullptr) {
      first = &report;
      if (report.status != "ok") {
        return "status " + report.status;
      }
      if (report.registers != expect.registers) {
        return "final registers differ from the generator's";
      }
      std::vector<std::string> sorted = report.conflicts;
      std::sort(sorted.begin(), sorted.end());
      if (sorted != expect.conflicts) {
        return "conflict records differ from the expected ones";
      }
    } else {
      serve::ReportPayload same = report;
      same.instance = first->instance;
      if (!(same == *first)) {
        return "REPORT " + std::to_string(report.instance) + " differs from REPORT " +
               std::to_string(first->instance);
      }
    }
  }
  if (done.conflicts != conflicts || done.failures != 0) {
    return "DONE totals (conflicts " + std::to_string(done.conflicts) + ", failures " +
           std::to_string(done.failures) + ") disagree with the REPORTs (" +
           std::to_string(conflicts) + ")";
  }
  return {};
}

struct Verdict {
  std::mutex mutex;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::string first_problem;

  /// A wrong answer from a check that is not an operation of its own.
  void wrong_output(const std::string& problem) {
    const std::scoped_lock lock(mutex);
    ++wrong;
    if (first_problem.empty()) {
      first_problem = problem;
    }
  }

  void record(bool failed_op, const std::string& problem) {
    const std::scoped_lock lock(mutex);
    ++attempted;
    failed += failed_op ? 1 : 0;
    if (!problem.empty()) {
      wrong += failed_op ? 0 : 1;
      if (first_problem.empty()) {
        first_problem = problem;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Served part

struct ServedJob {
  std::uint64_t job = 0;
  double total_us = 0;
  double done_s = 0;  // DONE read, seconds since process start
  perfbench::WireJob wire;  // traced phase only (reports dropped)
};

/// Served/model alternations per run.
constexpr int kChunks = 4;

/// Completions per window of the served rate. A shared host stalls now and
/// then for a fraction of a second up to seconds (CPU taken by other
/// tenants), and a stall sets the rate of a whole run when it is taken over
/// all of its jobs. The rate is therefore taken per window of consecutive
/// completions, and the metric is the median over windows, so a stall spoils
/// only the windows it falls in; short windows let it spoil fewer.
constexpr std::size_t kWindow = 7;

struct ServedPhase {
  std::vector<ServedJob> jobs;
  /// Completion rate of each window of kWindow consecutive completions
  /// within a served chunk.
  std::vector<double> window_rates;
  double wall_s = 0;
};

/// Closed loop: each client sends its next job as soon as the last DONE
/// arrives, until `seconds` have passed; the jobs are added to `phase`. Job
/// numbers come from one shared counter, so the set of jobs sent is the same
/// whatever the interleaving.
void serve_phase(const Inputs& in, const std::string& socket, double seconds, bool traced,
                 std::atomic<std::uint64_t>& next_job, Verdict& verdict, ServedPhase& phase) {
  std::mutex jobs_mutex;
  const std::size_t first_job = phase.jobs.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const auto client_loop = [&] {
    std::vector<ServedJob> mine;
    try {
      serve::ServeClient client;
      perfbench::WireClient wire;
      client.set_read_timeout_ms(60'000);
      if (traced) {
        wire.connect(socket);
      } else {
        client.connect(socket);
      }
      while (Clock::now() < end) {
        const std::uint64_t job = next_job.fetch_add(1);
        std::size_t index = 0;
        const serve::JobRequest request = make_request(in, job, &index);
        ServedJob record;
        record.job = job;
        std::string problem;
        bool failed = false;
        if (traced) {
          record.wire = wire.run(request);
          record.total_us = record.wire.total_us;
          record.done_s = seconds_since(g_process_start);
          failed = !record.wire.done;
          problem = failed ? record.wire.error
                           : check_job(record.wire.reports, record.wire.done_payload,
                                       in.sources[index].expect, request.instances);
          record.wire.reports.clear();
        } else {
          const Clock::time_point sent = Clock::now();
          const serve::JobOutcome outcome = client.run_job(request);
          record.total_us = micros_since(sent);
          record.done_s = seconds_since(g_process_start);
          failed = outcome.status != serve::JobOutcome::Status::kDone;
          problem = failed ? "job " + request.job_id + " did not end in DONE"
                           : check_job(outcome.reports, outcome.done,
                                       in.sources[index].expect, request.instances);
        }
        verdict.record(failed, problem);
        mine.push_back(std::move(record));
      }
      if (!traced) {
        client.close();
      }
    } catch (const std::exception& error) {
      verdict.record(true, error.what());
    }
    const std::scoped_lock lock(jobs_mutex);
    phase.jobs.insert(phase.jobs.end(), std::make_move_iterator(mine.begin()),
                      std::make_move_iterator(mine.end()));
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < in.workload.clients; ++c) {
    clients.emplace_back(client_loop);
  }
  for (std::thread& client : clients) {
    client.join();
  }
  phase.wall_s += seconds_since(start);
  std::vector<double> done;
  for (std::size_t i = first_job; i < phase.jobs.size(); ++i) {
    done.push_back(phase.jobs[i].done_s);
  }
  std::sort(done.begin(), done.end());
  for (std::size_t i = kWindow; i < done.size(); i += kWindow) {
    phase.window_rates.push_back(static_cast<double>(kWindow) / (done[i] - done[i - kWindow]));
  }
}

std::vector<double> latencies_ms(const ServedPhase& phase) {
  std::vector<double> out;
  out.reserve(phase.jobs.size());
  for (const ServedJob& job : phase.jobs) {
    out.push_back(job.total_us / 1000.0);
  }
  return out;
}

serve::StatsPayload server_stats(const std::string& socket) {
  serve::ServeClient client;
  client.set_read_timeout_ms(60'000);
  client.connect(socket);
  serve::StatsPayload stats = client.stats();
  client.close();
  return stats;
}

// ---------------------------------------------------------------------------
// Model part (claim 4)

struct ModelSamples {
  std::vector<double> build_ns, plan_ns, elab_ns, run_ns;
  std::uint64_t steps = 0;
  ctrtl::kernel::KernelStats stats;  // one run's counters (they are exact)
};

/// samples[model][design]
using ModelTable = std::vector<std::vector<ModelSamples>>;

std::vector<transfer::Design> parse_model_designs(const Inputs& in) {
  std::vector<transfer::Design> designs;
  for (const std::size_t index : in.model_designs) {
    ctrtl::common::DiagnosticBag diags;
    designs.push_back(transfer::parse_design(in.designs[index].text("m"), diags));
  }
  return designs;
}

/// Whole rounds (every design on every model) until `seconds` have passed;
/// the samples are added to `table`.
void model_phase(const Inputs& in, const std::vector<transfer::Design>& designs,
                 double seconds, Verdict& verdict, ModelTable& table) {
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t d = 0; d < designs.size(); ++d) {
      for (std::size_t m = 0; m < perfbench::kModels.size(); ++m) {
        const perfbench::Model model = perfbench::kModels[m];
        const GenDesign& expected = in.designs[in.model_designs[d]];
        try {
          const perfbench::ModelRun run = perfbench::run_model(model, designs[d], expected);
          ModelSamples& samples = table[m][d];
          samples.build_ns.push_back(run.plan_ns + run.elab_ns + run.run_ns);
          samples.plan_ns.push_back(run.plan_ns);
          samples.elab_ns.push_back(run.elab_ns);
          samples.run_ns.push_back(run.run_ns);
          samples.steps = run.steps;
          samples.stats = run.stats;
          verdict.record(false, run.registers_ok
                                    ? std::string()
                                    : std::string(perfbench::model_name(model)) +
                                          " final registers differ from the generator's");
        } catch (const std::exception& error) {
          verdict.record(true, error.what());
        }
      }
    }
  } while (seconds_since(start) < seconds);
}

/// Steps per second of one pass over the designs: summed steps over the
/// summed per-design median build+run time.
double model_rate(const std::vector<ModelSamples>& per_design) {
  double steps = 0;
  double ns = 0;
  for (const ModelSamples& samples : per_design) {
    steps += static_cast<double>(samples.steps);
    ns += median(samples.build_ns);
  }
  return ns > 0 ? steps * 1e9 / ns : 0.0;
}

/// Claim 4 as the paper states it: how much faster `model` builds and runs
/// the designs than the handshake baseline. Each round runs every model on
/// every design back to back, so the round's ratio of summed build+run
/// times cancels the host's speed at that moment; the metric is the median
/// over rounds. (On this host the raw rates of one seed moved by up to 40%
/// between runs in stretches where allocation-heavy code ran slower, while
/// these ratios stayed within a few percent.)
double speedup_vs_handshake(const ModelTable& table, std::size_t model) {
  constexpr std::size_t kHandshake = 2;
  std::size_t rounds = std::numeric_limits<std::size_t>::max();
  for (const std::size_t m : {model, kHandshake}) {
    for (const ModelSamples& samples : table[m]) {
      rounds = std::min(rounds, samples.build_ns.size());
    }
  }
  std::vector<double> ratios;
  for (std::size_t r = 0; r < rounds; ++r) {
    double handshake_ns = 0;
    double model_ns = 0;
    for (std::size_t d = 0; d < table[model].size(); ++d) {
      handshake_ns += table[kHandshake][d].build_ns[r];
      model_ns += table[model][d].build_ns[r];
    }
    ratios.push_back(handshake_ns / model_ns);
  }
  return median(std::move(ratios));
}

double summed_median_us(const std::vector<ModelSamples>& per_design,
                        std::vector<double> ModelSamples::*field) {
  double total = 0;
  for (const ModelSamples& samples : per_design) {
    total += median(samples.*field) / 1000.0;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Per-layer replay of traced jobs, in-process

struct StageSamples {
  std::map<std::string, std::vector<double>> values;
  void add(const std::string& name, double value) { values[name].push_back(value); }
};

/// Runs one job through the service's pipeline stage by stage, timing each
/// call into a layer's public functions.
void replay_job(const Inputs& in, const serve::JobRequest& request,
                const std::string& journal_path, std::uint64_t append_key,
                StageSamples& out) {
  Clock::time_point t = Clock::now();
  ctrtl::common::DiagnosticBag diags;
  transfer::Design design = transfer::parse_design(request.design_text, diags);
  out.add("transfer.parse_us", micros_since(t));

  t = Clock::now();
  std::vector<transfer::TransInstance> stream = transfer::to_instances(design.transfers);
  out.add("transfer.to_instances_us", micros_since(t));

  // Jobs without a plan are timed on a one-fault probe plan, so the fault
  // layer has a figure on every workload.
  const std::string plan = request.has_fault_plan ? request.fault_plan_text : "stuck-disc R0\n";
  t = Clock::now();
  auto faulted = ctrtl::fault::parse_and_apply(design, plan, diags);
  out.add("fault.apply_us", micros_since(t));
  if (request.has_fault_plan) {
    design = faulted->design;
    stream = faulted->instances;
  }

  t = Clock::now();
  (void)transfer::canonical_stream_hash(design, stream);
  out.add("transfer.hash_us", micros_since(t));

  t = Clock::now();
  const auto compiled = transfer::CompiledDesign::compile(design, stream);
  out.add("transfer.compile_us", micros_since(t));

  t = Clock::now();
  const ctrtl::rtl::LaneEngine engine(compiled);
  out.add("rtl.lane_tables_us", micros_since(t));

  const std::size_t instances = request.instances;
  t = Clock::now();
  for (std::size_t first = 0; first < instances; first += 16) {
    (void)engine.run_block(first, std::min<std::size_t>(16, instances - first), {});
  }
  const double lane_us = micros_since(t);
  out.add("rtl.lane_run_us", lane_us);
  out.add("rtl.lane_steps_per_s",
          static_cast<double>(instances) * design.cs_max * 1e6 / lane_us);

  ctrtl::rtl::BatchRunOptions options;
  options.workers = in.workload.lane_workers;
  options.engine = ctrtl::rtl::BatchEngineKind::kCompiledLanes;
  options.lane_block = 16;
  ctrtl::rtl::BatchRunner runner(compiled, options);
  t = Clock::now();
  const ctrtl::rtl::BatchRunResult batch = runner.run(instances);
  out.add("rtl.batch_run_us", micros_since(t));

  t = Clock::now();
  for (std::size_t i = 0; i < batch.instances.size(); ++i) {
    (void)serve::encode_report(request.job_id, i, batch.instances[i]);
  }
  out.add("serve.encode_report_us", micros_since(t) / static_cast<double>(instances));

  serve::SnapshotJournal journal(journal_path);
  serve::SnapshotRecord record;
  record.key = append_key;
  record.design_text = request.design_text;
  record.has_fault_plan = request.has_fault_plan;
  record.fault_plan_text = request.fault_plan_text;
  t = Clock::now();
  (void)journal.append(record);
  out.add("serve.snapshot.append_us", micros_since(t));
}

/// The same job through an in-process `SimulationService`: submit to DONE
/// without a socket.
double service_job_us(serve::SimulationService& service, serve::JobRequest request) {
  std::mutex mutex;
  std::condition_variable cv;
  bool finished = false;
  const Clock::time_point t = Clock::now();
  const serve::SubmitOutcome outcome =
      service.submit(std::move(request), [&](const serve::Frame& frame) {
        if (frame.type == serve::MessageType::kDone || frame.type == serve::MessageType::kError) {
          const std::scoped_lock lock(mutex);
          finished = true;
          cv.notify_all();
        }
      });
  if (outcome.status != serve::SubmitStatus::kAccepted) {
    throw std::runtime_error("in-process service did not accept the job");
  }
  std::unique_lock lock(mutex);
  cv.wait(lock, [&] { return finished; });
  return micros_since(t);
}

// ---------------------------------------------------------------------------
// Result

struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> entries;
  void add(const std::string& name, double value, const std::string& unit) {
    entries.emplace_back(name, value, unit);
  }
};

void print_result(const Verdict& verdict, const Metrics& metrics) {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (verdict.wrong == 0 ? "true" : "false")
      << ", \"attempted\": " << verdict.attempted << ", \"failed\": " << verdict.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.entries.size(); ++i) {
    const auto& [name, value, unit] = metrics.entries[i];
    out << (i == 0 ? "" : ", ") << '"' << name << "\": {\"value\": "
        << (std::isfinite(value) ? value : 0.0)
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string server;
  std::string workdir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " needs a value");
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--server") {
      args.server = value();
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--selftest") {
      args.selftest = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.server.empty() || args.workdir.empty() ||
      args.seconds <= 0) {
    throw std::invalid_argument("--workload, --server, --workdir and --seconds > 0 are required");
  }
  return args;
}

int run(const Args& args) {
  const Inputs in = make_inputs(args.workload, args.seed, args.selftest);
  const Workload& w = in.workload;
  const std::string prefix = args.workdir + "/" + std::to_string(getpid());
  const std::string socket = prefix + ".sock";
  const std::string journal = prefix + ".snap";
  const std::string scratch_journal = prefix + ".replay.snap";
  write_journal(in, journal);

  Metrics metrics;
  Verdict verdict;
  if (args.trace) {
    // Boot cost of the same journal in-process, before the server competes.
    const Clock::time_point t = Clock::now();
    {
      serve::ServiceOptions options;
      options.workers = 1;
      options.cache_capacity = w.cache;
      options.snapshot_path = journal;
      serve::SimulationService boot(options);
    }
    metrics.add("serve.snapshot.boot_ms", micros_since(t) / 1000.0, "ms");
  }

  perfbench::ServerProcess server(
      args.server,
      {"--socket=" + socket, "--workers=" + std::to_string(w.workers),
       "--lane-workers=" + std::to_string(w.lane_workers), "--queue=16",
       "--cache=" + std::to_string(w.cache), "--snapshot=" + journal});
  const serve::StatsPayload before = server_stats(socket);
  if (before.snapshot_records_loaded != in.journal.size() || before.snapshot_records_skipped != 0) {
    verdict.wrong_output("server restored " + std::to_string(before.snapshot_records_loaded) +
                              " of " + std::to_string(in.journal.size()) + " journal records");
  }
  const double cpu_before = server.cpu_ms();
  const double setup_s = seconds_since(g_process_start);

  // The host's speed drifts over seconds, so the run alternates between
  // the served and the model part in chunks: each part samples the whole
  // run instead of one stretch of it. A traced run alternates untraced and
  // traced served chunks, then replays stages and models with the server
  // gone.
  const double serve_seconds = args.seconds * w.serve_share;
  const double model_seconds = args.seconds - serve_seconds;
  const std::vector<transfer::Design> model_designs = parse_model_designs(in);
  ModelTable table(perfbench::kModels.size(), std::vector<ModelSamples>(model_designs.size()));
  std::atomic<std::uint64_t> next_job{0};
  ServedPhase plain;
  ServedPhase traced;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    if (args.trace) {
      serve_phase(in, socket, serve_seconds / 2 / kChunks, false, next_job, verdict, plain);
      serve_phase(in, socket, serve_seconds / 2 / kChunks, true, next_job, verdict, traced);
    } else {
      serve_phase(in, socket, serve_seconds / kChunks, false, next_job, verdict, plain);
      model_phase(in, model_designs, model_seconds / kChunks, verdict, table);
    }
  }
  const double cpu_after = server.cpu_ms();
  const serve::StatsPayload after = server_stats(socket);
  const std::uint64_t served = plain.jobs.size() + traced.jobs.size();
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  const std::uint64_t misses = after.cache_misses - before.cache_misses;
  const std::uint64_t evictions = after.cache_evictions - before.cache_evictions;
  const bool want_misses = in.unique_names;
  if (hits != (want_misses ? 0 : served) || misses != (want_misses ? served : 0)) {
    verdict.wrong_output("cache hits/misses " + std::to_string(hits) + "/" +
                              std::to_string(misses) + " over " + std::to_string(served) +
                              " jobs; expected all " + (want_misses ? "misses" : "hits"));
  }
  const double peak_rss = server.peak_rss_mb();
  {
    serve::ServeClient client;
    client.set_read_timeout_ms(60'000);
    client.connect(socket);
    client.shutdown_server();
  }
  if (server.wait_exit(30'000) != 0) {
    verdict.wrong_output("server did not shut down cleanly");
  }

  if (!args.trace) {
    const std::vector<double> latency = latencies_ms(plain);
    metrics.add("setup_s", setup_s, "s");
    metrics.add("jobs_per_s", median(plain.window_rates), "jobs/s");
    metrics.add("job_p50_ms", median(latency), "ms");
    metrics.add("cpu_ms_per_job", (cpu_after - cpu_before) / static_cast<double>(served), "ms");
    metrics.add("server_peak_rss_mb", peak_rss, "MB");
    metrics.add("clockfree_speedup_vs_handshake", speedup_vs_handshake(table, 0), "x");
    metrics.add("compiled_speedup_vs_handshake", speedup_vs_handshake(table, 1), "x");
    metrics.add("clocked_speedup_vs_handshake", speedup_vs_handshake(table, 3), "x");
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu jobs in %.2f s (%.1f jobs/s, p90 %.3f ms, "
                 "p99 %.3f ms over all of them; rate from %zu windows of %zu), setup "
                 "%.3f s; boot restored %llu journal records with %llu cache evictions\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 plain.jobs.size(), plain.wall_s,
                 static_cast<double>(plain.jobs.size()) / plain.wall_s,
                 quantile(latency, 0.90), quantile(latency, 0.99), plain.window_rates.size(),
                 kWindow, setup_s,
                 static_cast<unsigned long long>(before.snapshot_records_loaded),
                 static_cast<unsigned long long>(before.cache_evictions));
  } else {
    // Wire timestamps of the traced phase.
    StageSamples wire;
    for (const ServedJob& job : traced.jobs) {
      wire.add("client.admit_us", job.wire.admit_us);
      wire.add("client.first_report_us", job.wire.first_report_us);
      wire.add("client.stream_us", job.wire.stream_us);
      wire.add("client.decode_report_us",
               job.wire.decode_report_us / static_cast<double>(w.instances));
      wire.add("serve.report_bytes",
               static_cast<double>(job.wire.report_bytes) / static_cast<double>(w.instances));
    }
    // Replay the traced jobs' stages in-process, with the server gone.
    StageSamples stages;
    serve::ServiceOptions options;
    options.workers = 1;
    options.lane_workers = w.lane_workers;
    options.cache_capacity = w.cache;
    serve::SimulationService service(options);
    std::vector<std::uint64_t> order;
    for (const ServedJob& job : traced.jobs) {
      order.push_back(job.job);
    }
    std::sort(order.begin(), order.end());
    if (!in.unique_names) {
      for (std::size_t i = 0; i < in.sources.size(); ++i) {  // warm the cache
        std::size_t index = 0;
        (void)service_job_us(service, make_request(in, i, &index));
      }
    }
    const Clock::time_point replay_start = Clock::now();
    for (std::size_t i = 0; i < order.size() && (i < 3 || seconds_since(replay_start) < model_seconds / 2); ++i) {
      std::size_t index = 0;
      const serve::JobRequest request = make_request(in, order[i], &index);
      replay_job(in, request, scratch_journal, order[i] + 1, stages);
      stages.add("serve.service_job_us", service_job_us(service, request));
    }
    std::filesystem::remove(scratch_journal);
    model_phase(in, model_designs, model_seconds / 2, verdict, table);

    const double plain_p50 = median(latencies_ms(plain));
    const double traced_p50 = median(latencies_ms(traced));
    const double service_p50 = median(stages.values["serve.service_job_us"]);
    for (const char* name : {"client.admit_us", "client.first_report_us",
                                    "client.stream_us", "client.decode_report_us"}) {
      metrics.add(name, median(wire.values[name]), "us");
    }
    for (const char* name :
         {"transfer.parse_us", "transfer.to_instances_us", "transfer.hash_us",
          "transfer.compile_us", "fault.apply_us", "rtl.lane_tables_us", "rtl.lane_run_us"}) {
      metrics.add(name, median(stages.values[name]), "us");
    }
    metrics.add("rtl.lane_steps_per_s", median(stages.values["rtl.lane_steps_per_s"]), "steps/s");
    metrics.add("rtl.batch_run_us", median(stages.values["rtl.batch_run_us"]), "us");
    metrics.add("serve.encode_report_us", median(stages.values["serve.encode_report_us"]), "us");
    metrics.add("serve.report_bytes", median(wire.values["serve.report_bytes"]), "B");
    metrics.add("serve.service_job_us", service_p50, "us");
    metrics.add("serve.transport_us", traced_p50 * 1000.0 - service_p50, "us");
    metrics.add("serve.snapshot.append_us", median(stages.values["serve.snapshot.append_us"]), "us");
    metrics.add("serve.cache.hits_per_job", static_cast<double>(hits) / static_cast<double>(served), "count");
    metrics.add("serve.cache.misses_per_job", static_cast<double>(misses) / static_cast<double>(served), "count");
    metrics.add("serve.cache.evictions_per_job", static_cast<double>(evictions) / static_cast<double>(served), "count");
    for (std::size_t m = 0; m < perfbench::kModels.size(); ++m) {
      const std::string model(perfbench::model_name(perfbench::kModels[m]));
      metrics.add(model + (m == 3 ? ".cycles_per_s" : ".steps_per_s"), model_rate(table[m]),
                  m == 3 ? "cycles/s" : "steps/s");
      metrics.add(model + ".elab_us", summed_median_us(table[m], &ModelSamples::elab_ns), "us");
      metrics.add(model + ".run_us", summed_median_us(table[m], &ModelSamples::run_ns), "us");
      ctrtl::kernel::KernelStats total;
      std::uint64_t steps = 0;
      for (const ModelSamples& samples : table[m]) {
        total = total + samples.stats;
        steps += samples.steps;
      }
      const double per = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
      metrics.add("kernel." + model + ".deltas_per_step", static_cast<double>(total.delta_cycles) * per, "count");
      metrics.add("kernel." + model + ".events_per_step", static_cast<double>(total.events) * per, "count");
      metrics.add("kernel." + model + ".transactions_per_step", static_cast<double>(total.transactions) * per, "count");
    }
    metrics.add("clocked.plan_us", summed_median_us(table[3], &ModelSamples::plan_ns), "us");
    metrics.add("trace.overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0, "%");
  }
  std::filesystem::remove(journal);
  if (!verdict.first_problem.empty()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", verdict.first_problem.c_str());
  }
  print_result(verdict, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_load: %s\n", error.what());
    return 1;
  }
}
