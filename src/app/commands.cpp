#include "app/commands.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench/bench_writer.hpp"
#include "diag/bsat.hpp"
#include "diag/cover.hpp"
#include "diag/hybrid.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace satdiag::app {
namespace {

struct CommandFlags {
  std::string name;
  bool cli;
  bool serve;
  std::vector<std::string> flags;
};

// Every command either front end accepts, with its flags; anything else is
// a typo and must not silently fall back to a default. "shutdown" is
// handled by the server itself.
const CommandFlags kCommands[] = {
    {"gen", true, true, {"profile", "scale", "seed", "out"}},
    {"stats", true, false, {}},
    {"inject", true, false,
     {"seed", "errors", "out", "tests-out", "num-tests"}},
    {"diagnose", true, true,
     {"tests", "approach", "k", "limit", "max-solutions", "threads", "stats"}},
    {"experiment", true, true,
     {"circuits", "errors", "tests", "scale", "seed", "limit", "max-solutions",
      "threads", "csv"}},
    {"repair", true, false, {"tests", "gates"}},
    {"serve", true, false,
     {"port", "threads", "max-inflight", "queue-depth", "max-request-seconds"}},
    {"ping", false, true, {"sleep-ms"}},
    {"metrics", false, true, {}},
};

// Formatting flags are meaningless over the wire, and the `metrics` request
// is the stats surface there.
bool text_output_flag(const std::string& flag) {
  return flag == "stats" || flag == "csv";
}

const CommandFlags* find_command(Surface surface, const std::string& name) {
  for (const CommandFlags& command : kCommands) {
    if (command.name == name &&
        (surface == Surface::kCli ? command.cli : command.serve)) {
      return &command;
    }
  }
  return nullptr;
}

bool sat_backed(const std::string& approach) {
  return approach == "bsat" || approach == "hybrid";
}

}  // namespace

std::size_t parse_threads(const CliArgs& args) {
  const std::int64_t threads = args.get_int("threads", 1);
  if (threads < 1) {
    throw CliUsageError("--threads must be >= 1 (got " +
                        std::to_string(threads) + ")");
  }
  return static_cast<std::size_t>(threads);
}

bool has_command(Surface surface, const std::string& command) {
  return find_command(surface, command) != nullptr;
}

void check_flags(Surface surface, const std::string& command,
                 const CliArgs& args) {
  const CommandFlags* spec = find_command(surface, command);
  if (spec == nullptr) {
    throw CliUsageError("unknown command '" + command + "'");
  }
  for (const std::string& flag : args.unused()) {
    const bool known =
        std::find(spec->flags.begin(), spec->flags.end(), flag) !=
            spec->flags.end() &&
        (surface == Surface::kCli || !text_output_flag(flag));
    if (!known) {
      throw CliUsageError("unknown flag --" + flag + " for '" + command + "'");
    }
  }
}

GenRequest parse_gen(const CliArgs& args) {
  GenRequest request;
  const std::string profile_name = args.get_string("profile", "s1423_like");
  const auto profile = find_profile(profile_name);
  if (!profile) throw CliUsageError("unknown profile '" + profile_name + "'");
  request.profile = *profile;
  request.scale = args.get_double("scale", 1.0);
  request.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  request.out = args.get_string("out", "");
  return request;
}

std::string gen_result_json(const GenRequest& request, const Netlist& nl) {
  if (!request.out.empty()) {
    std::ofstream out(request.out);
    if (!out) throw CliUsageError("cannot write '" + request.out + "'");
    write_bench(out, nl);
  }
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("profile", request.profile.name);
  w.kv("gates", static_cast<std::uint64_t>(nl.size()));
  w.kv("inputs", static_cast<std::uint64_t>(nl.inputs().size()));
  w.kv("outputs", static_cast<std::uint64_t>(nl.outputs().size()));
  w.kv("dffs", static_cast<std::uint64_t>(nl.dffs().size()));
  if (request.out.empty()) {
    w.kv("bench", write_bench_string(nl));
  } else {
    w.kv("path", request.out);
  }
  w.end_object();
  return os.str();
}

DiagnoseRequest parse_diagnose(const CliArgs& args) {
  DiagnoseRequest request;
  if (args.positional().size() < 2) {
    throw CliUsageError("diagnose needs a .bench file");
  }
  request.bench = args.positional()[1];
  request.tests = args.get_string("tests", "");
  if (request.tests.empty()) throw CliUsageError("--tests required");
  request.approach = args.get_string("approach", "bsat");
  if (request.approach != "bsim" && request.approach != "cov" &&
      !sat_backed(request.approach)) {
    throw CliUsageError("unknown approach '" + request.approach + "'");
  }
  // The engines count bounds in unsigned arithmetic (max_k + 1 rows of a
  // cardinality counter); k outside this range wrapped to 0 there.
  const std::int64_t k = args.get_int("k", 1);
  if (k < 1 || k > std::numeric_limits<std::int32_t>::max()) {
    throw CliUsageError("--k must be in [1, 2147483647] (got " +
                        std::to_string(k) + ")");
  }
  request.k = static_cast<unsigned>(k);
  request.limit = args.get_double("limit", 300.0);
  request.max_solutions = args.get_int("max-solutions", -1);
  request.stats = args.get_bool("stats", false);
  if (request.stats && !sat_backed(request.approach)) {
    throw CliUsageError(
        "--stats requires a SAT-backed approach (bsat or hybrid)");
  }
  request.threads = parse_threads(args);
  // A flag that cannot take effect must not be silently accepted: the user
  // would believe the run was parallel.
  if (request.threads > 1 && !sat_backed(request.approach)) {
    throw CliUsageError(
        "--threads requires a SAT-backed approach (bsat or hybrid)");
  }
  return request;
}

DiagnoseOutcome run_diagnose(const Netlist& nl, const TestSet& tests,
                             const DiagnoseRequest& request,
                             const Deadline& deadline) {
  if (tests.empty()) throw CliUsageError("empty test set");
  // Every engine but BSIM takes the same bound, budget and cap.
  const auto bounded = [&](auto options) {
    options.k = request.k;
    options.deadline = deadline;
    options.max_solutions = request.max_solutions;
    return options;
  };
  if (request.approach == "bsim") {
    obs::Span sim_span("phase.sim");
    DiagnoseOutcome outcome;
    outcome.bsim = basic_sim_diagnose(nl, tests);
    for (GateId g : outcome.bsim.gmax) outcome.solutions.push_back({g});
    return outcome;
  }
  if (request.approach == "cov") {
    obs::Span sim_span("phase.sim");
    CovResult r = sc_diagnose(nl, tests, bounded(CovOptions{}));
    return {std::move(r.solutions), r.complete, r.build_seconds,
            r.first_seconds, r.all_seconds, {}};
  }
  if (request.approach == "bsat") {
    BsatOptions options = bounded(BsatOptions{});
    options.num_threads = request.threads;
    BsatResult r = basic_sat_diagnose(nl, tests, options);
    obs::add_solver_stats(r.solver_stats);
    return {std::move(r.solutions), r.complete, r.build_seconds,
            r.first_seconds, r.all_seconds, {}};
  }
  HybridOptions options = bounded(HybridOptions{});
  options.num_threads = request.threads;
  HybridResult r = hybrid_diagnose(nl, tests, options);
  obs::add_solver_stats(r.solver_stats);
  return {std::move(r.solutions), r.complete, r.sim_seconds, 0.0,
          r.sat_seconds, {}};
}

std::string diagnose_result_json(const Netlist& nl,
                                 const DiagnoseRequest& request,
                                 const DiagnoseOutcome& outcome,
                                 bool corrections) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("approach", request.approach);
  w.kv("solutions", static_cast<std::uint64_t>(outcome.solutions.size()));
  w.kv("complete", outcome.complete);
  w.kv("build_seconds", outcome.build_seconds);
  w.kv("first_seconds", outcome.first_seconds);
  w.kv("all_seconds", outcome.all_seconds);
  if (corrections) {
    w.key("corrections");
    w.begin_array();
    for (const auto& solution : outcome.solutions) {
      w.begin_array();
      for (GateId g : solution) w.value(nl.gate_name(g));
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
  return os.str();
}

ExperimentRequest parse_experiment(const CliArgs& args) {
  ExperimentRequest request;
  request.threads = parse_threads(args);
  std::vector<std::string> circuits;
  // Bind before split(): the views point into this string, and a temporary
  // would be destroyed before a C++20 range-for body runs.
  const std::string circuits_arg = args.get_string("circuits", "s1423_like");
  for (std::string_view name : split(circuits_arg, ',')) {
    name = trim(name);
    if (name.empty()) continue;
    if (!find_profile(std::string(name))) {
      throw CliUsageError("unknown profile '" + std::string(name) + "'");
    }
    circuits.emplace_back(name);
  }
  if (circuits.empty()) {
    throw CliUsageError("--circuits requires at least one name");
  }
  std::vector<std::size_t> test_counts;
  const std::string tests_arg = args.get_string("tests", "4,8");
  for (std::string_view m : split(tests_arg, ',')) {
    m = trim(m);
    if (m.empty()) continue;
    // Strict parse: "8abc" must not silently run with m=8.
    std::size_t value = 0;
    const char* last = m.data() + m.size();
    const auto [end, ec] = std::from_chars(m.data(), last, value);
    if (ec != std::errc() || end != last) {
      throw CliUsageError("--tests entries must be positive integers (got '" +
                          std::string(m) + "')");
    }
    if (value < 1) throw CliUsageError("--tests entries must be >= 1");
    test_counts.push_back(value);
  }
  if (test_counts.empty()) {
    throw CliUsageError("--tests requires at least one count");
  }
  ExperimentConfig config;
  config.scale = args.get_double("scale", 0.25);
  config.num_errors = static_cast<std::size_t>(args.get_int("errors", 2));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.max_solutions = args.get_int("max-solutions", -1);
  for (const std::string& circuit : circuits) {
    for (std::size_t m : test_counts) {
      config.circuit = circuit;
      config.num_tests = m;
      request.configs.push_back(config);
    }
  }
  request.limit = args.get_double("limit", 60.0);
  request.csv = args.get_bool("csv", false);
  return request;
}

std::vector<ExperimentCell> run_experiment(const ExperimentRequest& request,
                                           const Deadline& deadline) {
  std::vector<ExperimentConfig> configs = request.configs;
  for (ExperimentConfig& config : configs) {
    config.time_limit_seconds = deadline.remaining_seconds();
  }
  ExperimentGridOptions grid;
  grid.num_threads = request.threads;
  std::vector<ExperimentCell> cells = run_experiment_grid(configs, grid);
  sat::Solver::Stats grid_stats;
  for (const ExperimentCell& cell : cells) {
    if (cell.prepared) grid_stats.merge(cell.row.bsat.solver_stats);
  }
  obs::add_solver_stats(grid_stats);
  return cells;
}

std::string experiment_result_json(const std::vector<ExperimentCell>& cells) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("cells", static_cast<std::uint64_t>(cells.size()));
  w.key("rows");
  w.begin_array();
  for (const ExperimentCell& cell : cells) {
    w.begin_object();
    w.kv("circuit", cell.config.circuit);
    w.kv("tests", static_cast<std::uint64_t>(cell.config.num_tests));
    w.kv("errors", static_cast<std::uint64_t>(cell.config.num_errors));
    w.kv("prepared", cell.prepared);
    if (cell.prepared) {
      const ApproachOutcome& bsat = cell.row.bsat;
      w.kv("bsim_seconds", cell.row.bsim_seconds);
      w.kv("bsat_solutions", static_cast<std::uint64_t>(bsat.solutions.size()));
      w.kv("bsat_all_seconds", bsat.all_seconds);
      w.kv("bsat_complete", bsat.complete);
      w.kv("bsat_conflicts", bsat.solver_stats.conflicts);
      w.kv("bsat_decisions", bsat.solver_stats.decisions);
      w.kv("bsat_propagations", bsat.solver_stats.propagations);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

obs::RunReport make_report(const std::string& command, const CliArgs& args,
                           double wall_seconds, std::string result_json) {
  obs::RunReport report;
  report.command = command;
  for (const auto& [flag, value] : args.raw_values()) {
    report.config[flag] = value;
  }
  const auto& pos = args.positional();
  std::string joined;
  for (std::size_t i = 1; i < pos.size(); ++i) {
    if (!joined.empty()) joined += ' ';
    joined += pos[i];
  }
  report.config["positional"] = joined;
  report.wall_seconds = wall_seconds;
  report.result_json = std::move(result_json);
  return report;
}

}  // namespace satdiag::app
