// The command layer behind both front ends: the one-shot CLI
// (tools/satdiag_cli.cpp) and the serve daemon (serve/handlers.cpp).
//
// gen, diagnose and experiment are defined here once: one flag table, one
// parse of CliArgs into a typed request carrying every default and check,
// one engine dispatch, and one writer for the run report's "result" section
// and config echo. Every invalid option throws CliUsageError with the same
// message on both transports; the CLI turns it into exit 2, serve into a
// "bad_request" reply. The front ends keep only what differs: the CLI loads
// files and prints text, serve reads through the artifact cache and clamps
// the Deadline it passes to the request's remaining budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "diag/bsim.hpp"
#include "gen/profiles.hpp"
#include "obs/report.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace satdiag::app {

/// The front end a command arrives through. Each offers its own commands,
/// and the text-output flags (--stats, --csv) exist only on the CLI.
enum class Surface { kCli, kServe };

bool has_command(Surface surface, const std::string& command);

/// Throws CliUsageError for an unknown command or for the first flag in
/// `args` that `command` does not take. Call it before any get_*: it looks
/// at the flags nobody has queried yet.
void check_flags(Surface surface, const std::string& command,
                 const CliArgs& args);

struct GenRequest {
  CircuitProfile profile;
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::string out;  // empty: no file is written
};

GenRequest parse_gen(const CliArgs& args);

/// Writes `nl` to request.out when set (CliUsageError if it cannot) and
/// returns the result section; without an out file the bench text itself
/// is the result.
std::string gen_result_json(const GenRequest& request, const Netlist& nl);

struct DiagnoseRequest {
  std::string bench;     // the positional .bench path
  std::string tests;     // --tests path
  std::string approach;  // bsim | cov | bsat | hybrid
  unsigned k = 1;        // 1 <= k <= INT32_MAX
  double limit = 300.0;
  std::int64_t max_solutions = -1;
  std::size_t threads = 1;  // > 1 only for bsat/hybrid
  bool stats = false;       // CLI only: print the solver counters
};

DiagnoseRequest parse_diagnose(const CliArgs& args);

/// --threads, which must be >= 1 (every command that takes it).
std::size_t parse_threads(const CliArgs& args);

struct DiagnoseOutcome {
  /// Corrections; for BSIM the Gmax gates, one per entry.
  std::vector<std::vector<GateId>> solutions;
  bool complete = true;
  /// Build / first / all seconds; hybrid reports its simulation time as
  /// build and its SAT time as all.
  double build_seconds = 0.0;
  double first_seconds = 0.0;
  double all_seconds = 0.0;
  /// The full BSIM marking (approach bsim only), for the CLI's text.
  BsimResult bsim;
};

/// Runs the requested engine under `deadline` and publishes its solver
/// counters into the metrics registry. Throws CliUsageError on an empty
/// test set.
DiagnoseOutcome run_diagnose(const Netlist& nl, const TestSet& tests,
                             const DiagnoseRequest& request,
                             const Deadline& deadline);

/// The diagnose result section; `corrections` adds the gate names of every
/// solution (serve replies carry them, the CLI prints them as text).
std::string diagnose_result_json(const Netlist& nl,
                                 const DiagnoseRequest& request,
                                 const DiagnoseOutcome& outcome,
                                 bool corrections);

struct ExperimentRequest {
  /// One config per (circuit, test count) cell; run_experiment sets their
  /// time limits.
  std::vector<ExperimentConfig> configs;
  double limit = 60.0;  // per cell
  std::size_t threads = 1;
  bool csv = false;  // CLI only: print the table as CSV
};

ExperimentRequest parse_experiment(const CliArgs& args);

/// Runs the grid, each cell limited to what `deadline` has left when the
/// grid starts, and publishes the summed solver counters into the metrics
/// registry.
std::vector<ExperimentCell> run_experiment(const ExperimentRequest& request,
                                           const Deadline& deadline);

std::string experiment_result_json(const std::vector<ExperimentCell>& cells);

/// The run report of one command: the config echo of `args` (every flag
/// plus the joined positionals) around `result_json`.
obs::RunReport make_report(const std::string& command, const CliArgs& args,
                           double wall_seconds, std::string result_json);

}  // namespace satdiag::app
