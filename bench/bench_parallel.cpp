// Execution-runtime benchmark: the candidate-/instance-parallel workloads
// at a configurable thread count, for the BENCH_*.json scaling rows.
//
// Workloads (--workload):
//   experiment  the Table-2 grid (12 cells) run instance-parallel — the
//               "table2_mt" pinned workload; same cells and seeds as
//               bench_table2_runtime so the serial row is the baseline
//   fault_sim   candidate-parallel exhaustive stuck-at fault simulation
//   xlist       candidate-parallel X-list single-location diagnosis
//
// Every workload is bit-identical across thread counts in its reported
// result fields (tables / detection counts / candidate counts); only the
// wall clock changes. The drivers print one JSON line for
// tools/bench_runner.py.
//
// Run:  ./bench_parallel --workload experiment --threads 8 [--json]
#include <cstdio>
#include <string>
#include <vector>

#include "diag/xlist.hpp"
#include "fault/fault_sim.hpp"
#include "gen/profiles.hpp"
#include "netlist/scan.hpp"
#include "report/experiment.hpp"
#include "report/format.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace satdiag;

namespace {

int run_experiment_workload(std::size_t threads, double scale, double limit,
                            std::int64_t max_solutions, std::uint64_t seed,
                            bool json) {
  const std::vector<ExperimentConfig> configs =
      table2_grid_configs(scale, limit, max_solutions, seed);
  ExperimentGridOptions grid;
  grid.num_threads = threads;
  Timer timer;
  const std::vector<ExperimentCell> rows = run_experiment_grid(configs, grid);
  const double seconds = timer.seconds();
  std::size_t prepared = 0;
  for (const ExperimentCell& cell : rows) prepared += cell.prepared ? 1 : 0;
  if (json) {
    std::printf(
        "{\"bench\":\"table2_mt\",\"cells\":%zu,\"prepared\":%zu,"
        "\"threads\":%zu,\"scale\":%.3f,\"seconds\":%.6f}\n",
        rows.size(), prepared, threads, scale, seconds);
  } else {
    TablePrinter table(table2_header());
    for (const ExperimentCell& cell : rows) {
      if (cell.prepared) table.add_row(table2_row(cell.row));
    }
    std::printf("%s", table.to_string().c_str());
    std::printf("# %zu/%zu cells, %zu threads, %.3f s\n", prepared,
                rows.size(), threads, seconds);
  }
  return 0;
}

int run_fault_sim_workload(std::size_t threads, double scale,
                           std::uint64_t seed, std::size_t rounds,
                           bool json) {
  const auto profile = find_profile("s38417_like");
  const Netlist nl =
      make_full_scan(make_profile_circuit(*profile, scale, seed)).comb;
  const std::vector<GateId> sites = stuck_at_sites(nl);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  StuckAtFaultSimOptions options;
  options.rounds = rounds;
  options.num_threads = threads;
  Timer timer;
  const StuckAtFaultSimResult result =
      simulate_stuck_at_faults(nl, sites, rng, options);
  const double seconds = timer.seconds();
  if (json) {
    std::printf(
        "{\"bench\":\"fault_sim_mt\",\"gates\":%zu,\"faults\":%zu,"
        "\"detected\":%zu,\"threads\":%zu,\"seconds\":%.6f}\n",
        nl.size(), result.faults, result.detected, threads, seconds);
  } else {
    std::printf("fault_sim: %zu faults, %zu detected, %zu threads, %.3f s\n",
                result.faults, result.detected, threads, seconds);
  }
  return 0;
}

int run_xlist_workload(std::size_t threads, double scale, std::uint64_t seed,
                       bool json) {
  ExperimentConfig config;
  config.circuit = "s38417_like";
  config.scale = scale;
  config.num_errors = 2;
  config.num_tests = 16;
  config.seed = seed;
  const auto prepared = prepare_experiment(config);
  if (!prepared) {
    std::fprintf(stderr, "no detectable experiment\n");
    return 1;
  }
  XListOptions options;
  options.restrict_to_fanin_cones = false;
  options.num_threads = threads;
  Timer timer;
  const std::size_t candidates =
      xlist_single_candidates(prepared->faulty, prepared->tests, options)
          .size();
  const double seconds = timer.seconds();
  if (json) {
    std::printf(
        "{\"bench\":\"xlist_mt\",\"gates\":%zu,\"candidates\":%zu,"
        "\"threads\":%zu,\"seconds\":%.6f}\n",
        prepared->faulty.size(), candidates, threads, seconds);
  } else {
    std::printf("xlist: %zu candidates, %zu threads, %.3f s\n", candidates,
                threads, seconds);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  std::string error;
  if (!args.parse(argc, argv, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const std::string workload = args.get_string("workload", "experiment");
  const std::int64_t threads = args.get_int("threads", 1);
  const double scale = args.get_double("scale", 0.1);
  const double limit = args.get_double("limit", 60.0);
  const std::int64_t max_solutions = args.get_int("max-solutions", 2000);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::size_t rounds =
      static_cast<std::size_t>(args.get_int("rounds", 1));
  const bool json = args.get_bool("json", false);
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 2;
  }
  // A typo'd flag must not silently fall back to a default workload: the
  // recorded BENCH_*.json timings would compare different work.
  for (const std::string& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    return 2;
  }
  const std::size_t lanes = static_cast<std::size_t>(threads);
  if (workload == "experiment") {
    return run_experiment_workload(lanes, scale, limit, max_solutions, seed,
                                   json);
  }
  if (workload == "fault_sim") {
    return run_fault_sim_workload(lanes, scale, seed, rounds, json);
  }
  if (workload == "xlist") return run_xlist_workload(lanes, scale, seed, json);
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
