#include "serve/handlers.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "app/commands.hpp"
#include "bench/bench_parser.hpp"
#include "cache/artifact_cache.hpp"
#include "gen/profiles.hpp"
#include "netlist/scan.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "report/testfile.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace satdiag::serve {
namespace {

/// Every request failure the handlers classify is the client's; caught at
/// the execute_request boundary with the command layer's usage errors.
[[noreturn]] void bad_request(const std::string& message) {
  throw CliUsageError(message);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) bad_request("cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Parsed, diagnosis-ready (full-scan when sequential) netlist, cached by
/// file content so a renamed copy of the same circuit still hits.
std::shared_ptr<const Netlist> load_netlist_cached(const std::string& path) {
  const std::string content = read_file(path);
  const cache::ArtifactKey key = cache::KeyBuilder(cache::ArtifactKind::kNetlist)
                                     .mix("serve.bench")
                                     .mix(content)
                                     .key();
  return cache::ArtifactCache::global().get_or_build<Netlist>(key, [&] {
    Netlist nl = parse_bench_string(content);
    if (!nl.dffs().empty()) nl = make_full_scan(nl).comb;
    const std::size_t bytes = nl.size() * 64 + content.size();
    return std::make_pair(std::make_shared<const Netlist>(std::move(nl)),
                          bytes);
  });
}

/// Parsed test-set, cached by (netlist fingerprint, file content): golden
/// observations are only meaningful relative to one circuit structure.
std::shared_ptr<const TestSet> load_tests_cached(const Netlist& nl,
                                                 const std::string& path) {
  const std::string content = read_file(path);
  const cache::ArtifactKey key =
      cache::KeyBuilder(cache::ArtifactKind::kGoldenOutputs)
          .mix(cache::netlist_fingerprint(nl))
          .mix("serve.tests")
          .mix(content)
          .key();
  return cache::ArtifactCache::global().get_or_build<TestSet>(key, [&] {
    TestSet tests = read_test_set_string(content, nl);
    const std::size_t bytes = content.size() + tests.size() * 32;
    return std::make_pair(std::make_shared<const TestSet>(std::move(tests)),
                          bytes);
  });
}

/// Generated profile circuit, cached by the full generation recipe.
std::shared_ptr<const Netlist> gen_circuit_cached(const CircuitProfile& profile,
                                                  double scale,
                                                  std::uint64_t seed) {
  const cache::ArtifactKey key = cache::KeyBuilder(cache::ArtifactKind::kNetlist)
                                     .mix("serve.gen")
                                     .mix(profile.name)
                                     .mix_double(scale)
                                     .mix(seed)
                                     .key();
  return cache::ArtifactCache::global().get_or_build<Netlist>(key, [&] {
    Netlist nl = make_profile_circuit(profile, scale, seed);
    const std::size_t bytes = nl.size() * 64;
    return std::make_pair(std::make_shared<const Netlist>(std::move(nl)),
                          bytes);
  });
}

/// Execution budget: the command's own --limit, clamped to what is left of
/// the request deadline after the admission-queue wait.
Deadline execution_deadline(double limit_seconds, const Deadline& deadline) {
  return Deadline::after_seconds(
      std::min(limit_seconds, deadline.remaining_seconds()));
}

/// Admission bounds how many requests run; this bounds the lanes one of
/// them may start.
void check_threads(std::size_t threads, std::size_t max_threads) {
  if (threads > max_threads) {
    bad_request("--threads " + std::to_string(threads) +
                " exceeds the server's --threads " +
                std::to_string(max_threads));
  }
}

std::string handle_gen(const CliArgs& args) {
  const app::GenRequest request = app::parse_gen(args);
  const std::shared_ptr<const Netlist> nl =
      gen_circuit_cached(request.profile, request.scale, request.seed);
  return app::gen_result_json(request, *nl);
}

std::string handle_diagnose(const CliArgs& args, const Deadline& deadline,
                            std::size_t max_threads) {
  const app::DiagnoseRequest request = app::parse_diagnose(args);
  check_threads(request.threads, max_threads);
  const std::shared_ptr<const Netlist> nl = load_netlist_cached(request.bench);
  const std::shared_ptr<const TestSet> tests =
      load_tests_cached(*nl, request.tests);
  const app::DiagnoseOutcome outcome = app::run_diagnose(
      *nl, *tests, request, execution_deadline(request.limit, deadline));
  return app::diagnose_result_json(*nl, request, outcome,
                                   /*corrections=*/true);
}

std::string handle_experiment(const CliArgs& args, const Deadline& deadline,
                              std::size_t max_threads) {
  const app::ExperimentRequest request = app::parse_experiment(args);
  check_threads(request.threads, max_threads);
  return app::experiment_result_json(app::run_experiment(
      request, execution_deadline(request.limit, deadline)));
}

std::string handle_ping(const CliArgs& args) {
  const std::int64_t sleep_ms = args.get_int("sleep-ms", 0);
  if (sleep_ms < 0) bad_request("--sleep-ms must be >= 0");
  // Deterministic load-test stand-in: occupy an execution slot for a known
  // time. Capped so a typo cannot wedge a slot for minutes.
  const std::int64_t capped = std::min<std::int64_t>(sleep_ms, 10'000);
  if (capped > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(capped));
  }
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("pong", true);
  w.kv("slept_ms", static_cast<std::uint64_t>(capped));
  w.end_object();
  return os.str();
}

std::string handle_metrics() {
  obs::refresh_process_metrics();
  std::ostringstream metrics;
  obs::MetricsRegistry::global().write_json(metrics, /*indent=*/0);
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("schema", "satdiag.metrics");
  w.kv("schema_version", static_cast<std::uint64_t>(obs::kSchemaVersion));
  w.key("metrics");
  w.raw(metrics.str());
  w.end_object();
  return os.str();
}

}  // namespace

std::string execute_request(const Request& req, const Deadline& deadline,
                            std::size_t max_threads) {
  try {
    // Rebuild an argv so the request goes through the same CliArgs parsing
    // and strict value validation as the one-shot CLI.
    std::vector<std::string> tokens = {"satdiag", req.command};
    tokens.insert(tokens.end(), req.positional.begin(), req.positional.end());
    for (const auto& [name, value] : req.args) {
      tokens.push_back("--" + name + "=" + value);
    }
    std::vector<const char*> argv;
    argv.reserve(tokens.size());
    for (const std::string& token : tokens) argv.push_back(token.c_str());
    CliArgs args;
    std::string parse_error;
    if (!args.parse(static_cast<int>(argv.size()), argv.data(), parse_error)) {
      bad_request(parse_error);
    }
    app::check_flags(app::Surface::kServe, req.command, args);

    Timer wall;
    std::string result;
    if (req.command == "metrics") {
      // Observability must stay readable under load and is not wrapped in a
      // run report: there is no "run" behind it.
      return ok_response(req.id, handle_metrics());
    } else if (req.command == "gen") {
      result = handle_gen(args);
    } else if (req.command == "diagnose") {
      result = handle_diagnose(args, deadline, max_threads);
    } else if (req.command == "experiment") {
      result = handle_experiment(args, deadline, max_threads);
    } else {
      result = handle_ping(args);
    }
    // The "satdiag.report" v1 envelope of the CLI's --report-json artifact,
    // compact and without the trailing newline so it splices into a frame.
    std::ostringstream os;
    app::make_report(req.command, args, wall.seconds(), std::move(result))
        .write_json(os, /*indent=*/0);
    std::string report = os.str();
    while (!report.empty() && report.back() == '\n') report.pop_back();
    return ok_response(req.id, report);
  } catch (const std::exception& e) {
    // Usage errors and parser/loader exceptions carry input-shaped messages,
    // so they are the request's fault; internal_error is kept for the truly
    // unexpected (bad_alloc has no message).
    const char* what = e.what();
    if (what != nullptr && *what != '\0') {
      return error_response(req.id, kErrBadRequest, what);
    }
    return error_response(req.id, kErrInternal, "unexpected server error");
  }
}

}  // namespace satdiag::serve
