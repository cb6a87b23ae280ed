// In-process layer driver of the satdiag benchmark (see satbench/run.py).
//
//   satbench_layers PLAN.json OUT.json
//
// PLAN.mode selects the job:
//   prepare  make the workload inputs: gen -> full-scan -> inject -> testgen,
//            the same calls and Rng use as `satdiag_cli gen` followed by
//            `satdiag_cli inject`, written as <dir>/<id>.bench (faulty
//            full-scan view) and <dir>/<id>.tests.
//   library  untraced end-to-end timing of one round of the library calls
//            that have no CLI command (simulate_stuck_at_faults over every
//            stuck_at_sites fault, xlist_single_candidates; each PLAN.repeat
//            times), and the untimed cross-engine check that every COV answer is an
//            irredundant cover of the BSIM candidate sets.
//   layers   the traced run: each layer's public function called in turn
//            inside a span recorded here (name, start, end, parent, request
//            id), with the metrics-registry delta around every engine call.
//            PLAN.trace turns the spans on; run.py makes every pass with
//            spans off and on, and the difference of the two walls is the
//            tracing overhead.
//
// Spans live in memory and are written to OUT.json when the job ends.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_parser.hpp"
#include "bench/bench_writer.hpp"
#include "cache/artifact_cache.hpp"
#include "cnf/mux_instrument.hpp"
#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
#include "diag/cover.hpp"
#include "diag/hybrid.hpp"
#include "diag/xlist.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_sim.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/profiles.hpp"
#include "netlist/analysis.hpp"
#include "netlist/scan.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "report/testfile.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "sim/compiled.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace satdiag;

namespace {

// ---------------------------------------------------------------------------
// Plan access
// ---------------------------------------------------------------------------

const JsonValue& field(const JsonValue& v, std::string_view key) {
  const JsonValue* p = v.find(key);
  if (p == nullptr) {
    throw std::runtime_error("plan: missing '" + std::string(key) + "'");
  }
  return *p;
}

std::string text(const JsonValue& v, std::string_view key) {
  return field(v, key).string;
}

double number(const JsonValue& v, std::string_view key) {
  return field(v, key).number;
}

std::uint64_t whole(const JsonValue& v, std::string_view key) {
  return static_cast<std::uint64_t>(field(v, key).integer);
}

const std::vector<JsonValue>& list(const JsonValue& v, std::string_view key) {
  static const std::vector<JsonValue> kEmpty;
  const JsonValue* p = v.find(key);
  return p == nullptr ? kEmpty : p->array;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out << content;
}

TestSet load_tests(const std::string& path, const Netlist& nl) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  return read_test_set(in, nl);
}

/// Order-independent digest of a solution set: FNV-1a over the sorted,
/// name-rendered solutions.
std::string digest(const Netlist& nl,
                   const std::vector<std::vector<GateId>>& solutions) {
  std::vector<std::string> rendered;
  for (const auto& solution : solutions) {
    std::vector<std::string> names;
    for (GateId g : solution) names.push_back(nl.gate_name(g));
    std::sort(names.begin(), names.end());
    std::string joined;
    for (const std::string& name : names) joined += name + ",";
    rendered.push_back(joined);
  }
  std::sort(rendered.begin(), rendered.end());
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::string& s : rendered) {
    for (unsigned char c : s + ";") {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::vector<std::vector<GateId>> singletons(const std::vector<GateId>& gates) {
  std::vector<std::vector<GateId>> out;
  for (GateId g : gates) out.push_back({g});
  return out;
}

// ---------------------------------------------------------------------------
// Spans and registry deltas
// ---------------------------------------------------------------------------

using RegistryValues = std::map<std::string, std::int64_t>;

RegistryValues registry_values() {
  obs::refresh_process_metrics();
  RegistryValues values;
  for (const obs::MetricSample& s : obs::MetricsRegistry::global().snapshot()) {
    switch (s.kind) {
      case obs::MetricKind::kCounter:
        values[s.name] = static_cast<std::int64_t>(s.counter);
        break;
      case obs::MetricKind::kGauge:
        values[s.name] = s.gauge;
        break;
      case obs::MetricKind::kHistogram:
        values[s.name + ".count"] = static_cast<std::int64_t>(s.hist_count);
        break;
    }
  }
  return values;
}

class Tracer {
 public:
  struct Record {
    std::string name;
    std::string request;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    std::map<std::string, double> fields;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int open(std::string name, std::string request) {
    if (!enabled_) return -1;
    Record r;
    r.name = std::move(name);
    r.request = std::move(request);
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.start_us = now_us();
    records_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }

  void close(int idx) {
    if (idx < 0) return;
    records_[static_cast<std::size_t>(idx)].end_us = now_us();
    stack_.pop_back();
  }

  void set(int idx, const std::string& key, double value) {
    if (idx >= 0) records_[static_cast<std::size_t>(idx)].fields[key] = value;
  }

  void write(JsonWriter& w) const {
    w.begin_array();
    for (const Record& r : records_) {
      w.begin_object();
      w.kv("name", r.name);
      w.kv("request", r.request);
      w.kv("start_us", r.start_us);
      w.kv("end_us", r.end_us);
      w.kv("parent", static_cast<std::int64_t>(r.parent));
      w.key("fields");
      w.begin_object();
      for (const auto& [k, v] : r.fields) w.kv(k, v);
      w.end_object();
      w.end_object();
    }
    w.end_array();
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// One span; with `delta` set it also records the registry delta of the
/// enclosed call as fields named "reg.<metric>".
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string request,
       bool delta = false)
      : tracer_(tracer), delta_(delta && tracer.enabled()) {
    if (delta_) before_ = registry_values();
    idx_ = tracer_.open(std::move(name), std::move(request));
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set(const std::string& key, double value) {
    tracer_.set(idx_, key, value);
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    tracer_.close(idx_);
    if (!delta_) return;
    for (const auto& [name, after] : registry_values()) {
      const auto it = before_.find(name);
      const std::int64_t d = after - (it == before_.end() ? 0 : it->second);
      if (d != 0) tracer_.set(idx_, "reg." + name, static_cast<double>(d));
    }
  }

 private:
  Tracer& tracer_;
  bool delta_;
  bool closed_ = false;
  int idx_ = -1;
  RegistryValues before_;
};

// ---------------------------------------------------------------------------
// prepare
// ---------------------------------------------------------------------------

/// gen -> full-scan -> inject -> testgen for one instance spec. Injection
/// retries the next inject seed when no detectable error set exists; the
/// seed used is reported.
void prepare_one(const JsonValue& spec, const std::string& dir, Tracer& tr,
                 JsonWriter& w) {
  const std::string id = text(spec, "id");
  const auto profile = find_profile(text(spec, "profile"));
  if (!profile) throw std::runtime_error("unknown profile in " + id);
  Span root(tr, "setup.instance", id);
  Timer timer;
  Netlist sequential;
  {
    Span s(tr, "gen.generate", id);
    sequential = make_profile_circuit(*profile, number(spec, "scale"),
                                      whole(spec, "gen_seed"));
  }
  const double gen_s = timer.seconds();
  timer.reset();
  Netlist nl;
  {
    // The CLI flow writes the generated circuit and `inject` parses it back;
    // the round trip fixes the gate order the instance is built from.
    Span s(tr, "setup.roundtrip", id);
    nl = parse_bench_string(write_bench_string(sequential), id);
  }
  timer.reset();
  if (!nl.dffs().empty()) {
    Span s(tr, "netlist.scan", id);
    nl = make_full_scan(nl).comb;
  }
  const double scan_s = timer.seconds();

  InjectorOptions inject;
  inject.num_errors = whole(spec, "errors");
  std::uint64_t seed = whole(spec, "inject_seed");
  double inject_s = 0;
  double testgen_s = 0;
  bool ok = false;
  for (int attempt = 0; attempt < 16 && !ok; ++attempt, ++seed) {
    Rng rng(seed);
    timer.reset();
    std::optional<ErrorList> errors;
    {
      Span s(tr, "fault.inject", id);
      errors = inject_errors(nl, rng, inject);
    }
    inject_s += timer.seconds();
    if (!errors) continue;
    const Netlist faulty = apply_errors(nl, *errors);
    timer.reset();
    TestSet tests;
    {
      Span s(tr, "fault.testgen", id);
      tests = generate_failing_tests(nl, *errors, whole(spec, "tests"), rng);
    }
    testgen_s += timer.seconds();
    if (tests.empty()) continue;
    write_file(dir + "/" + id + ".bench", write_bench_string(faulty));
    write_file(dir + "/" + id + ".tests", write_test_set_string(tests));
    ok = true;
  }
  w.begin_object();
  w.kv("id", id);
  w.kv("ok", ok);
  w.kv("inject_seed", seed - 1);
  w.kv("gen_s", gen_s);
  w.kv("scan_s", scan_s);
  w.kv("inject_s", inject_s);
  w.kv("testgen_s", testgen_s);
  w.end_object();
}

void run_prepare(const JsonValue& plan, JsonWriter& w, Tracer& tr) {
  const std::string dir = text(plan, "dir");
  w.key("instances");
  w.begin_array();
  for (const JsonValue& spec : list(plan, "instances")) {
    prepare_one(spec, dir, tr, w);
  }
  w.end_array();
}

// ---------------------------------------------------------------------------
// library (untraced) and the shared fault-sim / x-list calls
// ---------------------------------------------------------------------------

struct FaultJob {
  std::string id;
  std::uint64_t seed = 1;
  std::size_t rounds = 1;
  Netlist nl;
  std::vector<GateId> sites;
};

/// The fault-sim input of bench/bench_fault_sim.cpp: the full-scan view of
/// a generated profile circuit, patterns from Rng(seed * golden + 1).
FaultJob load_fault_job(const JsonValue& spec) {
  const auto profile = find_profile(text(spec, "profile"));
  if (!profile) throw std::runtime_error("unknown fault-sim profile");
  FaultJob job;
  job.id = text(spec, "id");
  job.seed = whole(spec, "seed");
  job.rounds = whole(spec, "rounds");
  job.nl = make_full_scan(
               make_profile_circuit(*profile, number(spec, "scale"), job.seed))
               .comb;
  job.sites = stuck_at_sites(job.nl);
  return job;
}

StuckAtFaultSimResult run_fault_job(const FaultJob& job) {
  Rng rng(job.seed * 0x9e3779b97f4a7c15ULL + 1);
  StuckAtFaultSimOptions options;
  options.rounds = job.rounds;
  options.num_threads = 1;
  return simulate_stuck_at_faults(job.nl, job.sites, rng, options);
}

/// Full-sweep-equivalent gate evaluations of a fault-sim call: every fault
/// and every golden round is one 64-pattern word over the combinational
/// gates. Computed from outside, so it is identical for any kernel.
double gate_evals(const FaultJob& job, const StuckAtFaultSimResult& r) {
  return static_cast<double>(job.nl.num_combinational_gates()) *
         static_cast<double>(r.faults + job.rounds);
}

struct Instance {
  std::string id;
  std::string bench;
  std::string tests_path;
  unsigned k = 1;
  std::vector<std::string> approaches;
  bool cnf = false;
  bool sim = false;
  Netlist nl;
  TestSet tests;
};

Instance load_instance(const JsonValue& spec, bool parse) {
  Instance inst;
  inst.id = text(spec, "id");
  inst.bench = text(spec, "bench");
  inst.tests_path = text(spec, "tests");
  if (const JsonValue* k = spec.find("k")) inst.k = static_cast<unsigned>(k->integer);
  for (const JsonValue& a : list(spec, "approaches")) {
    inst.approaches.push_back(a.string);
  }
  if (const JsonValue* v = spec.find("cnf")) inst.cnf = v->boolean;
  if (const JsonValue* v = spec.find("sim")) inst.sim = v->boolean;
  if (parse) {
    inst.nl = parse_bench_file(inst.bench);
    inst.tests = load_tests(inst.tests_path, inst.nl);
  }
  return inst;
}

/// Candidates an X-list sweep injects: combinational gates inside the fanin
/// cone of every test's erroneous output, once per 64-test batch.
double xlist_sweeps(const Netlist& nl, const TestSet& tests) {
  std::vector<bool> alive(nl.size(), true);
  for (const Test& t : tests) {
    const std::vector<bool> cone = fanin_cone(nl, {test_output_gate(nl, t)});
    for (GateId g = 0; g < nl.size(); ++g) {
      if (!cone[g]) alive[g] = false;
    }
  }
  double n = 0;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (alive[g] && nl.is_combinational(g)) ++n;
  }
  return n * static_cast<double>((tests.size() + 63) / 64);
}

void run_library(const JsonValue& plan, JsonWriter& w) {
  std::vector<FaultJob> faults;
  for (const JsonValue& spec : list(plan, "fault")) {
    faults.push_back(load_fault_job(spec));
  }
  std::vector<Instance> xlists;
  for (const JsonValue& spec : list(plan, "xlist")) {
    xlists.push_back(load_instance(spec, true));
  }
  // Each call runs `repeat` times; every call's wall is reported.
  const JsonValue* repeat_v = plan.find("repeat");
  const std::int64_t repeat = repeat_v != nullptr ? repeat_v->integer : 1;
  const RegistryValues before = registry_values();
  double evals = 0;
  w.key("round");
  w.begin_object();
  w.key("detected");
  w.begin_object();
  std::map<std::string, std::vector<double>> fault_s;
  for (const FaultJob& job : faults) {
    StuckAtFaultSimResult r;
    for (std::int64_t i = 0; i < repeat; ++i) {
      Timer t;
      r = run_fault_job(job);
      fault_s[job.id].push_back(t.seconds());
      evals += gate_evals(job, r);
    }
    w.kv(job.id, static_cast<std::uint64_t>(r.detected));
  }
  w.end_object();
  w.key("xlist");
  w.begin_object();
  std::map<std::string, std::vector<double>> xlist_s;
  for (const Instance& inst : xlists) {
    std::vector<GateId> cands;
    for (std::int64_t i = 0; i < repeat; ++i) {
      Timer t;
      cands = xlist_single_candidates(inst.nl, inst.tests);
      xlist_s[inst.id].push_back(t.seconds());
    }
    w.kv(inst.id, digest(inst.nl, singletons(cands)));
  }
  w.end_object();
  for (const auto& [key, times] :
       {std::pair{"faultsim_s", &fault_s}, std::pair{"xlist_s", &xlist_s}}) {
    w.key(key);
    w.begin_object();
    for (const auto& [id, walls] : *times) {
      w.key(id);
      w.begin_array();
      for (double t : walls) w.value(t);
      w.end_array();
    }
    w.end_object();
  }
  w.kv("sim.gate_evals", evals);
  w.key("counters");
  w.begin_object();
  for (const auto& [name, after] : registry_values()) {
    const auto it = before.find(name);
    const std::int64_t d = after - (it == before.end() ? 0 : it->second);
    if (d != 0) w.kv(name, d);
  }
  w.end_object();
  w.end_object();

  // Cross-engine check, untimed: every COV answer the CLI printed must be an
  // irredundant cover of the BSIM candidate sets of the same inputs.
  w.key("cov_checks");
  w.begin_object();
  for (const JsonValue& check : list(plan, "cov_checks")) {
    const Instance inst = load_instance(check, true);
    const BsimResult bsim = basic_sim_diagnose(inst.nl, inst.tests);
    std::uint64_t bad = 0;
    std::uint64_t checked = 0;
    for (const JsonValue& cover : list(check, "covers")) {
      std::vector<GateId> gates;
      for (const JsonValue& name : cover.array) {
        gates.push_back(inst.nl.find(name.string));
      }
      const bool known = std::find(gates.begin(), gates.end(), kNoGate) ==
                         gates.end();
      if (!known || !is_irredundant_cover(bsim.candidate_sets, gates)) ++bad;
      ++checked;
    }
    w.key(inst.id);
    w.begin_object();
    w.kv("checked", checked);
    w.kv("bad", bad);
    w.end_object();
  }
  w.end_object();
}

// ---------------------------------------------------------------------------
// layers (traced)
// ---------------------------------------------------------------------------

/// One pass over the plan's call list; with the tracer off the same calls
/// run unrecorded.
void layers_pass(const JsonValue& plan, Tracer& tr, JsonWriter& results) {
  results.key("answers");
  results.begin_object();
  for (const JsonValue& spec : list(plan, "instances")) {
    const Instance meta = load_instance(spec, false);
    for (const std::string& approach : meta.approaches) {
      // Mirrors one `satdiag_cli diagnose --approach <approach>` process:
      // cold artifact cache, parse, read tests, one engine call.
      cache::ArtifactCache::global().clear();
      const std::string req = meta.id + "/" + approach;
      Span root(tr, "cli." + approach, req);
      Netlist nl;
      {
        Span s(tr, "bench.parse", req);
        nl = parse_bench_file(meta.bench);
        if (!nl.dffs().empty()) nl = make_full_scan(nl).comb;
      }
      TestSet tests;
      {
        Span s(tr, "report.read_tests", req);
        tests = load_tests(meta.tests_path, nl);
      }
      std::vector<std::vector<GateId>> solutions;
      if (approach == "bsim") {
        Span s(tr, "diag.bsim", req, true);
        const BsimResult r = basic_sim_diagnose(nl, tests);
        s.set("marked", static_cast<double>(r.marked_union.size()));
        solutions = singletons(r.gmax);
      } else if (approach == "cov") {
        std::optional<BsimResult> bsim;
        {
          Span s(tr, "diag.bsim", req, true);
          bsim = basic_sim_diagnose(nl, tests);
        }
        Span s(tr, "diag.cov", req, true);
        const bool coverable =
            std::none_of(bsim->candidate_sets.begin(),
                         bsim->candidate_sets.end(),
                         [](const auto& set) { return set.empty(); });
        CovOptions options;
        options.k = meta.k;
        const CovResult r = coverable
                                ? solve_covering_sat(bsim->candidate_sets,
                                                     options)
                                : CovResult{};
        s.set("build_s", r.build_seconds);
        s.set("first_s", r.first_seconds);
        s.set("all_s", r.all_seconds);
        s.set("solutions", static_cast<double>(r.solutions.size()));
        s.set("complete", r.complete ? 1 : 0);
        solutions = r.solutions;
      } else if (approach == "bsat") {
        Span s(tr, "diag.bsat", req, true);
        BsatOptions options;
        options.k = meta.k;
        const BsatResult r = basic_sat_diagnose(nl, tests, options);
        obs::add_solver_stats(r.solver_stats);
        s.set("build_s", r.build_seconds);
        s.set("first_s", r.first_seconds);
        s.set("all_s", r.all_seconds);
        s.set("solutions", static_cast<double>(r.solutions.size()));
        s.set("vars", static_cast<double>(r.num_vars));
        s.set("clauses", static_cast<double>(r.num_clauses));
        s.set("complete", r.complete ? 1 : 0);
        solutions = r.solutions;
      } else if (approach == "hybrid") {
        Span s(tr, "diag.hybrid", req, true);
        HybridOptions options;
        options.mode = HybridMode::kSeedActivity;
        options.k = meta.k;
        const HybridResult r = hybrid_diagnose(nl, tests, options);
        obs::add_solver_stats(r.solver_stats);
        s.set("sim_s", r.sim_seconds);
        s.set("sat_s", r.sat_seconds);
        s.set("solutions", static_cast<double>(r.solutions.size()));
        s.set("complete", r.complete ? 1 : 0);
        solutions = r.solutions;
      } else {
        throw std::runtime_error("unknown approach '" + approach + "'");
      }
      root.close();
      results.kv(req, digest(nl, solutions));
    }

    if (!meta.cnf && !meta.sim) continue;
    Instance inst;
    {
      Span s(tr, "bench.load", meta.id);
      inst = load_instance(spec, true);
    }
    if (meta.cnf) {
      cache::ArtifactCache::global().clear();
      Span s(tr, "cnf.build", meta.id, true);
      DiagnosisInstanceOptions options;
      options.max_k = meta.k;
      options.cone_of_influence = true;
      const DiagnosisInstance built =
          build_diagnosis_instance(inst.nl, inst.tests, options);
      s.set("vars", static_cast<double>(built.solver.num_vars()));
      s.set("clauses", static_cast<double>(built.solver.num_clauses()));
    }
    if (meta.sim) {
      {
        Span s(tr, "sim.compile", meta.id);
        const CompiledNetlist compiled(inst.nl);
        s.set("gates", static_cast<double>(compiled.comb_topo().size()));
      }
      BsimResult bsim;
      {
        Span s(tr, "diag.xmask_bsim", meta.id, true);
        bsim = basic_sim_diagnose(inst.nl, inst.tests);
      }
      {
        Span s(tr, "diag.xmask", meta.id, true);
        exec::ThreadPool pool(1);
        const std::vector<std::uint64_t> masks = x_reach_masks(
            pool, inst.nl, inst.tests, bsim.marked_union);
        s.set("sweeps", static_cast<double>(masks.size()));
      }
      Span s(tr, "diag.xlist", meta.id, true);
      const std::vector<GateId> cands =
          xlist_single_candidates(inst.nl, inst.tests);
      s.set("sweeps", xlist_sweeps(inst.nl, inst.tests));
      results.kv(meta.id + "/xlist", digest(inst.nl, singletons(cands)));
    }
  }

  for (const JsonValue& spec : list(plan, "fault")) {
    const FaultJob job = load_fault_job(spec);
    Span s(tr, "fault.sim", job.id, true);
    const StuckAtFaultSimResult r = run_fault_job(job);
    s.set("faults", static_cast<double>(r.faults));
    s.set("detected", static_cast<double>(r.detected));
    s.set("gate_evals", gate_evals(job, r));
    s.close();
    results.kv(job.id + "/detected", static_cast<std::uint64_t>(r.detected));
  }

  // Setup layers, into a scratch directory of the run.
  const JsonValue* setup = plan.find("setup");
  if (setup != nullptr) {
    std::ostringstream sink;
    JsonWriter discard(sink, 0);
    discard.begin_array();
    for (const JsonValue& spec : setup->array) {
      prepare_one(spec, text(plan, "setup_dir"), tr, discard);
    }
    discard.end_array();
  }

  // Serve request path in-process: parse_request, then execute_request on
  // cold frames (empty artifact cache, first execution) and warm frames
  // (second execution, inputs cached).
  const auto serve_frames = [&](std::string_view key, bool warm) {
    for (const JsonValue& frame : list(plan, key)) {
      serve::Request request;
      std::string error;
      bool parsed = false;
      {
        Span s(tr, "serve.parse", "", false);
        parsed = serve::parse_request(frame.string, request, error);
      }
      if (!parsed) throw std::runtime_error("serve frame: " + error);
      if (warm) {
        Span s(tr, "serve.execute_prime", request.id, true);
        serve::execute_request(request, Deadline::after_seconds(300));
      }
      Span s(tr, warm ? "serve.execute_warm" : "serve.execute_cold",
             request.id, true);
      const std::string response =
          serve::execute_request(request, Deadline::after_seconds(300));
      s.close();
      results.kv("serve/" + request.id, response);
    }
  };
  cache::ArtifactCache::global().clear();
  serve_frames("serve_cold", false);
  serve_frames("serve_warm", true);
  results.end_object();
}

void run_layers(const JsonValue& plan, JsonWriter& w) {
  const JsonValue* trace = plan.find("trace");
  Tracer tracer(trace != nullptr && trace->boolean);
  Timer timer;
  layers_pass(plan, tracer, w);
  w.kv("pass_s", timer.seconds());
  w.key("spans");
  tracer.write(w);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: satbench_layers PLAN.json OUT.json\n");
    return 2;
  }
  try {
    JsonValue plan;
    std::string error;
    if (!json_parse(read_file(argv[1]), plan, error)) {
      throw std::runtime_error(std::string("plan: ") + error);
    }
    const std::string mode = text(plan, "mode");
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.begin_object();
    Timer wall;
    if (mode == "prepare") {
      Tracer off(false);
      run_prepare(plan, w, off);
    } else if (mode == "library") {
      run_library(plan, w);
    } else if (mode == "layers") {
      run_layers(plan, w);
    } else {
      throw std::runtime_error("unknown mode '" + mode + "'");
    }
    w.kv("wall_s", wall.seconds());
    w.end_object();
    os << '\n';
    write_file(argv[2], os.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "satbench_layers: %s\n", e.what());
    return 1;
  }
  return 0;
}
