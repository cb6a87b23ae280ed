#!/usr/bin/env python3
"""Benchmark of satdiag over every user entry point.

Run from the root of a source checkout:

    python3 satbench/run.py --workload diag_grid --seed 1 --seconds 36 --trace 0

Workloads (inputs are pinned instance sets; --seed orders the work, draws the
open-loop arrivals, and orders the warm request blocks and the cold fills):

  diag_grid  mid-size circuits (s1423/s5378 class at full scale), p = 2-3
             injected errors, m <= 16 failing tests, k = p. SAT search and
             enumeration (sat, cnf, diag) are nearly all of the time.
  sim_sweep  s38417_like at full scale (22,179 gates): one-shot BSIM,
             stuck-at fault simulation over every fault and X-list sweeps.
             bench/netlist/sim/fault do the work; the SAT engines run only
             one single-test instance.
  serve_mix  small circuits (s298/s1423 class) served by one daemon under
             Poisson arrivals: warm cache reads, every fifth request a fresh
             copy of a served netlist (a cold fill), all four approaches, and
             periodic metrics probes.

Every workload reports every end-to-end metric, each measured on that
workload's own inputs through the entry point users run: the one-shot
`satdiag_cli diagnose`, the `satdiag_cli serve` daemon, and for fault
simulation and X-lists (no CLI command) the library calls, made by the
benchmark's driver satbench/layers.cpp. With --trace 0 the metrics are the
end-to-end metrics, measured untraced. With --trace 1 they are the per-layer
metrics of a separate traced run; satbench/METRICS.md says which end-to-end
metric each one feeds.

The first run builds the library, the CLI and the layer driver into
.bench_build/satbench. Each run writes its inputs and a full report (machine
block, work counters, per-round timings, spans) under .satbench_out/, prints
one line per metric and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.

Exit status: 0 when every output checked out; 1 on a wrong, truncated or
failed answer, a shed request, or work counters that did not repeat; 2 when
the source tree is missing or does not build.

Compare two run reports (wall moved at equal counters = the machine;
counters moved = the code):

    python3 satbench/run.py --compare A.json B.json
"""

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import random
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "satbench")
CLI = os.path.join(BUILD, "satdiag", "tools", "satdiag_cli")
LAYERS = os.path.join(BUILD, "satbench_layers")
PINNED = os.path.join(HERE, "pinned.json")

APPROACHES = ("bsim", "cov", "bsat", "hybrid")
SETUP_REPEATS = 3
# Daemon shape: one lane per request, nproc - 1 concurrent executions, and a
# queue deep enough that the client's connections never see a shed reply.
SERVE_FLAGS = ["--threads", "1", "--max-inflight", "3", "--queue-depth", "64"]
CONNECTIONS = 4
# The nominal-rate load, spread over at least SLICES slices of a run (a
# workload may ask for more): p99 needs at least ten samples beyond it
# (metrics probes are not counted).
NOMINAL_REQUESTS = 1140
SLICES = 3
# The generator fell behind (it measured the client, not the daemon) when a
# tenth of its sends left more than this late. Single host stalls only
# reach the p99, which is reported as serve.gen_late_ms.
GEN_BEHIND_MS = 10.0


def inst(iid, profile, errors, inject_seed, tests, gen_seed=1):
    return {"id": iid, "profile": profile, "scale": 1.0, "gen_seed": gen_seed,
            "errors": errors, "inject_seed": inject_seed, "tests": tests}


# Pinned instance sets. Each diag_grid instance finishes every engine well
# inside the CLI's default limit with no solution cap, so every answer is
# complete and checkable, and no cell dominates the sum. The s5378 p=2
# instances with 3-4 solutions spend their time in the UNSAT bound proofs;
# s1423_p3_m8_i4 (642 solutions) and s1423_p3_m8_i6 (6854 covers) spend it
# enumerating and blocking.
#
# Served requests are (instance, approach, weight) triples. The daemon sees
# them in blocks that hold each pair `weight` times in a seeded order, so
# every run sends the same mix. The weights put the median inside one class
# of requests (not in the gap between two classes, where the share drawn
# would decide it). The slowest class is a seventeenth to a thirteenth of
# the requests and 6 to 9 times slower than the median one, so the p99 is a
# quantile of that class's own service time rather than of single host
# stalls. Served times (warm, 4-core Xeon, seed code) are noted beside each
# class.
WORKLOADS = {
    "diag_grid": {
        "instances": [
            inst("s1423_p2_m8_i3", "s1423_like", 2, 3, 8),
            inst("s1423_p2_m16_i3", "s1423_like", 2, 3, 16),
            inst("s1423_p3_m8_i4", "s1423_like", 3, 4, 8),
            inst("s1423_p3_m8_i6", "s1423_like", 3, 6, 8),
            inst("s5378_p2_m8_i3", "s5378_like", 2, 3, 8),
            inst("s5378_p2_m16_i3", "s5378_like", 2, 3, 16),
        ],
        "cli": {"*": APPROACHES},
        "xlist": ["s1423_p2_m16_i3", "s5378_p2_m16_i3"],
        "fault": [{"id": "s5378_like", "profile": "s5378_like", "scale": 1.0,
                   "seed": 1, "rounds": 4}],
        # Served: the grid's instances through requests cheap enough for a
        # thousand-sample p99 inside one run. The median falls in the s5378
        # COV class, the p99 in the s1423 BSAT/hybrid class (2/34).
        "serve": {"warm": [("s1423_p2_m8_i3", "bsim", 6),     # 1.2 ms
                           ("s5378_p2_m8_i3", "bsim", 6),     # 1.2 ms
                           ("s5378_p2_m8_i3", "cov", 7),      # 6.9 ms
                           ("s5378_p2_m16_i3", "cov", 9),     # 7.6 ms
                           ("s1423_p2_m8_i3", "cov", 2),      # 16.5 ms
                           ("s1423_p2_m16_i3", "cov", 2),     # 16.7 ms
                           ("s1423_p2_m8_i3", "bsat", 1),     # 65 ms
                           ("s1423_p2_m8_i3", "hybrid", 1)],  # 65 ms
                  "nominal_rps": 90.0, "ladder_rps": 180.0,
                  "p99_limit_ms": 272.0},
        # A driver process's speed holds within it but differs by up to a
        # third between processes, so the library calls run in two
        # processes a slice.
        "cli_rounds": 1, "library_rounds": 2, "library_repeat": 3,
        # Root spans must cover this share of the traced driver's wall.
        "coverage_min": 0.9,
    },
    "sim_sweep": {
        "instances": [
            inst("s38417_p1_m8_i3", "s38417_like", 1, 3, 8),
            inst("s38417_p2_m16_i5", "s38417_like", 2, 5, 16),
            inst("s38417_p1_m16_i7", "s38417_like", 1, 7, 16),
            inst("s38417_p2_m8_i9", "s38417_like", 2, 9, 8),
            inst("s38417_p1_m96_i3", "s38417_like", 1, 3, 96),
            inst("s38417_p1_m1_i16", "s38417_like", 1, 16, 1),
        ],
        "cli": {"*": ("bsim",), "s38417_p1_m1_i16": APPROACHES},
        "xlist": ["s38417_p1_m8_i3", "s38417_p2_m16_i5"],
        "fault": [{"id": "s38417_like", "profile": "s38417_like", "scale": 1.0,
                   "seed": 1, "rounds": 1}],
        # BSIM cost grows with the test count; the median falls in the m=8
        # class, the p99 in the m=96 class (1/13).
        "serve": {"warm": [("s38417_p1_m1_i16", "bsim", 3),  # 4 ms
                           ("s38417_p1_m1_i16", "cov", 1),   # 4.5 ms
                           ("s38417_p1_m8_i3", "bsim", 5),   # 6.9 ms
                           ("s38417_p2_m16_i5", "bsim", 3),  # 9.9 ms
                           ("s38417_p1_m96_i3", "bsim", 1)],  # 40 ms
                  "nominal_rps": 110.0, "ladder_rps": 200.0,
                  "p99_limit_ms": 151.0},
        # The single SAT instance runs five times a round: its calls spread
        # by a third from one process to the next, and no other instance
        # shares its metrics.
        "cli_rounds": 1, "repeat": {"s38417_p1_m1_i16": 5},
        "library_repeat": 1, "coverage_min": 0.9,
    },
    "serve_mix": {
        "instances": [
            inst("s298_g1_p1_m8", "s298_like", 1, 3, 8, gen_seed=1),
            inst("s298_g2_p1_m8", "s298_like", 1, 3, 8, gen_seed=2),
            inst("s1423_g1_p1_m8", "s1423_like", 1, 3, 8, gen_seed=1),
            inst("s1423_g2_p1_m8", "s1423_like", 1, 3, 8, gen_seed=2),
        ],
        "cli": {"*": APPROACHES},
        "xlist": ["s1423_g1_p1_m8", "s1423_g2_p1_m8"],
        "fault": [{"id": "s1423_like", "profile": "s1423_like", "scale": 1.0,
                   "seed": 1, "rounds": 16}],
        # All sixteen pairs. The median falls in the 4-5 ms class, the p99
        # in the s1423 BSAT/hybrid class (4/72 of the requests).
        "serve": {"warm": [(i, a, 4) for i, a in (           # 1-1.7 ms
                               ("s298_g1_p1_m8", "bsim"), ("s298_g2_p1_m8", "bsim"),
                               ("s1423_g1_p1_m8", "bsim"), ("s1423_g2_p1_m8", "bsim"),
                               ("s298_g1_p1_m8", "cov"), ("s298_g2_p1_m8", "cov"),
                               ("s1423_g2_p1_m8", "cov"))]
                          + [(i, a, 8) for i, a in (           # 4-5 ms
                               ("s298_g1_p1_m8", "bsat"), ("s298_g2_p1_m8", "bsat"),
                               ("s298_g1_p1_m8", "hybrid"), ("s298_g2_p1_m8", "hybrid"),
                               ("s1423_g1_p1_m8", "cov"))]
                          + [(i, a, 1) for i, a in (           # 38-42 ms
                               ("s1423_g1_p1_m8", "bsat"), ("s1423_g2_p1_m8", "bsat"),
                               ("s1423_g1_p1_m8", "hybrid"), ("s1423_g2_p1_m8", "hybrid"))],
                  # Every fifth request is a cold fill (write_cold_pool);
                  # the one-shot CLI rechecks 16 of them.
                  "cold": {"every": 5, "check": 16},
                  "probe_every": 40,
                  "nominal_rps": 90.0, "ladder_rps": 270.0,
                  "p99_limit_ms": 166.0},
        "cli_rounds": 2, "library_rounds": 2, "library_repeat": 3,
        # Four slices a run: the load is the point of this workload, and a
        # fixed count keeps the sample count the same from run to run.
        "slices": 4,
    },
}

# Calibrated on a 4-core Xeon (AVX-512) at the seed code: nominal_rps keeps
# the daemon's three lanes an eighth to a third busy, and p99_limit_ms is 4
# times the median of three unloaded p99s (20 req/s, 1200 requests each; 900
# on serve_mix) measured at different times: diag_grid 68.0, 67.7, 68.1 ms;
# sim_sweep 48.9, 37.8, 37.4 ms; serve_mix 41.5, 45.5, 40.4 ms. The shared
# host's latency moves 2-3x between quiet and busy periods; a limit from one
# quiet period can fail every rung in a busy one.
# Ladder rung i offers ladder_rps * LADDER_STEP**i, 0 <= i < LADDER_SIZE: 16
# rungs in 8% steps over 3.2x. ladder_rps lies 20-55% below the lowest
# max_rps measured on the workload at the seed code (diag_grid 227,
# sim_sweep 272, serve_mix 583 req/s) and the top rung 25-60% above the
# highest (420, 400, 680), so the ladder spans the capacity with room on
# both sides. Near capacity the pass or miss of a 1.5 s rung is close to a
# coin toss over a +-20% band of rates, and of a 3 s rung over about +-6%;
# longer rungs narrow it further.
LADDER_STEP = 1.08
LADDER_SIZE = 16
LADDER_RUNG_S = 3.5
LADDER_RUNGS = 4  # binary search over rungs 1-15; rung 0 only if none passes


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def fnv_digest(solutions):
    """Order-independent digest of a solution set (same as layers.cpp)."""
    rendered = sorted("".join(n + "," for n in sorted(s)) for s in solutions)
    h = 1469598103934665603
    for s in rendered:
        for c in (s + ";").encode():
            h ^= c
            h = (h * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def median(values):
    return statistics.median(values) if values else float("nan")


def nearest_rank(values, q):
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Run:
    """Attempted/failed bookkeeping plus the detail report of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.report = {}

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def measured(args, stdout_path):
    """Run one child to completion; returns (wall_s, rc, stdout, maxrss_kb)."""
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path) as f:
        text = f.read()
    return wall, proc.returncode, text, usage.ru_maxrss


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("satbench: no satdiag source tree at %s" % ROOT)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "satdiag_cli", "satbench_layers"])
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            log((proc.stdout + proc.stderr)[-4000:])
            log("satbench: build failed")
            sys.exit(2)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def layers(out_dir, name, plan):
    plan_path = os.path.join(out_dir, name + ".plan.json")
    result_path = os.path.join(out_dir, name + ".out.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    _, rc, text, rss = measured([LAYERS, plan_path, result_path],
                                os.path.join(out_dir, name + ".log"))
    if rc != 0:
        raise RuntimeError("layer driver %s failed: %s" % (name, text[-500:]))
    with open(result_path) as f:
        return json.load(f), rss


def base_of(iid):
    """The pinned instance a cold copy "coldNNNNN-<id>" was made from."""
    return iid.split("-", 1)[1] if iid.startswith("cold") else iid


def bench_path(inputs, iid):
    return os.path.join(inputs, iid + ".bench")


def tests_path(inputs, iid):
    return os.path.join(inputs, base_of(iid) + ".tests")


def cli_pairs(wl):
    pairs = []
    for spec in wl["instances"]:
        for approach in wl["cli"].get(spec["id"], wl["cli"]["*"]):
            pairs.append((spec["id"], approach))
    return pairs


def served_pairs(wl):
    """The distinct (instance, approach) pairs a workload serves."""
    return [(iid, a) for iid, a, _ in wl["serve"]["warm"]]


def served_block(wl):
    """One block of the served mix: each pair `weight` times."""
    return [(iid, a) for iid, a, w in wl["serve"]["warm"] for _ in range(w)]


def k_of(wl, iid):
    for spec in wl["instances"]:
        if spec["id"] == base_of(iid):
            return spec["errors"]
    return 1


# ---------------------------------------------------------------------------
# One-shot CLI
# ---------------------------------------------------------------------------

def parse_cli(approach, text):
    """Solutions and completeness from `satdiag_cli diagnose` stdout."""
    lines = text.splitlines()
    if not lines:
        return None, False
    if approach == "bsim":
        sols = [[l.split()[0]] for l in lines[1:] if "(M=" in l]
        return sols, True
    sols = []
    for line in lines[1:]:
        line = line.strip()
        if line.startswith("{") and line.endswith("}"):
            body = line[1:-1]
            sols.append([n.strip() for n in body.split(",")] if body else [])
    try:
        count = int(lines[0].split()[0])
    except ValueError:
        return None, False
    complete = "(truncated)" not in lines[0] and count == len(sols)
    return sols, complete


def counters_of(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError):
        return {}
    return {k: v for k, v in data.items() if isinstance(v, int)}


def cli_diagnose(wl, inputs, out_dir, iid, approach):
    stats = os.path.join(out_dir, "stats-%s-%s.json" % (iid, approach))
    args = [CLI, "diagnose", bench_path(inputs, iid), "--tests",
            tests_path(inputs, iid), "--approach", approach,
            "--k", str(k_of(wl, iid)), "--threads", "1", "--stats-json", stats]
    wall, rc, text, rss = measured(args, os.path.join(out_dir, "cli.log"))
    sols, complete = parse_cli(approach, text) if rc == 0 else (None, False)
    digest = fnv_digest(sols) if sols is not None else None
    return {"wall": wall, "rc": rc, "digest": digest, "complete": complete,
            "solutions": sols, "counters": counters_of(stats), "rss_kb": rss}


def cli_round(run, wl, inputs, out_dir, rng, first, walls):
    """One pass over every (instance, approach) pair, each `repeat` times, in
    a seeded order; appends each call's wall to walls[pair]. `first` keeps
    each pair's first answer so later calls must repeat its digest and
    counters."""
    order = [p for p in cli_pairs(wl)
             for _ in range(wl.get("repeat", {}).get(p[0], 1))]
    rng.shuffle(order)
    for iid, approach in order:
        r = cli_diagnose(wl, inputs, out_dir, iid, approach)
        key = iid + "/" + approach
        walls.setdefault(key, []).append(r["wall"])
        ok = r["rc"] == 0 and r["complete"]
        if key in first:
            ok = ok and r["digest"] == first[key]["digest"]
            if r["counters"] != first[key]["counters"]:
                run.failures.append("counters of %s did not repeat" % key)
        else:
            first[key] = r
        run.op(ok, "one-shot %s: rc=%d complete=%s" % (key, r["rc"], r["complete"]))
        run.report.setdefault("rss_kb", []).append(r["rss_kb"])


def summed_medians(walls, suffix=""):
    """Sum over calls (pairs, jobs) of each call's median wall."""
    return sum(median(w) for k, w in walls.items() if k.endswith(suffix))


def merged(rounds, key):
    """Per-call wall lists of the library rounds, merged over rounds."""
    out = {}
    for r in rounds:
        for call, times in r[key].items():
            out.setdefault(call, []).extend(times)
    return out


# ---------------------------------------------------------------------------
# Daemon and open-loop client
# ---------------------------------------------------------------------------

class Daemon:
    def __init__(self, out_dir):
        self.log_path = os.path.join(out_dir, "serve.log")
        self.log = open(self.log_path, "w")
        self.rss_kb = 0
        self.port = None
        self.proc = subprocess.Popen([CLI, "serve", "--port", "0"] + SERVE_FLAGS,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True, cwd=ROOT)
        line = self.proc.stdout.readline().strip()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError("serve did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def rpc(self, frames):
        """Closed-loop requests on one connection; returns parsed replies."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=120) as s:
            f = s.makefile("rw", encoding="utf-8", newline="\n")
            replies = []
            for frame in frames:
                f.write(frame + "\n")
                f.flush()
                replies.append(json.loads(f.readline()))
            return replies

    def hwm_kb(self):
        """Peak RSS of the running daemon so far (VmHWM)."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        """Shut the daemon down and reap it with wait4, which gives its peak
        RSS. Popen.poll() and wait() reap without the rusage, so they are not
        called before it."""
        if self.proc.returncode is None:
            try:
                if self.port is None:
                    raise OSError("serve never listened")
                self.rpc([json.dumps({"id": "bye", "command": "shutdown"})])
            except OSError:
                self.proc.terminate()
            deadline = time.monotonic() + 10
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            while not pid and time.monotonic() < deadline:
                time.sleep(0.02)
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if not pid:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_kb = usage.ru_maxrss
        self.proc.stdout.close()
        self.log.close()


def diagnose_frame(rid, inputs, iid, approach, k):
    return json.dumps({"id": rid, "command": "diagnose",
                       "positional": [bench_path(inputs, iid)],
                       "args": {"tests": tests_path(inputs, iid),
                                "approach": approach, "k": k}})


class Mix:
    """Seeded request stream of one workload: warm pairs in weighted blocks
    (served_block), cold fills and metrics probes."""

    def __init__(self, wl, inputs, seed, cold_pool):
        self.wl = wl
        self.inputs = inputs
        self.rng = random.Random(seed * 104729 + 3)
        self.cold = list(cold_pool)
        self.written = len(cold_pool)  # cold copies numbered 0..written-1
        self.block = []
        self.exhausted = 0  # cold draws sent warm because the pool ran out
        self.n = 0

    def next(self):
        serve = self.wl["serve"]
        self.n += 1
        rid = "r%d" % self.n
        probe = serve.get("probe_every")
        if probe and self.n % probe == 0:
            return ("probe", None), json.dumps({"id": rid, "command": "metrics"})
        cold = serve.get("cold")
        if cold and self.n % cold["every"] == 1:
            if self.cold:
                return self.frame(rid, *self.cold.pop(0))
            self.exhausted += 1
        if not self.block:
            self.block = served_block(self.wl)
            self.rng.shuffle(self.block)
        return self.frame(rid, *self.block.pop())

    def top_up(self, seed, requests):
        """Write cold copies until `requests` more cannot exhaust the pool."""
        need = cold_needed(self.wl, requests) - len(self.cold)
        if need > 0:
            self.cold += write_cold_pool(self.wl, seed, self.inputs, need,
                                         first=self.written)
            self.written += need

    def frame(self, rid, iid, approach):
        return (iid, approach), diagnose_frame(
            rid, self.inputs, iid, approach, k_of(self.wl, iid))


async def open_loop(port, mix, rate, count, seed):
    """Poisson arrivals at `rate` for `count` requests over CONNECTIONS
    connections. Latency runs from each request's scheduled send time."""
    loop = asyncio.get_running_loop()
    rng = random.Random(seed)
    queue = asyncio.Queue()
    done = []
    lates = []
    backlog = []
    t0 = loop.time() + 0.02
    schedule = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        schedule.append(t)

    async def generator():
        for offset in schedule:
            due = t0 + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lates.append(max(0.0, loop.time() - due))
            queue.put_nowait((due, mix.next()))
            backlog.append(queue.qsize())
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def connection():
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 26)
        try:
            while True:
                job = await queue.get()
                if job is None:
                    return
                due, (what, frame) = job
                writer.write(frame.encode() + b"\n")
                await writer.drain()
                line = await reader.readline()
                done.append((what, due, loop.time(), line))
        finally:
            writer.close()

    await asyncio.gather(generator(), *[connection() for _ in range(CONNECTIONS)])
    return {"done": done, "lates": lates, "backlog": backlog}


def check_replies(run, seg, expected, cold_answers):
    """Latencies (ms) of diagnose replies, their queue waits, the shed count
    and the server-side execute seconds of cold fills and warm reads; every
    reply is one operation."""
    lat = []
    waits = []
    overloaded = 0
    execute = {"cold": 0.0, "warm": 0.0}
    for what, due, end, line in seg["done"]:
        try:
            reply = json.loads(line)
        except ValueError:
            run.op(False, "unparseable reply")
            continue
        status = reply.get("status")
        if status == "overloaded":
            overloaded += 1
        if what[0] == "probe":
            run.op(status == "ok", "metrics probe status %s" % status)
            continue
        ok = status == "ok"
        if ok:
            result = reply["report"]["result"]
            digest = fnv_digest(result["corrections"])
            key = what[0] + "/" + what[1]
            if what[0].startswith("cold"):
                cold_answers[key] = digest
            ok = (digest == expected.get(base_of(what[0]) + "/" + what[1])
                  and result["complete"])
            wall = reply["report"]["wall_seconds"]
            waits.append((end - due) * 1e3 - wall * 1e3)
            execute["cold" if what[0].startswith("cold") else "warm"] += wall
        run.op(ok, "served %s/%s: %s" % (what[0], what[1], status))
        lat.append((end - due) * 1e3)
    return lat, waits, overloaded, execute


def segment(run, daemon, mix, rate, count, seed, expected, cold_answers):
    gc.disable()  # no collector pauses inside the client's schedule
    try:
        seg = asyncio.run(open_loop(daemon.port, mix, rate, count, seed))
    finally:
        gc.enable()
    lat, waits, overloaded, execute = check_replies(run, seg, expected,
                                                    cold_answers)
    lates_ms = [x * 1e3 for x in seg["lates"]]
    third = max(1, len(seg["backlog"]) // 3)
    growing = (statistics.fmean(seg["backlog"][-third:])
               > 2 * statistics.fmean(seg["backlog"][:third]) + CONNECTIONS)
    return {"rate": rate, "count": count, "lat": lat, "waits": waits,
            "overloaded": overloaded,
            "cold_requests": sum(w[0].startswith("cold") for w, *_ in seg["done"]),
            "execute_cold_s": execute["cold"], "execute_warm_s": execute["warm"],
            "gen_late_p99_ms": nearest_rank(lates_ms, 0.99),
            "behind": nearest_rank(lates_ms, 0.9) > GEN_BEHIND_MS,
            "backlog_max": max(seg["backlog"]), "backlog_growing": growing}


def merge_segments(segs):
    out = {"lat": [], "waits": [], "overloaded": 0, "count": 0,
           "cold_requests": 0, "execute_cold_s": 0.0, "execute_warm_s": 0.0,
           "gen_late_p99_ms": 0.0, "behind": False, "backlog_max": 0}
    for seg in segs:
        for key in ("lat", "waits", "overloaded", "count", "cold_requests",
                    "execute_cold_s", "execute_warm_s"):
            out[key] += seg[key]
        out["gen_late_p99_ms"] = max(out["gen_late_p99_ms"], seg["gen_late_p99_ms"])
        out["behind"] = out["behind"] or seg["behind"]
        out["backlog_max"] = max(out["backlog_max"], seg["backlog_max"])
    return out


def cold_exec_share(seg):
    """Share of the daemon's execute time that went to cold fills."""
    total = seg["execute_cold_s"] + seg["execute_warm_s"]
    return seg["execute_cold_s"] / total if total else 0.0


def ladder(run, wl, daemon, mix, seed, expected, cold_answers):
    """Highest rung meeting the p99 limit with no failure, no shed reply, no
    growing backlog and a generator on schedule. A binary search over rungs
    1 to LADDER_SIZE - 1 runs LADDER_RUNGS of them; the lowest rung runs only
    when none of those passes. When it fails too, the result is its rate and
    the run fails."""
    serve = wl["serve"]
    rungs = []

    def rung(i):
        rate = serve["ladder_rps"] * LADDER_STEP ** i
        mix.top_up(seed, int(rate * LADDER_RUNG_S))
        before = len(run.failures)
        seg = segment(run, daemon, mix, rate, int(rate * LADDER_RUNG_S),
                      seed * 1000 + len(rungs), expected, cold_answers)
        seg["index"] = i
        seg["p99_ms"] = nearest_rank(seg["lat"], 0.99)
        seg["pass"] = (len(run.failures) == before and seg["overloaded"] == 0
                       and seg["p99_ms"] <= serve["p99_limit_ms"]
                       and not seg["backlog_growing"] and not seg["behind"])
        rungs.append({k: v for k, v in seg.items() if k not in ("lat", "waits")})
        return seg["pass"]

    lo, hi = 0, LADDER_SIZE  # lo passes (rung 0 is checked last), hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rung(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0 and not rung(0):
        run.op(False, "no ladder rung met the p99 limit")
    return rungs, serve["ladder_rps"] * LADDER_STEP ** lo


# ---------------------------------------------------------------------------
# Set-up: inputs, daemon start and warm-up
# ---------------------------------------------------------------------------

def cold_needed(wl, requests):
    cold = wl["serve"].get("cold")
    return int(requests / cold["every"]) + 50 if cold else 0


def write_cold_pool(wl, seed, inputs, count, first=0):
    """Cold fills: copies of the served instances, each with one extra AND
    gate that drives nothing, over a pair of signals that differs from copy
    to copy. Content and structure are new to the daemon, so the parsed
    netlist, the test set and the CNF templates all miss its cache. A gate
    outside every output cone is never a correction, so a copy's answer is
    its base instance's. Returns (copy id, approach) pairs in blocks of the
    served mix (served_block), each in a seeded order, so a run's cold work
    does not depend on the seed. Copy numbers start at `first`."""
    rng = random.Random(seed * 7919 + 17 + first)
    texts, names, pool, block = {}, {}, [], []
    for n in range(first, first + count):
        if not block:
            block = served_block(wl)
            rng.shuffle(block)
        base, approach = block.pop()
        if base not in texts:
            with open(bench_path(inputs, base)) as f:
                texts[base] = f.read().rstrip("\n") + "\n"
            names[base] = [l.split("=")[0].strip() if "=" in l else l[6:-1]
                           for l in texts[base].splitlines()
                           if not l.startswith("#")
                           and ("=" in l or l.startswith("INPUT("))]
        sig = names[base]
        i = n % len(sig)
        a, b = sig[i], sig[(i + 1 + n // len(sig)) % len(sig)]
        cid = "cold%05d-%s" % (n, base)
        with open(bench_path(inputs, cid), "w") as f:
            f.write(texts[base] + "satbench_cold = AND(%s, %s)\n" % (a, b))
        pool.append((cid, approach))
    return pool


def setup(run, wl, seed, seconds, out_dir, inputs, with_daemon=True):
    """gen -> full-scan -> inject -> testgen of every input and the cold
    copies, then daemon start and one warm-up request per served pair."""
    t0 = time.perf_counter()
    prepared, _ = layers(out_dir, "prepare", {"mode": "prepare", "dir": inputs,
                                                 "instances": wl["instances"]})
    for r in prepared["instances"]:
        run.op(r["ok"], "prepare %s" % r["id"])
    # Cold copies for every nominal slice the run has time for.
    per_slice = math.ceil(NOMINAL_REQUESTS / SLICES)
    nominal = per_slice * (SLICES + 1) + seconds * wl["serve"]["nominal_rps"]
    cold_pool = write_cold_pool(wl, seed, inputs, cold_needed(wl, nominal))
    daemon = None
    if with_daemon:
        daemon = Daemon(out_dir)
        frames = [diagnose_frame("w%d" % n, inputs, iid, a, k_of(wl, iid))
                  for n, (iid, a) in enumerate(served_pairs(wl))]
        for reply in daemon.rpc(frames):
            run.op(reply.get("status") == "ok", "warm-up %s" % reply.get("id"))
    return time.perf_counter() - t0, daemon, cold_pool


# ---------------------------------------------------------------------------
# Library phase and checks
# ---------------------------------------------------------------------------

def xlist_plan(wl, inputs):
    return [{"id": iid, "bench": bench_path(inputs, iid),
             "tests": tests_path(inputs, iid)} for iid in wl["xlist"]]


def library_round(run, wl, inputs, out_dir, cov_checks, first):
    """One round of the library calls in a fresh driver process. Answers,
    registry deltas and gate evaluations must repeat the first round's."""
    plan = {"mode": "library", "fault": wl["fault"],
            "xlist": xlist_plan(wl, inputs), "cov_checks": cov_checks,
            "repeat": wl["library_repeat"]}
    out, rss = layers(out_dir, "library", plan)
    run.report.setdefault("rss_kb", []).append(rss)
    r = out["round"]
    if first:
        run.op(r["detected"] == first["detected"] and r["xlist"] == first["xlist"],
               "fault-sim/x-list answers did not repeat")
        if (r["counters"] != first["counters"]
                or r["sim.gate_evals"] != first["sim.gate_evals"]):
            run.failures.append("library counters did not repeat")
    else:
        first.update(r)
        run.op(True, "library round")
    for iid, c in out["cov_checks"].items():
        run.op(c["bad"] == 0 and c["checked"] > 0,
               "COV answers of %s not irredundant covers (%d bad)" % (iid, c["bad"]))
    return r


def cov_checks_from(wl, inputs, answers):
    checks = []
    for key, r in answers.items():
        iid, approach = key.split("/")
        if approach == "cov" and r["solutions"] is not None:
            checks.append({"id": iid, "bench": bench_path(inputs, iid),
                           "tests": tests_path(inputs, iid),
                           "covers": r["solutions"]})
    return checks


def load_pins():
    try:
        with open(PINNED) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def check_pins(run, name, digests, detected, xlists):
    """Answers against the digests pinned from the seed code."""
    pins = load_pins().get(name)
    if pins is None:
        run.failures.append("no pinned answers for %s" % name)
        return
    for key, digest in digests.items():
        run.op(pins["answers"].get(key) == digest, "answer %s differs from pin" % key)
    for key, n in detected.items():
        run.op(pins["detected"].get(key) == n, "fault.detected of %s differs from pin" % key)
    for key, digest in xlists.items():
        run.op(pins["xlist"].get(key) == digest, "x-list of %s differs from pin" % key)


def cross_engine(run, digests):
    """BSAT and hybrid return the same solution sets."""
    for key, digest in digests.items():
        iid, approach = key.split("/")
        if approach == "bsat" and iid + "/hybrid" in digests:
            run.op(digests[iid + "/hybrid"] == digest,
                   "BSAT and hybrid disagree on %s" % iid)


def check_cold(run, wl, inputs, out_dir, cold_answers):
    """A served cold diagnose returns what the one-shot CLI returns."""
    cold = wl["serve"].get("cold")
    if not cold:
        return
    for key in sorted(cold_answers)[: cold["check"]]:
        iid, approach = key.split("/")
        args = [CLI, "diagnose", bench_path(inputs, iid), "--tests",
                tests_path(inputs, iid), "--approach", approach,
                "--k", str(k_of(wl, iid)), "--threads", "1"]
        _, rc, text, _ = measured(args, os.path.join(out_dir, "cold-check.log"))
        sols, complete = parse_cli(approach, text)
        ok = rc == 0 and complete and cold_answers[key] == fnv_digest(sols)
        run.op(ok, "served cold %s differs from one-shot CLI" % key)


# ---------------------------------------------------------------------------
# Machine block
# ---------------------------------------------------------------------------

def machine():
    model = ""
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and not model:
                    model = line.split(":", 1)[1].strip()
                if line.startswith("flags") and not flags:
                    flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    # Calibration microkernel: a fixed integer loop, median of three.
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(time.perf_counter() - t0)
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "avx2": "avx2" in flags, "avx512f": "avx512f" in flags,
            "python": platform.python_version(),
            "calibration_s": median(times)}


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def untraced(run, wl, name, seed, seconds, out_dir, inputs):
    t_run = time.perf_counter()
    setups = []
    daemon = None
    cold_pool = []
    for rep in range(SETUP_REPEATS):
        wall, d, cold_pool = setup(run, wl, seed, seconds, out_dir, inputs)
        setups.append(wall)
        if rep < SETUP_REPEATS - 1:
            d.stop()
            run.report.setdefault("rss_kb", []).append(d.rss_kb)
        else:
            daemon = d
    # The host's speed drifts within seconds, so every metric samples the
    # whole run: each slice makes one round of the one-shot calls, one round
    # of the library calls and one stretch of the nominal-rate load.
    serve = wl["serve"]
    # Slices beyond the workload's minimum run only when one more fits
    # before the ladder (its rungs plus their drains) is due, so a run lasts
    # about `seconds` whenever its minimum of work fits in them.
    t_end = t_run + seconds - LADDER_RUNGS * LADDER_RUNG_S - 1.5
    slice_s = []
    rng = random.Random(seed)
    answers = {}
    lib_first = {}
    walls, lib, segs = {}, [], []
    cold_answers = {}
    mix = Mix(wl, inputs, seed, cold_pool)
    try:
        n = 0
        while (n < wl.get("slices", SLICES)
               or time.perf_counter() + median(slice_s) < t_end):
            t_slice = time.perf_counter()
            for _ in range(wl["cli_rounds"]):
                cli_round(run, wl, inputs, out_dir, rng, answers, walls)
            for i in range(wl.get("library_rounds", 1)):
                checks = cov_checks_from(wl, inputs, answers) if n == i == 0 else []
                lib.append(library_round(run, wl, inputs, out_dir, checks,
                                         lib_first))
            expected = {k: r["digest"] for k, r in answers.items()}
            segs.append(segment(run, daemon, mix, serve["nominal_rps"],
                                math.ceil(NOMINAL_REQUESTS / SLICES),
                                seed * 100 + n, expected, cold_answers))
            slice_s.append(time.perf_counter() - t_slice)
            n += 1
            if n == SLICES:
                # The daemon's RSS grows with every cold fill it caches, so
                # its peak is taken after a fixed amount of work: the
                # nominal-rate load of the first SLICES slices.
                run.report.setdefault("rss_kb", []).append(daemon.hwm_kb())
        rungs, max_rps = ladder(run, wl, daemon, mix, seed, expected,
                                cold_answers)
    finally:
        daemon.stop()
    run.report["daemon_final_rss_kb"] = daemon.rss_kb
    nominal = merge_segments(segs)
    check_cold(run, wl, inputs, out_dir, cold_answers)
    digests = {k: r["digest"] for k, r in answers.items()}
    cross_engine(run, digests)
    check_pins(run, name, digests, lib[0]["detected"], lib[0]["xlist"])

    lat = nominal["lat"]
    if nominal["behind"]:
        run.failures.append("load generator fell behind its schedule")
    if mix.exhausted:
        run.failures.append("cold pool ran out (%d draws)" % mix.exhausted)

    metrics = {
        "setup_s": (median(setups), "s"),
        "bsat_s": (summed_medians(walls, "/bsat"), "s"),
        "cov_s": (summed_medians(walls, "/cov"), "s"),
        "hybrid_s": (summed_medians(walls, "/hybrid"), "s"),
        "bsim_s": (summed_medians(walls, "/bsim"), "s"),
        "faultsim_s": (summed_medians(merged(lib, "faultsim_s")), "s"),
        "xlist_s": (summed_medians(merged(lib, "xlist_s")), "s"),
        "serve.p50_ms": (median(lat), "ms"),
        "serve.p99_ms": (nearest_rank(lat, 0.99), "ms"),
        "serve.max_rps": (max_rps, "req/s"),
        "peak_rss_mb": (max(run.report["rss_kb"]) / 1024.0, "MB"),
    }
    run.report.update({
        "setup_s": setups,
        "cli_walls": walls,
        "library_rounds": lib,
        "answers": digests,
        "counters": {k: r["counters"] for k, r in answers.items()},
        "serve": {"nominal": {k: v for k, v in nominal.items()
                              if k not in ("lat", "waits")},
                  "slices": n,
                  "nominal_samples": len(lat),
                  "samples_beyond_p99": len(lat) - math.ceil(0.99 * len(lat)),
                  "cold_request_share": nominal["cold_requests"] / nominal["count"],
                  "cold_exec_share": cold_exec_share(nominal),
                  "rungs": rungs,
                  "p99_limit_ms": wl["serve"]["p99_limit_ms"]},
    })
    return metrics


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per layer (span-name prefix): duration minus what child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_us"] - s["start_us"]
    out = {}
    for i, s in enumerate(spans):
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s["end_us"] - s["start_us"] - child[i]) / 1e6
    return out


def traced(run, wl, name, seed, seconds, out_dir, inputs):
    _, daemon, cold_pool = setup(run, wl, seed, seconds, out_dir, inputs)
    try:
        # Untraced reference pass: one round of every one-shot call and one
        # round of the library calls, whose answers the driver must repeat.
        answers = {}
        walls = {}
        cli_round(run, wl, inputs, out_dir, random.Random(seed), answers, walls)
        library_round(run, wl, inputs, out_dir,
                      cov_checks_from(wl, inputs, answers), {})
        expected = {k: r["digest"] for k, r in answers.items()}

        # One driver process per one-shot call, as the CLI starts one, plus
        # one for the remaining layers; each runs with spans off, then on.
        warm = served_pairs(wl)
        warm_frames = [diagnose_frame("warm%d" % n, inputs, iid, a, k_of(wl, iid))
                       for n, (iid, a) in enumerate(warm)]
        cold_frames = ([diagnose_frame("cold%d" % n, inputs, iid, a, k_of(wl, iid))
                        for n, (iid, a) in enumerate(cold_pool[-8:])]
                       if cold_pool else warm_frames)
        setup_dir = os.path.join(out_dir, "setup-layers")
        os.makedirs(setup_dir, exist_ok=True)
        sat_ids = {iid for iid, a in cli_pairs(wl) if a == "bsat"}
        plans = [{"instances": [{"id": iid, "bench": bench_path(inputs, iid),
                                 "tests": tests_path(inputs, iid),
                                 "k": k_of(wl, iid), "approaches": [a]}]}
                 for iid, a in cli_pairs(wl)]
        plans.append({
            "instances": [{"id": iid, "bench": bench_path(inputs, iid),
                           "tests": tests_path(inputs, iid), "k": k_of(wl, iid),
                           "approaches": [], "cnf": iid in sat_ids,
                           "sim": iid in wl["xlist"]}
                          for iid in sorted(sat_ids | set(wl["xlist"]))],
            "fault": wl["fault"],
            "setup": wl["instances"][:4],
            "setup_dir": setup_dir,
            "serve_warm": warm_frames, "serve_cold": cold_frames})
        spans, answers_layers = [], {}
        untraced_s = traced_s = roots_s = 0.0
        for n, plan in enumerate(plans):
            plan["mode"] = "layers"
            plan["trace"] = False
            off, _ = layers(out_dir, "layers", plan)
            plan["trace"] = True
            on, rss = layers(out_dir, "layers", plan)
            run.report.setdefault("rss_kb", []).append(rss)
            untraced_s += off["pass_s"]
            traced_s += on["pass_s"]
            roots_s += sum((s["end_us"] - s["start_us"]) / 1e6
                           for s in on["spans"] if s["parent"] < 0)
            base = len(spans)
            for span in on["spans"]:
                if span["parent"] >= 0:
                    span["parent"] += base
                span["process"] = n
                spans.append(span)
            answers_layers.update(on["answers"])

        # Short live segment at the nominal rate for queueing and cache.
        mix = Mix(wl, inputs, seed, cold_pool[:-8])
        probe = json.dumps({"id": "probe", "command": "metrics"})
        before = daemon.rpc([probe])[0]["report"]["metrics"]
        cold_answers = {}
        seg = segment(run, daemon, mix, wl["serve"]["nominal_rps"], 300, seed,
                      expected, cold_answers)
        after = daemon.rpc([probe])[0]["report"]["metrics"]
    finally:
        daemon.stop()

    for key, digest in answers_layers.items():
        if key.startswith("serve/"):
            reply = json.loads(digest)
            run.op(reply.get("status") == "ok", "in-process serve %s" % key)
        elif key in expected:
            run.op(digest == expected[key], "in-process %s differs from CLI" % key)

    def spans_named(n):
        return [s for s in spans if s["name"] == n]

    def total(n):
        return sum((s["end_us"] - s["start_us"]) / 1e6 for s in spans_named(n))

    def fsum(n, f):
        return sum(s["fields"].get(f, 0.0) for s in spans_named(n))

    def reg(metric):
        return sum(s["fields"].get("reg." + metric, 0.0) for s in spans)

    def ms_median(n):
        return median([(s["end_us"] - s["start_us"]) / 1e3 for s in spans_named(n)])

    fault_s = total("fault.sim")
    evals = fsum("fault.sim", "gate_evals")
    sat_time = total("diag.bsat") + total("diag.hybrid")
    hits = after.get("cache.hits", 0) - before.get("cache.hits", 0)
    misses = after.get("cache.misses", 0) - before.get("cache.misses", 0)
    # Span coverage within the traced driver processes: time inside root
    # spans over each process's own wall of its call list.
    coverage = roots_s / traced_s
    if coverage < wl.get("coverage_min", 0.0):
        run.failures.append("spans cover %.3f of the traced wall (< %.2f)"
                            % (coverage, wl["coverage_min"]))
    self_by_layer = self_times(spans)

    metrics = {
        "bench.parse_s": (total("bench.parse"), "s"),
        "netlist.scan_s": (total("netlist.scan"), "s"),
        "sim.compile_s": (total("sim.compile"), "s"),
        "sim.gate_evals": (evals, "count"),
        "sim.gate_evals_per_s": (evals / fault_s, "1/s"),
        "fault.sim_s": (fault_s, "s"),
        "fault.detected": (fsum("fault.sim", "detected"), "count"),
        "fault.patterns_per_s": (fsum("fault.sim", "faults") * 64 / fault_s, "1/s"),
        "diag.bsim_s": (total("diag.bsim"), "s"),
        "diag.xmask_s": (total("diag.xmask"), "s"),
        "diag.xlist_s": (total("diag.xlist"), "s"),
        "diag.xlist_sweeps": (fsum("diag.xmask", "sweeps") + fsum("diag.xlist", "sweeps"), "count"),
        "fault.inject_s": (total("fault.inject"), "s"),
        "fault.testgen_s": (total("fault.testgen"), "s"),
        "gen.generate_s": (total("gen.generate"), "s"),
        "cnf.build_s": (total("cnf.build"), "s"),
        "cnf.vars": (fsum("cnf.build", "vars"), "count"),
        "cnf.clauses": (fsum("cnf.build", "clauses"), "count"),
        "cnf.templates_built": (reg("cnf.templates_built"), "count"),
        "cnf.copies_stamped": (reg("cnf.copies_stamped"), "count"),
        "cnf.clauses_stamped": (reg("cnf.clauses_stamped"), "count"),
        "diag.bsat_build_s": (fsum("diag.bsat", "build_s"), "s"),
        "diag.bsat_first_s": (fsum("diag.bsat", "first_s"), "s"),
        "diag.bsat_all_s": (fsum("diag.bsat", "all_s"), "s"),
        "diag.bsat_solutions": (fsum("diag.bsat", "solutions"), "count"),
        "diag.hybrid_sim_s": (fsum("diag.hybrid", "sim_s"), "s"),
        "diag.hybrid_sat_s": (fsum("diag.hybrid", "sat_s"), "s"),
        "diag.cov_build_s": (fsum("diag.cov", "build_s"), "s"),
        "diag.cov_first_s": (fsum("diag.cov", "first_s"), "s"),
        "diag.cov_all_s": (fsum("diag.cov", "all_s"), "s"),
        "diag.cov_solutions": (fsum("diag.cov", "solutions"), "count"),
    }
    for c in ("conflicts", "decisions", "propagations", "restarts", "learned",
              "inprocess_runs", "vars_eliminated", "subsumed", "vivified"):
        metrics["sat." + c] = (reg("sat." + c), "count")
    metrics["sat.propagations_per_s"] = (reg("sat.propagations") / sat_time, "1/s")
    metrics.update({
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "cache.evictions": (after.get("cache.evictions", 0) - before.get("cache.evictions", 0), "count"),
        "cache.bytes": (after.get("cache.bytes", 0), "bytes"),
        "serve.parse_us": (median([(s["end_us"] - s["start_us"]) for s in spans_named("serve.parse")]), "us"),
        "serve.execute_warm_ms": (ms_median("serve.execute_warm"), "ms"),
        "serve.execute_cold_ms": (ms_median("serve.execute_cold"), "ms"),
        "serve.queue_wait_ms": (median(seg["waits"]), "ms"),
        "serve.overloaded": (seg["overloaded"], "count"),
        "serve.gen_late_ms": (seg["gen_late_p99_ms"], "ms"),
        "serve.backlog": (seg["backlog_max"], "count"),
        "serve.cold_exec_share": (cold_exec_share(seg), "ratio"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    for layer in ("cli", "bench", "report", "netlist", "sim", "diag", "cnf",
                  "fault", "gen", "setup", "serve"):
        metrics["self.%s_s" % layer] = (self_by_layer.get(layer, 0.0), "s")
    run.report.update({"spans": spans, "self_s": self_by_layer,
                       "coverage": {"root_spans_s": roots_s, "traced_s": traced_s},
                       "layers_wall": {"untraced_s": untraced_s,
                                       "traced_s": traced_s}})
    return metrics


# ---------------------------------------------------------------------------
# Pinning and comparison
# ---------------------------------------------------------------------------

def pin_answers(name, out_dir, inputs):
    """Record the answers of the current code as the pinned reference."""
    wl = WORKLOADS[name]
    run = Run()
    setup(run, wl, 1, 0, out_dir, inputs, with_daemon=False)
    answers = {}
    cli_round(run, wl, inputs, out_dir, random.Random(1), answers, {})
    lib = library_round(run, wl, inputs, out_dir, [], {})
    if run.failures:
        log("pin: %s" % run.failures[:5])
        sys.exit(1)
    pins = load_pins()
    pins[name] = {"answers": {k: r["digest"] for k, r in answers.items()},
                  "detected": lib["detected"], "xlist": lib["xlist"]}
    with open(PINNED, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log("pinned %s" % name)


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    same_counters = a.get("counters") == b.get("counters") and [
        r.get("counters") for r in a.get("library_rounds", [])[:1]] == [
        r.get("counters") for r in b.get("library_rounds", [])[:1]]
    for key in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
        change = (vb - va) / va if va else float("nan")
        print("%-24s %14.6g %14.6g %+7.1f%%" % (key, va, vb, 100 * change))
    print("work counters: %s" % ("equal: wall moved at equal counters (the machine)"
                                 if same_counters else "counters moved (the code)"))


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="record the current code's answers in pinned.json")
    ap.add_argument("--compare", nargs=2, metavar="REPORT")
    args = ap.parse_args()
    # A terminated run still unwinds, so the daemon it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    build()
    wl = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".satbench_out", "%s-s%d-t%d" % (
        args.workload, args.seed, args.trace))
    inputs = os.path.join(out_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    if args.pin:
        pin_answers(args.workload, out_dir, inputs)
        return 0

    run = Run()
    run.report["machine"] = machine()
    run.report["workload"] = args.workload
    run.report["seed"] = args.seed
    t0 = time.perf_counter()
    measure = traced if args.trace else untraced
    metrics = measure(run, wl, args.workload, args.seed, args.seconds,
                      out_dir, inputs)
    run.report["run_wall_s"] = time.perf_counter() - t0
    # Cold copies are only needed while the run lasts; a run writes a
    # thousand or more of them.
    for entry in os.listdir(inputs):
        if entry.startswith("cold"):
            os.remove(os.path.join(inputs, entry))
    failed = len(run.failures)
    attempted = max(run.attempted, failed, 1)
    run.report["fail_ratio"] = failed / attempted
    run.report["failures"] = run.failures[:50]
    run.report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report_path = os.path.join(ROOT, ".satbench_out", "%s-s%d-t%d.json" % (
        args.workload, args.seed, args.trace))
    with open(report_path, "w") as f:
        json.dump(run.report, f, indent=1)

    for key, (value, unit) in metrics.items():
        print("%-24s %14.6g %s" % (key, value, unit))
    print("fail_ratio               %14.6g (%d/%d)" % (failed / attempted, failed, attempted))
    serve = run.report.get("serve", {})
    if serve.get("cold_request_share"):
        print("serve cold fills         %14.6g of requests, %.4g of execute time"
              % (serve["cold_request_share"], serve["cold_exec_share"]))
    for what in run.failures[:10]:
        print("FAILED: %s" % what)
    print("report: %s" % os.path.relpath(report_path, ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": run.report["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
