#!/usr/bin/env bash
# End-to-end smoke test for the `satdiag serve` daemon over real TCP:
# start the server on an ephemeral port, then drive it with a python3
# newline-delimited-JSON client covering ping, diagnose (twice, to check
# the warm artifact-cache path), metrics, a malformed frame, usage errors
# (an out-of-range k, more threads than the daemon's), and a clean
# `shutdown` request. The served diagnose corrections must be identical
# to a one-shot `satdiag diagnose` run over the same fixtures.
set -euo pipefail

CLI="$1"
TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

if ! command -v python3 >/dev/null 2>&1; then
  echo "SKIP: python3 not found (needed for the JSON client)" >&2
  exit 0
fi

"$CLI" gen --profile s298_like --seed 7 --out "$TMP/c.bench" > /dev/null
"$CLI" inject "$TMP/c.bench" --errors 1 --seed 3 \
    --out "$TMP/faulty.bench" --tests-out "$TMP/tests.txt" > /dev/null

# One-shot reference run; correction lines look like "{g12, g30}".
"$CLI" diagnose "$TMP/faulty.bench" --tests "$TMP/tests.txt" \
    --approach bsat --k 2 | grep '^{' | sort > "$TMP/oneshot.txt"
if [ ! -s "$TMP/oneshot.txt" ]; then
  echo "FAIL: one-shot diagnose produced no corrections" >&2
  exit 1
fi

"$CLI" serve --port 0 > "$TMP/serve.log" 2>&1 &
SERVE_PID=$!

# The daemon prints "serving on 127.0.0.1:PORT" once the socket is bound.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$TMP/serve.log" 2>/dev/null || true)"
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "FAIL: serve exited before binding:" >&2
    cat "$TMP/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "FAIL: serve never printed its port:" >&2
  cat "$TMP/serve.log" >&2
  exit 1
fi

python3 - "$PORT" "$TMP/faulty.bench" "$TMP/tests.txt" "$TMP/oneshot.txt" <<'EOF'
import json, socket, sys

port, bench, tests, oneshot_path = sys.argv[1:5]

sock = socket.create_connection(("127.0.0.1", int(port)), timeout=30)
sock_file = sock.makefile("rw", encoding="utf-8", newline="\n")

def rpc(request):
    sock_file.write(json.dumps(request) + "\n")
    sock_file.flush()
    line = sock_file.readline()
    assert line.endswith("\n"), "response frame not newline-terminated"
    return json.loads(line)

def rpc_raw(frame):
    sock_file.write(frame + "\n")
    sock_file.flush()
    return json.loads(sock_file.readline())

def check(cond, message):
    if not cond:
        sys.exit("FAIL: " + message)

resp = rpc({"id": "p1", "command": "ping"})
check(resp.get("status") == "ok" and resp.get("id") == "p1",
      "ping failed: %r" % resp)

diagnose = {"id": "d1", "command": "diagnose", "positional": [bench],
            "args": {"tests": tests, "approach": "bsat", "k": 2}}
resp = rpc(diagnose)
check(resp.get("status") == "ok", "diagnose failed: %r" % resp)
report = resp["report"]
check(report.get("schema") == "satdiag.report",
      "unexpected report schema: %r" % report.get("schema"))
served = sorted("{%s}" % ", ".join(c)
                for c in report["result"]["corrections"])
with open(oneshot_path) as f:
    oneshot = sorted(line.strip() for line in f if line.strip())
check(served == oneshot,
      "served corrections %r != one-shot %r" % (served, oneshot))

def cache_hits():
    resp = rpc({"id": "m", "command": "metrics"})
    check(resp.get("status") == "ok", "metrics failed: %r" % resp)
    return resp["report"]["metrics"]["cache.hits"]

cold = cache_hits()
diagnose["id"] = "d2"
resp = rpc(diagnose)
check(resp.get("status") == "ok", "repeat diagnose failed: %r" % resp)
check(sorted("{%s}" % ", ".join(c)
             for c in resp["report"]["result"]["corrections"]) == oneshot,
      "repeat diagnose diverged from one-shot run")
warm = cache_hits()
check(warm > cold, "warm repeat did not raise cache.hits (%d -> %d)"
      % (cold, warm))

resp = rpc_raw("this is not json")
check(resp.get("status") == "error"
      and resp.get("error", {}).get("code") == "bad_request",
      "malformed frame not rejected as bad_request: %r" % resp)

def usage_error(request, flag):
    resp = rpc(request)
    error = resp.get("error", {})
    check(resp.get("status") == "error" and error.get("code") == "bad_request"
          and flag in error.get("message", ""),
          "%s not rejected as bad_request naming %s: %r"
          % (request["id"], flag, resp))

# An out-of-range k is the request's fault: a bad_request reply, and the
# same daemon keeps answering.
usage_error(dict(diagnose, id="k1", args=dict(diagnose["args"], k="-1")),
            "--k")
resp = rpc({"id": "p2", "command": "ping"})
check(resp.get("status") == "ok", "ping after bad k failed: %r" % resp)

# The daemon runs with --threads 1, so a request may not ask for 2 lanes
# (rejected before any engine starts a thread).
usage_error(dict(diagnose, id="t1", args=dict(diagnose["args"], threads="2")),
            "--threads")

resp = rpc({"id": "s", "command": "shutdown"})
check(resp.get("status") == "ok", "shutdown failed: %r" % resp)
print("client OK")
EOF

# The shutdown request must terminate the daemon promptly and cleanly.
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "FAIL: serve still running after shutdown request" >&2
  exit 1
fi
wait "$SERVE_PID"
SERVE_PID=""
grep -q "serve: shut down" "$TMP/serve.log" || {
  echo "FAIL: missing shutdown message:" >&2
  cat "$TMP/serve.log" >&2
  exit 1
}

echo PASS
