#!/usr/bin/env bash
# Golden-file regression tests for the satdiag CLI output formats.
#
# The fixtures under tests/cli/golden/ (a small faulty circuit + its failing
# test set) are static, checked-in files; the expected outputs of
# `diagnose` (all four approaches, plus the usage error of an out-of-range
# --k) and `experiment --csv` are compared
# byte-for-byte after normalizing wall-clock fields, so any drift in the
# output format — solution lines, table columns, counts — fails ctest
# (`cli.golden`).
#
# Re-record after an intentional format change:
#     RECORD=1 tests/cli/cli_golden_test.sh ./build/tools/satdiag_cli \
#         tests/cli/golden
set -euo pipefail

CLI="$1"
GOLDEN_DIR="$2"
RECORD="${RECORD:-0}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

CIRCUIT="$GOLDEN_DIR/faulty.bench"
TESTS="$GOLDEN_DIR/tests.txt"
for fixture in "$CIRCUIT" "$TESTS"; do
  if [ ! -f "$fixture" ]; then
    echo "missing fixture $fixture" >&2
    exit 1
  fi
done

# Replace wall-clock numbers ("0.03s", "sim 0.01s + sat 0.02s", CSV timing
# cells) with a stable token; everything else must match exactly.
normalize() {
  sed -E 's/[0-9]+\.[0-9]+s/<T>s/g'
}
# Experiment tables: the first three columns (I, p, m) and every
# non-timing marker are stable; timing cells become <T> (a trailing '*'
# truncation marker is kept — it is semantic, not timing).
normalize_csv() {
  awk -F, 'NR == 1 { print; next }
           { for (i = 4; i <= NF; i++) sub(/[0-9]+\.[0-9]+/, "<T>", $i); print }' OFS=,
}

check() {
  local name="$1"
  local golden="$GOLDEN_DIR/$name.golden"
  if [ "$RECORD" = "1" ]; then
    cp "$TMP/$name.out" "$golden"
    echo "recorded $golden"
    return 0
  fi
  if ! diff -u "$golden" "$TMP/$name.out"; then
    echo "FAIL: $name output drifted from $golden" >&2
    echo "re-record with: RECORD=1 tests/cli/cli_golden_test.sh <cli> $GOLDEN_DIR" >&2
    exit 1
  fi
}

"$CLI" diagnose "$CIRCUIT" --tests "$TESTS" --approach bsim \
    | normalize > "$TMP/diagnose_bsim.out"
check diagnose_bsim

"$CLI" diagnose "$CIRCUIT" --tests "$TESTS" --approach cov --k 2 \
    | normalize > "$TMP/diagnose_cov.out"
check diagnose_cov

"$CLI" diagnose "$CIRCUIT" --tests "$TESTS" --approach bsat --k 2 \
    | normalize > "$TMP/diagnose_bsat.out"
check diagnose_bsat

"$CLI" diagnose "$CIRCUIT" --tests "$TESTS" --approach hybrid --k 2 \
    | normalize > "$TMP/diagnose_hybrid.out"
check diagnose_hybrid

# An out-of-range --k is a usage error naming the flag (exit 2), never a
# crash or a false "0 valid corrections".
for k in 0 -1; do
  rc=0
  "$CLI" diagnose "$CIRCUIT" --tests "$TESTS" --approach bsat --k "$k" \
      > /dev/null 2> "$TMP/err" || rc=$?
  echo "k=$k exit=$rc: $(cat "$TMP/err")"
done > "$TMP/diagnose_bad_k.out"
check diagnose_bad_k

"$CLI" stats "$CIRCUIT" > "$TMP/stats.out"
check stats

"$CLI" experiment --circuits s298_like,s526_like --errors 1 --tests 4,6 \
    --scale 0.5 --seed 3 --limit 60 --csv \
    | normalize_csv > "$TMP/experiment_csv.out"
check experiment_csv

echo PASS
