#!/bin/sh
# Regression harness for dynospan's checkpoint failure modes and the chaos
# subcommand's determinism:
#   - a garbage/truncated/mismatched checkpoint exits with code 2 and a
#     single diagnostic line on stderr, never an OCaml backtrace;
#   - --recover heals any of those into a successful run;
#   - chaos with equal seeds prints byte-identical reports;
#   - an out-of-range argument is a usage error (exit 124), never an
#     uncaught exception from the library.
set -eu

BIN=$1
case "$BIN" in */*) ;; *) BIN="./$BIN" ;; esac
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

WORKLOAD="-n 48 --seed 3 --decoys 100 -k 2"

fail() {
  echo "check_corrupt: $1" >&2
  exit 1
}

# Expect exit 2, one-line stderr, no backtrace.
expect_clean_failure() {
  label=$1
  file=$2
  set +e
  "$BIN" resume $WORKLOAD --file "$file" >/dev/null 2>"$TMP/err"
  code=$?
  set -e
  [ "$code" -eq 2 ] || fail "$label: expected exit 2, got $code"
  lines=$(wc -l <"$TMP/err")
  [ "$lines" -eq 1 ] || { cat "$TMP/err" >&2; fail "$label: expected one diagnostic line, got $lines"; }
  grep -q "dynospan:" "$TMP/err" || fail "$label: diagnostic missing dynospan: prefix"
  if grep -q -e "Fatal error" -e "Raised at" -e "Called from" "$TMP/err"; then
    cat "$TMP/err" >&2
    fail "$label: diagnostic looks like an OCaml backtrace"
  fi
}

# A real checkpoint to damage.
"$BIN" checkpoint $WORKLOAD --file "$TMP/good.ckpt" >/dev/null
[ -s "$TMP/good.ckpt" ] || fail "checkpoint file is empty"

printf 'this is not a checkpoint at all' >"$TMP/garbage.ckpt"
expect_clean_failure "garbage" "$TMP/garbage.ckpt"

size=$(wc -c <"$TMP/good.ckpt")
head -c "$((size / 2))" "$TMP/good.ckpt" >"$TMP/cut.ckpt"
expect_clean_failure "truncated" "$TMP/cut.ckpt"

expect_clean_failure "missing file" "$TMP/does-not-exist.ckpt"

# Bit flip in the middle: checksum must catch it.
mid=$((size / 2))
head -c "$mid" "$TMP/good.ckpt" >"$TMP/flip.ckpt"
printf 'X' >>"$TMP/flip.ckpt"
tail -c +"$((mid + 2))" "$TMP/good.ckpt" >>"$TMP/flip.ckpt"
cmp -s "$TMP/good.ckpt" "$TMP/flip.ckpt" && fail "flip: damage did not change the file"
expect_clean_failure "bit flip" "$TMP/flip.ckpt"

# The intact checkpoint still resumes.
"$BIN" resume $WORKLOAD --file "$TMP/good.ckpt" >/dev/null 2>&1 \
  || fail "intact checkpoint no longer resumes"

# --recover turns a damaged checkpoint into a recomputed (successful) run.
"$BIN" resume $WORKLOAD --recover --file "$TMP/flip.ckpt" >"$TMP/recovered" 2>&1 \
  || fail "--recover failed on a damaged checkpoint"
grep -q "recomputed pass 1" "$TMP/recovered" || fail "--recover did not report recomputation"

# Recovered output matches an uninterrupted run, spanner hash included.
"$BIN" spanner $WORKLOAD >"$TMP/direct" 2>&1
h1=$(grep "spanner-hash" "$TMP/recovered")
h2=$(grep "spanner-hash" "$TMP/direct")
[ "$h1" = "$h2" ] || fail "recovered spanner differs from direct run ($h1 vs $h2)"

# Chaos runs are replayable: equal seeds, byte-identical reports.
CHAOS="chaos -n 40 --seed 5 --decoys 100 --servers 3 --rate 0.10 --fault-seed 7"
"$BIN" $CHAOS >"$TMP/chaos1" 2>&1 || fail "chaos run failed"
"$BIN" $CHAOS >"$TMP/chaos2" 2>&1 || fail "chaos rerun failed"
cmp -s "$TMP/chaos1" "$TMP/chaos2" || fail "chaos reports differ across reruns"
grep -q "correct=true" "$TMP/chaos1" || fail "chaos run did not decode a correct forest"

# Out-of-range arguments: cmdliner's usage error, not an internal error.
expect_usage_error() {
  set +e
  "$BIN" "$@" >/dev/null 2>"$TMP/err"
  code=$?
  set -e
  [ "$code" -eq 124 ] || { cat "$TMP/err" >&2; fail "$*: expected exit 124, got $code"; }
  if grep -q -e "internal error" -e "uncaught exception" "$TMP/err"; then
    cat "$TMP/err" >&2
    fail "$*: reported as an internal error"
  fi
}

while read -r args; do
  # shellcheck disable=SC2086 # each line is an argument list
  expect_usage_error $args
done <<EOF
spanner -n 1
forest -n 1
spanner -n 0
spanner -k 0
checkpoint -k 0 --file $TMP/k0.ckpt
trace -k 0
sparsify -k 0
offline -k 0
additive -d 0
sparsify --eps 0
sparsify1p --eps 1.5
chaos --servers 0
chaos --rate 2
chaos-serve --dir $TMP/serve --rate 2
spanner --graph nosuch
offline --algo nosuch
trace --algo nosuch
EOF

echo "check_corrupt: all checks passed"
