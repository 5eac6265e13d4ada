#!/usr/bin/env bash
# Flag-value validation drill for satori_sim.
#
# Every numeric flag goes through one checked parser, and every
# fixed-choice flag (output formats) through another: a token that is
# not a whole number, lies outside the flag's range, or is not one of
# the flag's choices must exit 2 with "invalid value for --<flag>:
# <token>" before anything runs.
#
# Usage: cli_numeric_flags_test.sh <path-to-satori_sim>
set -u

SIM=${1:?usage: cli_numeric_flags_test.sh <satori_sim>}
WORK=$(mktemp -d /tmp/satori_cliflags.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

RUN_ARGS=(--mix canneal,swaptions --policy SATORI --cores 6 --ways 6 --bw 6)
FAIL=0

fail() {
    echo "FAIL: $*" >&2
    FAIL=1
}

# expect_invalid FLAG TOKEN: the run must exit 2 and name both.
expect_invalid() {
    "$SIM" "${RUN_ARGS[@]}" "$1" "$2" > /dev/null 2> "$WORK/err"
    local rc=$?
    [ "$rc" -eq 2 ] || fail "$1 $2: expected exit 2, got $rc"
    grep -qxF -- "invalid value for $1: $2" "$WORK/err" \
        || fail "$1 $2: missing 'invalid value for $1: $2' on stderr"
}

expect_invalid --jobs abc      # bad integer
expect_invalid --cores 6x      # trailing junk after an integer
expect_invalid --duration abc  # bad real
expect_invalid --duration -5   # negative duration
expect_invalid --duration 0    # durations must be positive
expect_invalid --seed -1       # seeds must be non-negative
expect_invalid --trace-format json    # only csv | jsonl
expect_invalid --metrics-format json  # only prom | jsonl

# A well-formed run still goes through.
"$SIM" "${RUN_ARGS[@]}" --duration 1.5 --seed 0 --noise 0 > /dev/null \
    || fail "valid numeric flags: exited $?"

if [ "$FAIL" -eq 0 ]; then
    echo "flag value drill: all invalid values rejected with exit 2"
fi
exit "$FAIL"
