#!/usr/bin/env bash
# --vanilla drill for satori_sim.
#
# variants: every SATORI variant given --vanilla runs the paper's
#   controller (no telemetry guard, retry or degraded mode) and runs
#   to completion under NaN telemetry, on every job from the start and
#   on one job after a clean prefix.
# baseline: --vanilla with a non-SATORI policy exits 2 with
#   "--vanilla requires a SATORI policy" before anything runs.
#
# Usage: cli_vanilla_test.sh <path-to-satori_sim> variants|baseline
set -u

SIM=${1:?usage: cli_vanilla_test.sh <satori_sim> variants|baseline}
MODE=${2:?usage: cli_vanilla_test.sh <satori_sim> variants|baseline}
WORK=$(mktemp -d /tmp/satori_clivanilla.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

RUN_ARGS=(--suite parsec --jobs 5 --duration 30 --vanilla)
FAIL=0

fail() {
    echo "FAIL: $*" >&2
    FAIL=1
}

case "$MODE" in
  variants)
    printf 'nan 0..600\n' > "$WORK/all.plan"
    printf 'nan 100..600 job=0\n' > "$WORK/job0.plan"
    for policy in SATORI Fairness-SATORI; do
        for plan in all job0; do
            "$SIM" "${RUN_ARGS[@]}" --policy "$policy" \
                --fault-plan "$WORK/$plan.plan" > "$WORK/out" 2>&1
            rc=$?
            [ "$rc" -eq 0 ] || fail "$policy $plan: exited $rc"
            # The guard is off, so nothing is judged unusable and the
            # degraded fallback never engages.
            grep -q "controller: 0 unusable, .* 0 degraded entries" \
                "$WORK/out" \
                || fail "$policy $plan: resilience layer still active"
        done
    done
    ;;
  baseline)
    for policy in PARTIES Balanced-Oracle; do
        "$SIM" "${RUN_ARGS[@]}" --policy "$policy" \
            > "$WORK/out" 2> "$WORK/err"
        rc=$?
        [ "$rc" -eq 2 ] || fail "$policy --vanilla: expected exit 2, got $rc"
        grep -qxF -- "--vanilla requires a SATORI policy" "$WORK/err" \
            || fail "$policy --vanilla: missing the SATORI-policy message"
        [ -s "$WORK/out" ] && fail "$policy --vanilla: ran anyway"
    done
    ;;
  *)
    echo "unknown mode: $MODE" >&2
    exit 2
    ;;
esac

if [ "$FAIL" -eq 0 ]; then
    echo "vanilla drill ($MODE): ok"
fi
exit "$FAIL"
