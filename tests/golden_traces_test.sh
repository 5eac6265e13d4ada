#!/usr/bin/env bash
# Golden decision-trace drill for satori_sim.
#
# Regenerates every checked-in decision trace under tests/golden/ -
# the three Oracles, SATORI on PARSEC and on CloudSuite under the
# escalating fault plan, and the five baselines - and cmps each
# against its golden. Any byte of drift fails.
#
# Usage: golden_traces_test.sh <path-to-satori_sim> <golden-dir>
set -u

SIM=${1:?usage: golden_traces_test.sh <satori_sim> <golden-dir>}
GOLDEN=${2:?usage: golden_traces_test.sh <satori_sim> <golden-dir>}
WORK=$(mktemp -d /tmp/satori_golden.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

PARSEC5=blackscholes,canneal,fluidanimate,freqmine,streamcluster
FAIL=0

# check NAME ARGS...: run satori_sim with ARGS and cmp the trace
# against $GOLDEN/NAME.csv.
check() {
    local name=$1
    shift
    "$SIM" "$@" --trace "$WORK/$name.csv" > /dev/null
    local rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: $name: satori_sim exited $rc" >&2
        FAIL=1
        return
    fi
    if ! cmp "$WORK/$name.csv" "$GOLDEN/$name.csv"; then
        echo "FAIL: $name: trace differs from $GOLDEN/$name.csv" >&2
        FAIL=1
    fi
}

for kind in Balanced Throughput Fairness; do
    lower=$(echo "$kind" | tr '[:upper:]' '[:lower:]')
    check "oracle_${lower}_parsec5" --mix "$PARSEC5" \
        --policy "$kind-Oracle" --duration 24
done
check satori_parsec5 --mix "$PARSEC5" --policy SATORI --duration 30
check satori_cloudsuite3_escalating --suite cloudsuite --jobs 3 \
    --policy SATORI --fault-preset escalating --duration 30
for policy in CLITE PARTIES dCAT CoPart Random; do
    lower=$(echo "$policy" | tr '[:upper:]' '[:lower:]')
    check "${lower}_parsec5" --mix "$PARSEC5" --policy "$policy" \
        --duration 15
done

if [ "$FAIL" -eq 0 ]; then
    echo "golden trace drill: all 10 decision traces byte-identical"
fi
exit "$FAIL"
