#!/usr/bin/env bash
# One-shot local gate: tier-1 suite, a perfbench smoke run, then the
# opt-in benchmark guards on the reduced smoke profile.
#
#   scripts/check.sh            # tier-1 + perfbench smoke + bench guards
#   scripts/check.sh --fast     # tier-1 only
#
# Tier-1 must pass unchanged.  The perfbench smoke stage runs every
# ``BENCHMARK.json`` workload for one second
# (``perfbench/run.py --workload all --seconds 1``); each operation's
# membership and recomputed-codelength checks run at full strength, and
# any workload reporting ``correct: false`` fails this script.  The
# bench stage runs every
# ``--run-bench`` guard (wire round throughput, recorded with no
# floor and checked against its payload schedule; swap cycle, tracing
# overhead, live-telemetry overhead/fidelity, procs-vs-threads
# scaling, out-of-core ingest parse/build/RSS, incremental warm-start
# work/quality, nonblocking-overlap wait/throughput) with
# ``REPRO_BENCH_SMOKE=1`` so
# the whole gate finishes in a few minutes; the procs guard's
# backend-equivalence assertions (bitwise memberships, codelength
# trajectories, per-phase logical ledger totals) run at full strength
# either way — an equivalence mismatch fails this script.  Wall-clock
# speedup thresholds auto-skip on hosts without enough cores.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier 1: tests/ =="
python -m pytest -x -q

if [[ "${1:-}" == "--fast" ]]; then
    echo "== skipping perfbench smoke and bench guards (--fast) =="
    exit 0
fi

echo "== perfbench smoke: every workload, 1 s =="
python3 perfbench/run.py --workload all --seconds 1

echo "== bench guards (smoke profile) =="
REPRO_BENCH_SMOKE=1 python -m pytest benchmarks/ --run-bench -q

echo "== check.sh: all gates passed =="
