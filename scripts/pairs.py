#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``.

    python3 scripts/pairs.py PARENT_DIR CHANGE_DIR --workload ooc-cliques-p2 \\
        --pairs 10 --seconds 20 --seed 1

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout
(each in its own directory, one run at a time); the side that runs
first alternates from pair to pair, so a drift in host speed does not
favour one side.  For every end-to-end metric of the change's
``BENCHMARK.json`` the script prints the per-pair values, both
medians, the parent's inter-quartile range and how many pairs the
change won (strictly better in the metric's ``better`` direction).
It exits non-zero if a run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """One ``perfbench/run.py`` run in *checkout*; its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    # Each checkout must import its own ``src``, never the caller's.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        result["correct"] = False
    return result


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values: dict[str, dict[str, list[float]]] = {s: {} for s in sides}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args)
            ok = ok and bool(result["correct"])
            for name, m in result["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs,"
          f" --seconds {args.seconds:g}")
    for name, direction in better.items():
        par = values["parent"].get(name, [])
        chg = values["change"].get(name, [])
        if not par or len(par) != len(chg):
            print(f"{name}: missing values (parent {len(par)}, change {len(chg)})")
            ok = False
            continue
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        mp, mc = statistics.median(par), statistics.median(chg)
        rel = (mc - mp) / mp * 100 if mp else 0.0
        print(f"{name} ({direction} is better)")
        print("  parent " + " ".join(f"{v:.6g}" for v in par))
        print("  change " + " ".join(f"{v:.6g}" for v in chg))
        same = ", bitwise equal in every pair" if par == chg else ""
        print(f"  median {mp:.6g} -> {mc:.6g} ({rel:+.2f}%),"
              f" parent IQR {iqr(par):.6g}, change won {won} of {len(par)}"
              f"{same}")
    if not ok:
        print("a run failed or reported correct: false", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
