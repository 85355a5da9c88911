"""Compare the benchmark's end-to-end metrics between two checkouts.

    python3 tools/bench_compare.py PARENT CHANGE --workload W --seconds S --seeds 0 1 2 ...

PARENT and CHANGE are the roots of two source checkouts (for example a
``git archive`` of the parent commit and the working tree). For each seed the
tool runs ``bench/run.py --workload W --seed n --seconds S --trace 0`` once in
each checkout, one process at a time; the parent runs first for the first
seed, the change first for the next, and so on. It prints every run's
metrics, then for each end-to-end metric of ``BENCHMARK.json`` (read from
PARENT) the median and quartiles of each side and how many pairs each side
won; a pair whose values are equal counts for neither. A run that exits
nonzero stops the tool; a run with ``correct`` false or a failed operation is
flagged in its line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per end-to-end metric of ``metrics`` (``BENCHMARK.json`` entries
    with ``name``, ``unit`` and ``better``) over ``pairs`` of (parent, change)
    metric values, each a dict of metric name to value."""
    rows = []
    for metric in metrics:
        name, lower_is_better = metric["name"], metric["better"] == "lower"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        change_wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": change_wins,
            "parent_wins": len(pairs) - change_wins - ties,
            "pairs": len(pairs),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    head = f"{'metric':<14} {'unit':<4} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} wins c/p"
    lines = [head]
    for row in rows:
        sides = [f"{q2:.4g} [{q1:.4g}, {q3:.4g}]" for q1, q2, q3 in (row["parent"], row["change"])]
        wins = f"{row['change_wins']}/{row['parent_wins']} of {row['pairs']}"
        lines.append(f"{row['name']:<14} {row['unit']:<4} {sides[0]:<34} {sides[1]:<34} {wins}")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its JSON result line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {checkout}: seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for i, seed in enumerate(args.seeds):
        sides = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            values = {name: entry["value"] for name, entry in result["metrics"].items()}
            flag = "" if result["correct"] and result["failed"] == 0 else "  FLAGGED"
            shown = " ".join(f"{m['name']}={values[m['name']]:.6g}" for m in metrics)
            print(f"seed {seed} {side:<6} failed {result['failed']}/{result['attempted']} {shown}{flag}", flush=True)
            sides[side] = values
        pairs.append((sides["parent"], sides["change"]))
    print(f"\n{args.workload}, {len(pairs)} pairs, --seconds {args.seconds:g}")
    print(format_rows(summarize(metrics, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
