"""Benchmark of the protosurv pipeline.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``. Workloads: crit7_fold, slides_paper, cohort_metrics, cli_eval (see
README.md beside this file). Each run sets its workload up several times,
runs one untimed warm-up operation where operations repeat, then runs
whole rounds of operations until ``--seconds`` have passed and checks every
output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` wrappers around the
program's functions record spans and the metrics are the per-layer ones.
A fuller record of the run, with the machine and library versions, goes to
``bench/results/``.
"""

import os

# one BLAS / OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
RESULTS = BENCH / "results"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("crit7_fold", "slides_paper", "cohort_metrics", "cli_eval")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_program() -> float:
    """Import numpy and protosurv from ``src/``; return the seconds it took."""
    if not (SOURCE / "protosurv" / "__init__.py").is_file():
        raise SystemExit(f"error: no protosurv sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import protosurv

    elapsed = time.perf_counter() - start
    if not Path(protosurv.__file__).resolve().is_relative_to(SOURCE):
        raise SystemExit(f"error: protosurv imported from {protosurv.__file__}, not from {SOURCE}")
    return elapsed


def environment() -> dict:
    import numpy as np

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            sha = ref
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def measure(workload, seconds: float) -> dict:
    """Set up, warm up, then time whole rounds of operations for ``seconds``."""
    from oracles import CheckFailed
    from protosurv.errors import ProtosurvError
    from workloads import SetupFailed

    setup_s = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        try:
            workload.setup()
        except ProtosurvError as exc:
            raise SetupFailed(str(exc)) from exc
        setup_s.append(time.perf_counter() - start)

    problems: list[str] = []

    def checked(output):
        try:
            return workload.check(output)
        except CheckFailed as exc:
            problems.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)
            return None

    index = 0
    if workload.warmup:
        gc.collect()
        checked(workload.operation(index))
        index += 1

    durations, qualities = [], []
    items = attempted = failed = 0
    start = time.perf_counter()
    while attempted % workload.round_size or attempted == 0 or time.perf_counter() - start < seconds:
        gc.collect()
        attempted += 1
        began = time.perf_counter()
        try:
            output = workload.operation(index)
        except ProtosurvError as exc:
            failed += 1
            print(f"operation {index} failed: {exc}", file=sys.stderr)
            continue
        finally:
            index += 1
        durations.append(time.perf_counter() - began)
        items += workload.items(output)
        quality = checked(output)
        if quality is not None:
            qualities.append(quality)
    return {
        "setup_s": setup_s,
        "durations_s": durations,
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "qualities": qualities,
        "problems": problems,
    }


def end_to_end(import_s: float, run: dict) -> dict:
    durations = run["durations_s"]
    return {
        "setup_s": (import_s + statistics.median(run["setup_s"]), "s"),
        "items_per_s": (run["items"] / sum(durations) if durations else 0.0, "1/s"),
        "op_ms.p50": (statistics.median(durations) * 1e3 if durations else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "quality": (statistics.median(run["qualities"]) if run["qualities"] else 0.0, "1"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    sys.path.insert(0, str(BENCH))
    from tracing import LAYER_METRICS, Tracer
    from workloads import WORKLOADS, SetupFailed

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer, WORK)
    if tracer is not None:
        tracer.install()
    try:
        run = measure(workload, args.seconds)
    except SetupFailed as exc:
        print(f"error: {args.workload} seed {args.seed}: setup failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    e2e = end_to_end(import_s, run)
    layers = {}
    if tracer is not None:
        layers = {name: (0.0, unit) for name, unit in LAYER_METRICS.items()}
        for name, value in workload.layer_metrics(tracer).items():
            layers[name] = (float(value), LAYER_METRICS[name])
    reported = layers if tracer is not None else e2e
    result = {
        "correct": not run["problems"] and run["attempted"] > run["failed"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in reported.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "environment": environment(),
        "import_s": import_s,
        **run,
        "end_to_end": {name: v for name, (v, _) in e2e.items()},
        "per_layer": {name: v for name, (v, _) in layers.items()},
        "result": result,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(RESULTS / f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        print("end-to-end with tracing on: " + json.dumps({k: v for k, (v, _) in e2e.items()}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
