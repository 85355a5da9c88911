"""Print one crit7 training step's traced memory and fold 0's training time, peak RSS and page faults through one checkout.

    python3 tools/step_memory.py CHECKOUT [--d-e E] [--d-r R] [--mode M] [--epochs N]

CHECKOUT is the root of a source checkout. Like ``tools/crit7_digest.py``, the
tool runs a child Python with ``CHECKOUT/src`` on ``PYTHONPATH``, on the
criterion-7 cohort (300 patients, seed 11) prepared with
``TrainConfig(seed=1, d_e=E, d_r=R, fusion_mode=M)`` (defaults 64, 16 and
full, the crit7 widths; 256 and 32 are the paper's). It prints two lines:

- ``step``: one batch-64 step on the cohort's first 64 patients, under
  ``tracemalloc``. ``tape`` is the memory the forward holds when the loss
  is ready, and ``backward peak`` the traced peak of forward and backward.
- ``fold0``: ``train`` for N epochs (default 20, the benchmark's) on fold 0's
  training patients of ``kfold_split(ids, 5, 1)``, in a fresh child. It
  reports the wall time of ``train``, the child's peak RSS
  (``ru_maxrss / 1024``, as the benchmark's ``peak_rss_mb``) and the minor
  page faults taken during ``train`` (``resource.getrusage``).

Run it on two checkouts, one after the other on an idle machine, to compare
them; set ``OPENBLAS_NUM_THREADS=1`` for stable times.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

COHORT = dict(
    n_patients=300, n_segments=(3, 8), n_patches=(64, 128), d_t=16, d_h=16,
    n_genes=200, n_pathways=50, signal_modality="pathway",
    signal_strength=2.5, censoring_rate=0.25, seed=11,
)
N_FOLDS = 5
SEED = 1
BATCH = 64
# the child imports this file from its directory and protosurv from PYTHONPATH
CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import step_memory; "
    "print(getattr(step_memory, sys.argv[2])(*map(int, sys.argv[3:5]), sys.argv[5], int(sys.argv[6])))"
)


def _prepared(d_e: int, d_r: int, mode: str, epochs: int):
    from protosurv.data import SyntheticSpec, synth_cohort
    from protosurv.pipeline import build_prepared
    from protosurv.survival import TrainConfig

    config = TrainConfig(seed=SEED, d_e=d_e, d_r=d_r, fusion_mode=mode, epochs=epochs)
    prepared, dims, _ = build_prepared(synth_cohort(SyntheticSpec(**COHORT)), config)
    return prepared, dims, config


def step_line(d_e: int, d_r: int, mode: str, epochs: int) -> str:
    """The ``step`` line, computed with the protosurv on ``sys.path``."""
    import tracemalloc

    import numpy as np

    from protosurv.model import forward_risks, init_params
    from protosurv.numerics import Tensor
    from protosurv.rng import substream
    from protosurv.survival import cox_loss

    prepared, dims, config = _prepared(d_e, d_r, mode, epochs)
    batch = prepared.subset(np.arange(BATCH))
    values = init_params(dims, substream(config.seed, "init"))
    tracemalloc.start()
    try:
        leaves = {name: Tensor(v, requires_grad=True) for name, v in values.items()}
        loss, _ = cox_loss(forward_risks(batch, leaves, dims, mode), (batch.times, batch.events))
        tape, _ = tracemalloc.get_traced_memory()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return f"step   {mode} d_e {d_e} d_r {d_r}  tape {tape / 2**20:.1f} MiB  backward peak {peak / 2**20:.1f} MiB"


def fold_line(d_e: int, d_r: int, mode: str, epochs: int) -> str:
    """The ``fold0`` line, computed with the protosurv on ``sys.path``."""
    import resource
    import time

    import numpy as np

    from protosurv.data import kfold_split
    from protosurv.survival import train

    prepared, _, config = _prepared(d_e, d_r, mode, epochs)
    held = set(kfold_split(prepared.patient_ids, N_FOLDS, SEED)[0])
    training = prepared.subset(np.asarray([i for i, p in enumerate(prepared.patient_ids) if p not in held]))
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    train(training, config)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (
        f"fold0  {mode} d_e {d_e} d_r {d_r}  epochs {epochs}  train {wall:.2f} s  "
        f"peak RSS {after.ru_maxrss / 1024:.1f} MB  minor faults {after.ru_minflt - before.ru_minflt}"
    )


def _child(checkout: Path, name: str, d_e: int, d_r: int, mode: str, epochs: int) -> str:
    src = str(Path(checkout).resolve() / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    tools = str(Path(__file__).resolve().parent)
    args = [tools, name, str(d_e), str(d_r), mode, str(epochs)]
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        message = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
        raise RuntimeError(f"the {name} run exited {proc.returncode}: {message[-1]}")
    return proc.stdout.strip()


def measure(checkout: Path, d_e: int = 64, d_r: int = 16, mode: str = "full", epochs: int = 20) -> list[str]:
    """The ``step`` and ``fold0`` lines of ``checkout``, each from its own child Python."""
    return [_child(checkout, name, d_e, d_r, mode, epochs) for name in ("step_line", "fold_line")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the source checkout whose protosurv is measured")
    parser.add_argument("--d-e", type=int, default=64, help="embedding width d_e (default 64, crit7's)")
    parser.add_argument("--d-r", type=int, default=16, help="width d_r of the learnable token appendix (default 16, crit7's)")
    parser.add_argument("--mode", default="full", help="fusion mode (default full)")
    parser.add_argument("--epochs", type=int, default=20, help="training epochs of fold 0 (default 20)")
    args = parser.parse_args(argv)
    try:
        lines = measure(args.checkout, args.d_e, args.d_r, args.mode, args.epochs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
