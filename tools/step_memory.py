"""Print one crit7 training step's traced memory and fold 0's training time, peak RSS and page faults through one checkout.

    python3 tools/step_memory.py CHECKOUT [--d-e E] [--d-r R] [--mode M] [--epochs N]

CHECKOUT is the root of a source checkout. Like ``tools/crit7_digest.py``, the
tool runs its protosurv in a child Python (``tools/harness.py``) on the
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
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # the harness, also when this file is loaded by path
from harness import call, crit7_prepared  # noqa: E402

BATCH = 64


def step_line(d_e: int, d_r: int, mode: str, epochs: int) -> str:
    """The ``step`` line, computed with the protosurv on ``sys.path``."""
    import tracemalloc

    import numpy as np

    from protosurv.model import forward_risks, init_params
    from protosurv.numerics import Tensor
    from protosurv.rng import substream
    from protosurv.survival import cox_loss

    prepared, dims, config, _ = crit7_prepared(d_e=d_e, d_r=d_r, fusion_mode=mode, epochs=epochs)
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

    from protosurv.survival import train

    prepared, _, config, folds = crit7_prepared(d_e=d_e, d_r=d_r, fusion_mode=mode, epochs=epochs)
    held = set(folds[0])
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


def measure(checkout: Path, d_e: int = 64, d_r: int = 16, mode: str = "full", epochs: int = 20) -> list[str]:
    """The ``step`` and ``fold0`` lines of ``checkout``, each from its own child Python."""
    return [call(checkout, "step_memory", name, d_e, d_r, mode, epochs).decode() for name in ("step_line", "fold_line")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the source checkout whose protosurv is measured")
    parser.add_argument("--d-e", type=int, default=64, help="embedding width d_e (default 64, crit7's)")
    parser.add_argument("--d-r", type=int, default=16, help="width d_r of the learnable token appendix (default 16, crit7's)")
    parser.add_argument("--mode", default="full", help="fusion mode (default full)")
    parser.add_argument("--epochs", type=int, default=20, help="training epochs of fold 0 (default 20)")
    args = parser.parse_args(argv)
    try:
        print("\n".join(measure(args.checkout, args.d_e, args.d_r, args.mode, args.epochs)))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
