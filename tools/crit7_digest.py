"""Print a sha256 of every criterion-7 fold's held-out risks and trained parameters through one checkout.

    python3 tools/crit7_digest.py CHECKOUT [--epochs E]

CHECKOUT is the root of a source checkout. The tool runs a child Python with
``CHECKOUT/src`` on ``PYTHONPATH`` through the criterion-7 protocol: the
acceptance suite's 300-patient cohort (seed 11, pathway signal strength 2.5,
censoring 0.25) split by ``kfold_split(ids, 5, 1)``, each fold trained with
``TrainConfig(seed=1, d_e=64, d_r=16)`` at E epochs (default 50) and scored on
its held-out patients, in each arm: the three fusion modes, and full mode with
one head network shared by the modalities (``shared_beta_mlp``). The cohort is
prepared once; each arm's config takes its model from it. It prints one
``<sha256>  <arm>/fold<k>`` line per fold, 20 in all. A digest covers the
held-out risks, then every trained parameter's name and values in name order.
Two checkouts that print the same lines trained and scored bit-identical folds.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

FUSION_MODES = ("full", "late", "hierarchical")
# each arm's label and the TrainConfig fields it sets; a shared head's leaves
# each take one gradient contribution per modality, summed in an order the
# tape's shape sets
ARMS = tuple((mode, {"fusion_mode": mode}) for mode in FUSION_MODES) + (
    ("full-shared-beta", {"fusion_mode": "full", "shared_beta_mlp": True}),
)
COHORT = dict(
    n_patients=300, n_segments=(3, 8), n_patches=(64, 128), d_t=16, d_h=16,
    n_genes=200, n_pathways=50, signal_modality="pathway",
    signal_strength=2.5, censoring_rate=0.25, seed=11,
)
N_FOLDS = 5
SEED = 1
# the child imports this file from its directory and protosurv from PYTHONPATH
CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import crit7_digest; "
    "print(*crit7_digest.fold_lines(int(sys.argv[2])), sep='\\n')"
)


def fold_lines(epochs: int) -> list[str]:
    """The ``<sha256>  <arm>/fold<k>`` lines, computed with the protosurv on ``sys.path``."""
    import numpy as np

    from protosurv.data import SyntheticSpec, kfold_split, synth_cohort
    from protosurv.pipeline import build_prepared, run_fold
    from protosurv.survival import TrainConfig

    cohort = synth_cohort(SyntheticSpec(**COHORT))
    prepared, _, _ = build_prepared(cohort, TrainConfig(seed=SEED, d_e=64, d_r=16, epochs=epochs))
    folds = kfold_split(prepared.patient_ids, N_FOLDS, SEED)
    lines = []
    for label, fields in ARMS:
        config = TrainConfig(seed=SEED, d_e=64, d_r=16, epochs=epochs, **fields)
        for k, held_ids in enumerate(folds):
            result = run_fold(prepared, config, held_ids, k)
            digest = hashlib.sha256(np.ascontiguousarray(result.risks, dtype="<f8").tobytes())
            for name in sorted(result.model.values):
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(result.model.values[name], dtype="<f8").tobytes())
            lines.append(f"{digest.hexdigest()}  {label}/fold{k}")
    return lines


def digests(checkout: Path, epochs: int) -> list[str]:
    """Run the protosurv of ``checkout`` through the protocol in a child Python and return its lines."""
    src = str(Path(checkout).resolve() / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    tools = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", CHILD, tools, str(epochs)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        message = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
        raise RuntimeError(f"the protocol run exited {proc.returncode}: {message[-1]}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the source checkout whose protosurv is trained")
    parser.add_argument("--epochs", type=int, default=50, help="training epochs per fold (default 50)")
    args = parser.parse_args(argv)
    try:
        lines = digests(args.checkout, args.epochs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
