"""Print a sha256 of every criterion-7 fold's held-out risks and trained parameters through one checkout.

    python3 tools/crit7_digest.py CHECKOUT [--epochs E]

CHECKOUT is the root of a source checkout. The tool runs its protosurv in a
child Python (``tools/harness.py``) through the criterion-7 protocol: the
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
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # the harness, also when this file is loaded by path
from harness import N_FOLDS, call, crit7_prepared  # noqa: E402

FUSION_MODES = ("full", "late", "hierarchical")
# each arm's label and the TrainConfig fields it sets; a shared head's leaves
# each take one gradient contribution per modality, summed in an order the
# tape's shape sets
ARMS = tuple((mode, {"fusion_mode": mode}) for mode in FUSION_MODES) + (
    ("full-shared-beta", {"fusion_mode": "full", "shared_beta_mlp": True}),
)


def fold_lines(epochs: int) -> str:
    """The ``<sha256>  <arm>/fold<k>`` lines, computed with the protosurv on ``sys.path``."""
    import numpy as np

    from protosurv.pipeline import run_fold

    prepared, _, base, folds = crit7_prepared(epochs=epochs)
    lines = []
    for label, fields in ARMS:
        config = replace(base, **fields)
        for k, held_ids in enumerate(folds):
            result = run_fold(prepared, config, held_ids, k)
            digest = hashlib.sha256(np.ascontiguousarray(result.risks, dtype="<f8").tobytes())
            for name in sorted(result.model.values):
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(result.model.values[name], dtype="<f8").tobytes())
            lines.append(f"{digest.hexdigest()}  {label}/fold{k}")
    return "\n".join(lines)


def digests(checkout: Path, epochs: int) -> list[str]:
    """Run the protosurv of ``checkout`` through the protocol in a child Python and return its lines."""
    return call(checkout, "crit7_digest", "fold_lines", epochs).decode().splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the source checkout whose protosurv is trained")
    parser.add_argument("--epochs", type=int, default=50, help="training epochs per fold (default 50)")
    args = parser.parse_args(argv)
    try:
        print("\n".join(digests(args.checkout, args.epochs)))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
