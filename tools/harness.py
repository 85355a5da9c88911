"""What the checkout tools share: the criterion-7 protocol and one child-Python call.

The crit7 protocol is the acceptance suite's 300-patient cohort (seed 11,
pathway signal strength 2.5, censoring 0.25), split by ``kfold_split(ids, 5,
1)`` and trained with ``TrainConfig(seed=1, d_e=64, d_r=16)``. ``call`` runs a
tool's function in a child Python that imports the tool from this directory
and ``protosurv`` from ``CHECKOUT/src``; what the function prints goes to
stderr, so stdout carries only its result. A checkout without
``src/protosurv`` is refused, so no tool falls back to another ``protosurv``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

CRIT7_COHORT = dict(
    n_patients=300, n_segments=(3, 8), n_patches=(64, 128), d_t=16, d_h=16,
    n_genes=200, n_pathways=50, signal_modality="pathway",
    signal_strength=2.5, censoring_rate=0.25, seed=11,
)
N_FOLDS = 5
SEED = 1
CHILD = """import ast, contextlib, importlib, sys
sys.path.insert(0, sys.argv[1])
function = getattr(importlib.import_module(sys.argv[2]), sys.argv[3])
with contextlib.redirect_stdout(sys.stderr):
    out = function(*ast.literal_eval(sys.argv[4]))
sys.stdout.buffer.write(out.encode() if isinstance(out, str) else out)
"""


def crit7_prepared(**fields):
    """(prepared, dims, config, folds): ``config`` is ``TrainConfig(seed=1, d_e=64, d_r=16, **fields)``
    from the protosurv on ``sys.path``, ``prepared`` the crit7 cohort in it, ``folds`` its 5 folds."""
    from protosurv.data import SyntheticSpec, kfold_split, synth_cohort
    from protosurv.pipeline import build_prepared
    from protosurv.survival import TrainConfig

    config = TrainConfig(**{"seed": SEED, "d_e": 64, "d_r": 16, **fields})
    prepared, dims, _ = build_prepared(synth_cohort(SyntheticSpec(**CRIT7_COHORT)), config)
    return prepared, dims, config, kfold_split(prepared.patient_ids, N_FOLDS, SEED)


def checkout_env(checkout: Path) -> dict[str, str]:
    """This process's environment with ``CHECKOUT/src`` first on ``PYTHONPATH``."""
    src = Path(checkout).resolve() / "src"
    if not (src / "protosurv").is_dir():
        raise RuntimeError(f"{src.parent} is not a source checkout: it has no src/protosurv")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}


def call(checkout: Path, module: str, function: str, *args) -> bytes:
    """What ``module.function(*args)`` returns (a str encoded) in a child Python
    on ``checkout``'s protosurv. ``args`` are literals. A failure raises
    ``RuntimeError`` with the child's last stderr line."""
    tools = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", CHILD, tools, module, function, repr(args)],
                          env=checkout_env(checkout), capture_output=True)
    if proc.returncode != 0:
        message = proc.stderr.decode(errors="replace").strip().splitlines() or [f"exit status {proc.returncode}"]
        raise RuntimeError(f"{module}.{function} exited {proc.returncode}: {message[-1]}")
    return proc.stdout
