"""Print a sha256 of every file the criterion-9 fixture writes through one checkout's CLI.

    python3 tools/fixture_digest.py CHECKOUT

CHECKOUT is the root of a source checkout. In a temporary directory the tool
runs ``python3 -m protosurv.cli`` with ``CHECKOUT/src`` on ``PYTHONPATH``: the
acceptance suite's criterion-9 fixture (``synth`` of 20 patients at seed 9,
``prototype`` with 3 histology components), then ``train`` and ``eval`` in each
fusion mode, ``eval`` with the attention pairs text:pathway, pathway:pathway,
histology:text and text:text. It then writes ``cohort/representations.json``, a
copy of the manifest whose patients name the fitted ``proto/*.slide.ps3e`` as
their ``slide_representation``, and runs the full-mode ``train`` and ``eval``
again from it without ``--prototypes``. It prints one ``<sha256>  <path>`` line
per file written, paths relative to the temporary directory, sorted.
``effective_config.json`` is left out, because it records the run's paths. Two
checkouts that print the same lines wrote byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FUSION_MODES = ("full", "late", "hierarchical")
ATTENTION_PAIRS = ("text:pathway", "pathway:pathway", "histology:text", "text:text")
MANIFEST = "cohort/manifest.json"
REPRESENTATIONS = "cohort/representations.json"
SHAPE = ("--d-e", "8", "--d-r", "4", "--n-histology", "3", "--n-pathways", "6")


def commands() -> list[list[str]]:
    """The CLI argument lists of the fixture run, in order, with relative paths."""
    runs = [
        ["synth", "--out", "cohort", "--patients", "20", "--seed", "9", "--genes", "30", "--pathways", "6",
         "--d-t", "6", "--d-h", "5", "--segments", "2", "4", "--patches", "16", "24"],
        ["prototype", "--manifest", MANIFEST, "--out", "proto", "--seed", "9", "--n-histology", "3"],
    ]
    for mode in FUSION_MODES:
        runs.append(["train", "--manifest", MANIFEST, "--prototypes", "proto", "--out", f"train_{mode}",
                     "--seed", "4", "--folds", "2", "--epochs", "2", "--fusion-mode", mode, *SHAPE])
        attention = [arg for pair in ATTENTION_PAIRS for arg in ("--attention", pair)]
        runs.append(["eval", "--manifest", MANIFEST, "--prototypes", "proto", "--models", f"train_{mode}",
                     "--out", f"eval_{mode}", *attention])
    runs.append(["train", "--manifest", REPRESENTATIONS, "--out", "train_representations",
                 "--seed", "4", "--folds", "2", "--epochs", "2", "--fusion-mode", "full", *SHAPE])
    runs.append(["eval", "--manifest", REPRESENTATIONS, "--models", "train_representations",
                 "--out", "eval_representations", *attention])
    return runs


def write_representation_manifest(workdir: Path) -> None:
    """``REPRESENTATIONS``: ``MANIFEST`` with each patient's ``slide`` replaced by
    its fitted ``proto/<id>.slide.ps3e``, named relative to the manifest."""
    doc = json.loads((workdir / MANIFEST).read_text(encoding="utf-8"))
    for entry in doc["patients"]:
        del entry["slide"]
        entry["slide_representation"] = f"../proto/{entry['patient_id']}.slide.ps3e"
    (workdir / REPRESENTATIONS).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def digests(checkout: Path, workdir: Path) -> list[str]:
    """Run the fixture through ``checkout``'s CLI inside ``workdir`` and return
    the sorted ``<sha256>  <path>`` lines of the files it wrote there."""
    src = str(Path(checkout).resolve() / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for argv in commands():
        proc = subprocess.run([sys.executable, "-m", "protosurv.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        if argv[0] == "prototype":
            write_representation_manifest(Path(workdir))
    files = sorted(p for p in Path(workdir).rglob("*") if p.is_file() and p.name != "effective_config.json")
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(workdir).as_posix()}" for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the source checkout whose CLI runs the fixture")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fixture_digest_") as workdir:
        try:
            lines = digests(args.checkout, Path(workdir))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
