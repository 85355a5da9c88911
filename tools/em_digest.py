"""Compare the EM fits of two checkouts, fit by fit.

    python3 tools/em_digest.py PARENT CHANGE

PARENT and CHANGE are the roots of two source checkouts. For each, the tool
runs ``fit_all`` in a child Python (``tools/harness.py``) and fits three
groups of slides with 16 components through that checkout's
``histology.fit_gmm``:

- ``slides_paper``: 4096 x 384 slides of 64 planted patterns, built as the
  benchmark's slides_paper workload builds them, for seeds 0-5 x 8 slides,
  each fitted from ``default_rng([seed, slide, 1])``;
- ``crit7``: the 300 slides of the criterion-7 cohort
  (``SyntheticSpec(n_patients=300, ..., seed=11)``), slide i fitted from
  ``substream(s, "gmm", i)`` for s = 0-3;
- ``d_h64``: the 20 slides of ``SyntheticSpec(n_patients=20, d_h=64,
  seed=0)`` at s = 0-3, where all but one fit fail with ``DegenerateInput``.

Per group it prints whether every fit is byte-identical; if not, the largest
relative difference of the weights, means, variances and log-likelihood
trace over the group's fits, where an array's difference is max|a - b|
divided by the larger of max|a| and max|b|, and traces of unequal length are
compared on their common prefix; whether iterations, ``converged`` and
``rescues`` match; and whether both checkouts raised the same failures with
the same messages.
"""

from __future__ import annotations

import argparse
import pickle
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))  # the harness, also when this file is loaded by path
from harness import CRIT7_COHORT, call  # noqa: E402

COMPONENTS = 16
ARRAYS = ("weights", "means", "variances", "log_likelihoods")
COUNTS = ("iterations", "converged", "rescues")
# slides_paper: 4096 patches of 384 features in 64 planted patterns
PAPER_SEEDS, PAPER_SLIDES, PAPER_PATCHES, PAPER_DIM, PAPER_PATTERNS = range(6), 8, 4096, 384, 64
COHORT_SEEDS = range(4)


def fit_set():
    """(group, name, patches, rng) of every fit, importing ``protosurv`` from ``sys.path``."""
    from protosurv.data import SyntheticSpec, synth_cohort
    from protosurv.histology import PatchFeatures
    from protosurv.rng import substream

    for seed in PAPER_SEEDS:
        for j in range(PAPER_SLIDES):
            rng = np.random.default_rng([seed, j])
            centres = rng.normal(0.0, 2.0, size=(PAPER_PATTERNS, PAPER_DIM))
            patterns = rng.permutation(np.repeat(np.arange(PAPER_PATTERNS), PAPER_PATCHES // PAPER_PATTERNS))
            x = centres[patterns] + rng.normal(0.0, 0.5, size=(PAPER_PATCHES, PAPER_DIM))
            yield "slides_paper", f"seed {seed} slide {j}", PatchFeatures(f"slide{j}", x), np.random.default_rng([seed, j, 1])
    cohorts = {"crit7": SyntheticSpec(**CRIT7_COHORT), "d_h64": SyntheticSpec(n_patients=20, d_h=64, seed=0)}
    for group, spec in cohorts.items():
        slides = synth_cohort(spec).patches
        for s in COHORT_SEEDS:
            for i, patches in enumerate(slides):
                yield group, f"s {s} slide {i}", patches, substream(s, "gmm", i)


def fit_all() -> bytes:
    """Pickled group -> fit name -> outcome: the fitted arrays and trace counts, or the failure's type and message."""
    from protosurv.errors import ProtosurvError
    from protosurv.histology import fit_gmm

    results: dict[str, dict[str, dict]] = {}
    for group, name, patches, rng in fit_set():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                params, trace = fit_gmm(patches, COMPONENTS, rng)
        except ProtosurvError as exc:
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            outcome = {"weights": params.weights, "means": params.means, "variances": params.variances,
                       "log_likelihoods": np.asarray(trace.log_likelihoods),
                       "iterations": trace.iterations, "converged": trace.converged, "rescues": trace.rescues}
        results.setdefault(group, {})[name] = outcome
    return pickle.dumps(results)


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| over the common prefix, divided by the larger of max|a| and max|b|; 0 when equal."""
    m = min(a.size, b.size)
    a, b = a.ravel()[:m], b.ravel()[:m]
    diff = np.abs(a - b).max(initial=0.0)
    return float(diff / max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))) if diff else 0.0


def compare(parent: dict[str, dict], change: dict[str, dict]) -> dict:
    """One group's comparison row from its fit-name -> outcome dicts on each side."""
    names = sorted(parent.keys() & change.keys())
    both = [(parent[n], change[n]) for n in names if "error" not in parent[n] and "error" not in change[n]]
    errors = [(parent[n].get("error"), change[n].get("error")) for n in names]
    return {
        "fits": len(names),
        "same_names": parent.keys() == change.keys(),
        "identical": sum(all(np.array_equal(p[k], c[k]) for k in ARRAYS + COUNTS) for p, c in both),
        "fitted": len(both),
        "max_rel": {k: max((relative_difference(p[k], c[k]) for p, c in both), default=0.0) for k in ARRAYS},
        "counts_match": {k: all(p[k] == c[k] for p, c in both) for k in COUNTS},
        "failures": sum(p is not None for p, _ in errors),
        "failures_match": all(p == c for p, c in errors),
    }


def format_row(group: str, row: dict) -> str:
    head = f"{group}: {row['fits']} fits, {row['fitted']} fitted on both sides, {row['failures']} failed at PARENT"
    if not row["same_names"]:
        head += "; the two sides fitted different sets"
    if row["identical"] == row["fitted"] and all(row["counts_match"].values()) and row["failures_match"]:
        return f"{head}\n  identical"
    rel = ", ".join(f"{k} {v:.3g}" for k, v in row["max_rel"].items())
    counts = ", ".join(f"{k} {'match' if v else 'DIFFER'}" for k, v in row["counts_match"].items())
    failures = "match" if row["failures_match"] else "DIFFER"
    return (f"{head}\n  {row['identical']} of {row['fitted']} byte-identical; max relative difference: {rel}"
            f"\n  {counts}; failures and messages {failures}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the source checkout compared against")
    parser.add_argument("change", type=Path, help="root of the source checkout compared")
    args = parser.parse_args(argv)
    try:
        parent, change = (pickle.loads(call(checkout, "em_digest", "fit_all")) for checkout in (args.parent, args.change))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for group in dict.fromkeys([*parent, *change]):
        print(format_row(group, compare(parent.get(group, {}), change.get(group, {}))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
