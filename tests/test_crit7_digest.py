import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("crit7_digest", ROOT / "tools" / "crit7_digest.py")
crit7_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(crit7_digest)


def test_two_runs_print_the_same_line_for_every_fold_of_every_mode():
    lines = crit7_digest.digests(ROOT, epochs=0)
    assert lines == crit7_digest.digests(ROOT, epochs=0)
    assert [line.split("  ")[1] for line in lines] == [
        f"{arm}/fold{k}"
        for arm in ("full", "late", "hierarchical", "full-shared-beta")
        for k in range(crit7_digest.N_FOLDS)
    ]
    # untrained folds still differ: each holds out other patients, and each arm fuses or pools them otherwise
    assert len({line.split("  ")[0] for line in lines}) == 20
