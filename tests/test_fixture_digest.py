import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("fixture_digest", ROOT / "tools" / "fixture_digest.py")
fixture_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fixture_digest)


def test_two_runs_print_the_same_lines_and_cover_every_eval_output(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    lines = fixture_digest.digests(ROOT, first)
    assert lines == fixture_digest.digests(ROOT, second)
    hashed = {line.split("  ", 1)[1] for line in lines}
    for mode in fixture_digest.FUSION_MODES:
        written = {p.relative_to(first).as_posix() for p in (first / f"eval_{mode}").iterdir()}
        assert written == {f"eval_{mode}/{name}" for name in
                           ("metrics.csv", "km_curves.csv", "logrank.csv", "attention_summary.csv")}
        assert written <= hashed
        assert f"train_{mode}/effective_config.json" not in hashed
    # a manifest naming the fitted representations trains and scores as --prototypes does
    for run in ("train", "eval"):
        for path in sorted((first / f"{run}_full").iterdir()):
            if path.name != "effective_config.json":
                assert (first / f"{run}_representations" / path.name).read_bytes() == path.read_bytes(), path.name
    # every attention pair reached the summary
    rows = (first / "eval_late" / "attention_summary.csv").read_text().splitlines()[1:]
    assert {f"{r.split(',')[2]}:{r.split(',')[3]}" for r in rows} == set(fixture_digest.ATTENTION_PAIRS)
