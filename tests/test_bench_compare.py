import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
_SPEC = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)

METRICS = [
    {"name": "op_ms.p50", "unit": "ms", "better": "lower"},
    {"name": "quality", "unit": "1", "better": "higher"},
]


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    parent = [40.0, 38.0, 35.0, 41.0, 36.0]
    change = [4.0, 4.2, 35.0, 3.9, 50.0]
    pairs = [({"op_ms.p50": p, "quality": 0.7}, {"op_ms.p50": c, "quality": q})
             for p, c, q in zip(parent, change, [0.7, 0.8, 0.6, 0.7, 0.9])]
    timing, quality = bench_compare.summarize(METRICS, pairs)
    assert (timing["change_wins"], timing["parent_wins"], timing["pairs"]) == (3, 1, 5)
    assert (quality["change_wins"], quality["parent_wins"]) == (2, 1)
    assert timing["parent"] == (36.0, 38.0, 40.0)
    assert timing["change"] == (4.0, 4.2, 35.0)
    assert timing["unit"] == "ms"


def test_summarize_one_pair_has_degenerate_quartiles():
    (row,) = bench_compare.summarize(METRICS[:1], [({"op_ms.p50": 2.0}, {"op_ms.p50": 1.0})])
    assert row["parent"] == (2.0, 2.0, 2.0) and row["change_wins"] == 1
    assert "1/0 of 1" in bench_compare.format_rows([row])
