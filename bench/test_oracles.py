"""Hand-worked cases for the benchmark's references and tracer.

Run with ``python3 -m pytest bench/test_oracles.py`` from the repository root.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402


def test_concordance_hand_worked():
    # pairs (0,1) (0,2) (0,3) (1,3) concordant; (1,2) tie in time with one
    # event and tied risk scores one half; (2,3) starts censored: not comparable
    times, events, risks = [1, 2, 2, 4], [1, 1, 0, 1], [0.9, 0.5, 0.5, 0.1]
    assert oracles.concordance(times, events, risks) == 4.5 / 5
    assert oracles.concordance([1, 2, 3], [1, 1, 0], [1, 2, 3]) == 0.0


def test_concordance_without_comparable_pairs():
    with pytest.raises(oracles.CheckFailed):
        oracles.concordance([2, 2], [1, 1], [0.0, 1.0])


def test_concordance_matches_program_on_ties():
    from protosurv.evaluation import concordance_index
    from protosurv.survival import SurvivalRecord

    rng = np.random.default_rng(3)
    times = rng.integers(1, 6, size=40).astype(float)
    events = rng.integers(0, 2, size=40)
    risks = rng.integers(0, 4, size=40).astype(float)
    records = [SurvivalRecord(f"p{i}", t, int(e)) for i, (t, e) in enumerate(zip(times, events))]
    assert oracles.concordance(times, events, risks) == concordance_index(risks, records)


def test_kaplan_meier_hand_worked():
    times, survival, at_risk = oracles.kaplan_meier([1, 2, 2, 3, 4], [1, 1, 0, 1, 0])
    assert times.tolist() == [1.0, 2.0, 3.0]
    assert at_risk.tolist() == [5, 4, 2]
    assert np.allclose(survival, [0.8, 0.6, 0.3], rtol=0, atol=1e-15)


def test_log_rank_hand_worked():
    # expected deaths in A: 1/2 + 1/3 + 1/2 = 4/3 against 2 observed;
    # hypergeometric variance 1/4 + 2/9 + 1/4 = 13/18; statistic (2/3)^2 / (13/18)
    statistic = oracles.log_rank([1, 3], [1, 1], [2, 4], [1, 1])
    assert abs(statistic - 8 / 13) < 1e-15


def test_log_rank_without_variance():
    # B leaves before A's only event, so nobody from B is ever at risk
    assert oracles.log_rank([2.0], [1], [1.0], [0]) == 0.0


def test_median_split():
    assert oracles.median_split([3, 1, 2, 2]) == ["high", "low", "low", "low"]
    assert oracles.median_split([5, 1, 3]) == ["high", "low", "low"]


def test_completeness():
    # pattern 1 is split over two components; patterns 0 and 2 stay whole
    assert oracles.completeness([0, 0, 1, 1, 2, 2], [4, 4, 1, 2, 3, 3]) == 4 / 6
    assert oracles.completeness([0, 0, 1, 1], [0, 0, 0, 0]) == 1.0


def test_close():
    assert oracles.close(1e-86, 1e-86 * (1 + 1e-12), 1e-9)
    assert not oracles.close(1e-86, 2e-86, 1e-9)
    assert oracles.close(0.0, 0.0, 1e-12)


def test_tracer_records_nested_spans_and_restores():
    from protosurv import evaluation
    from protosurv.numerics import Tensor
    from protosurv.survival import SurvivalRecord

    original, original_init = evaluation.km_curve, Tensor.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert evaluation.km_curve is not original
        with tracer.span("outer"):
            evaluation.km_curve([SurvivalRecord("a", 1.0, 1), SurvivalRecord("b", 2.0, 0)])
            Tensor(1.0)
    finally:
        tracer.uninstall()
    assert evaluation.km_curve is original and Tensor.__init__ is original_init
    (inner,) = tracer.select("evaluation.km_curve", inside="outer")
    assert tracer.spans[inner].duration >= 0 and tracer.tensors == 1
    assert tracer.descendants(tracer.select("outer")[0]) == [inner]


def test_layer_metrics_match_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
