import numpy as np
import pytest

from protosurv.errors import BadInput, NoComparablePairs, NoEvents, ShapeMismatch
from protosurv.evaluation import (
    chi2_1df_sf,
    concordance_index,
    cross_attention_summary,
    km_curve,
    log_rank,
    stratify_median,
)
from protosurv.survival import SurvivalRecord


def _rec(times, events):
    return [SurvivalRecord(f"p{i}", float(t), int(e)) for i, (t, e) in enumerate(zip(times, events))]


def brute_force_cindex(risks, times, events):
    """All-pairs oracle, written directly from the comparability rules."""
    concordant = 0.0
    comparable = 0
    n = len(risks)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if times[i] < times[j] and events[i] == 1:
                pass  # i observed first
            elif times[i] == times[j] and events[i] == 1 and events[j] == 0:
                pass  # tied time, the event subject counts as earlier
            else:
                continue
            comparable += 1
            if risks[i] > risks[j]:
                concordant += 1
            elif risks[i] == risks[j]:
                concordant += 0.5
    return concordant / comparable


def all_pairs_cindex(risks, times, events, rows=500):
    """The brute-force rules over every ordered pair as boolean matrices,
    ``rows`` first members of a pair at a time; exact integer counts."""
    risks, times, events = (np.asarray(a) for a in (risks, times, events))
    concordant = tied = comparable = 0
    for start in range(0, len(risks), rows):
        r, t, e = risks[start:start + rows, None], times[start:start + rows, None], events[start:start + rows, None]
        earlier = (e == 1) & ((t < times) | ((t == times) & (events == 0)))
        comparable += int(np.count_nonzero(earlier))
        concordant += int(np.count_nonzero(earlier & (r > risks)))
        tied += int(np.count_nonzero(earlier & (r == risks)))
    return (concordant + 0.5 * tied) / comparable


def loop_km_curve(times, events):
    """Per-event-time loop oracle of the product-limit estimate."""
    event_times = np.unique(times[events == 1])
    survival, at_risk = [], []
    running = 1.0
    for t in event_times:
        n_risk = int((times >= t).sum())
        deaths = int(((times == t) & (events == 1)).sum())
        running *= 1.0 - deaths / n_risk
        survival.append(running)
        at_risk.append(n_risk)
    return event_times, np.asarray(survival), np.asarray(at_risk, dtype=int)


def loop_log_rank(times, events, in_a):
    """Per-event-time loop oracle of the log-rank statistic."""
    observed_a = expected_a = variance = 0.0
    for t in np.unique(times[events == 1]):
        risk = times >= t
        n_total = int(risk.sum())
        n_a = int((risk & in_a).sum())
        dying = (times == t) & (events == 1)
        d_total = int(dying.sum())
        d_a = int((dying & in_a).sum())
        observed_a += d_a
        expected_a += d_total * n_a / n_total
        if n_total > 1:
            variance += d_total * (n_a / n_total) * (1.0 - n_a / n_total) * (n_total - d_total) / (n_total - 1)
    if variance == 0.0:
        return 0.0
    return (observed_a - expected_a) ** 2 / variance


def _tied_cohort(n, seed):
    """Integer times (many ties), a quarter censored, risks on a coarse grid
    (many ties) that track the times."""
    rng = np.random.default_rng(seed)
    times = rng.integers(1, 200, size=n).astype(float)
    events = (rng.random(n) >= 0.25).astype(int)
    risks = np.round(-np.log(times) + rng.normal(scale=0.5, size=n), 1)
    return times, events, risks


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------

def test_cindex_perfect_concordance():
    assert concordance_index([3.0, 2.0, 1.0], _rec([1, 2, 3], [1, 1, 1])) == 1.0


def test_cindex_perfect_discordance():
    assert concordance_index([1.0, 2.0, 3.0], _rec([1, 2, 3], [1, 1, 1])) == 0.0


def test_cindex_risk_tie_hand_case():
    assert abs(concordance_index([2.0, 2.0, 1.0], _rec([1, 2, 3], [1, 1, 1])) - 5.0 / 6.0) < 1e-15


def test_cindex_constant_risks_give_half():
    assert concordance_index([1.0, 1.0, 1.0], _rec([1, 2, 3], [1, 1, 1])) == 0.5


def test_cindex_no_comparable_pairs():
    with pytest.raises(NoComparablePairs):
        concordance_index([1.0, 2.0], _rec([1, 2], [0, 0]))


def test_cindex_tied_time_mixed_event_convention():
    # equal times, one event: the event subject counts as earlier
    assert concordance_index([2.0, 1.0], _rec([5, 5], [1, 0])) == 1.0
    assert concordance_index([1.0, 2.0], _rec([5, 5], [1, 0])) == 0.0
    with pytest.raises(NoComparablePairs):
        concordance_index([1.0, 2.0], _rec([5, 5], [1, 1]))


def test_cindex_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100)[:60]:
        n = int(rng.integers(2, 30))
        times = rng.integers(1, 12, size=n).astype(float)  # many ties
        events = rng.integers(0, 2, size=n)
        risks = rng.integers(0, 6, size=n).astype(float)  # many risk ties
        records = _rec(times, events)
        try:
            got = concordance_index(risks, records)
        except NoComparablePairs:
            continue
        assert got == brute_force_cindex(risks, times, events)


def test_cindex_complement_and_monotone_invariance():
    rng = np.random.default_rng(1)
    n = 20
    times = rng.uniform(1, 100, size=n)
    events = rng.integers(0, 2, size=n)
    events[0] = 1
    risks = rng.normal(size=n)  # continuous: no ties
    records = _rec(times, events)
    assert abs(concordance_index(risks, records) + concordance_index(-risks, records) - 1.0) < 1e-15
    assert concordance_index(np.exp(risks), records) == concordance_index(risks, records)


def _cindex_cases():
    """(risks, times, events): small random cohorts, cohorts of a few thousand
    with ties in times and risks, and the tie extremes."""
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        times = rng.integers(1, 12, size=n).astype(float)
        events = rng.integers(0, 2, size=n)
        risks = rng.integers(0, 6, size=n).astype(float)
        yield risks, times, events
    for n, seed in ((2000, 23), (3001, 24), (4096, 25)):
        times, events, risks = _tied_cohort(n, seed)
        yield risks, times, events
    n = 1500
    risks = rng.normal(size=n)
    one_event = np.zeros(n, dtype=int)
    one_event[700] = 1
    yield risks, np.full(n, 5.0), one_event  # every time equal, one event
    yield np.full(n, 0.25), rng.integers(1, 50, size=n).astype(float), rng.integers(0, 2, size=n)  # every risk equal
    yield np.round(risks, 1), rng.integers(1, 50, size=n).astype(float), np.ones(n, dtype=int)  # all events
    yield np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([1, 1])  # n = 2
    yield np.array([1.0, 1.0]), np.array([4.0, 4.0]), np.array([0, 1])


def test_cindex_pair_form_matches_brute_force_oracle_and_records():
    scored = 0
    for risks, times, events in _cindex_cases():
        try:
            got = concordance_index(risks, (times, events))
        except NoComparablePairs:
            with pytest.raises(NoComparablePairs):
                concordance_index(risks, _rec(times, events))
            continue
        oracle = brute_force_cindex(risks, times, events) if len(risks) < 30 else all_pairs_cindex(risks, times, events)
        assert got == oracle == concordance_index(risks, _rec(times, events))
        scored += 1
    assert scored > 47


def test_cindex_all_pairs_oracle_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        times = rng.integers(1, 8, size=n).astype(float)
        events = rng.integers(0, 2, size=n)
        events[0] = 1
        times[0] = 0.0
        risks = rng.integers(0, 4, size=n).astype(float)
        assert all_pairs_cindex(risks, times, events, rows=7) == brute_force_cindex(risks, times, events)


def test_cindex_nan_risk_or_time_is_bad_input():
    with pytest.raises(BadInput, match="risk of record 1 is NaN"):
        concordance_index([1.0, np.nan, 2.0], _rec([1, 2, 3], [1, 1, 0]))
    with pytest.raises(BadInput, match="time of record 2 is NaN"):
        concordance_index([1.0, 3.0, 2.0], (np.array([1.0, 2.0, np.nan]), np.array([1, 1, 0])))


def test_cindex_of_20000_patients_in_bounded_memory():
    import tracemalloc

    times, events, risks = _tied_cohort(20_000, 26)
    tracemalloc.start()
    try:
        got = concordance_index(risks, (times, events))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pairwise matrices would hold 20000**2 booleans, 400 MB each
    assert peak < 32 * 2**20, peak
    assert got == all_pairs_cindex(risks, times, events)


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------

def test_km_two_events():
    curve = km_curve(_rec([1, 2], [1, 1]))
    np.testing.assert_allclose(curve.survival, [0.5, 0.0])
    np.testing.assert_array_equal(curve.at_risk, [2, 1])


def test_km_censoring_stops_drop():
    curve = km_curve(_rec([1, 2], [1, 0]))
    np.testing.assert_allclose(curve.survival, [0.5])


def test_km_tied_events():
    curve = km_curve(_rec([2, 2], [1, 1]))
    np.testing.assert_allclose(curve.survival, [0.0])


def test_km_matches_direct_product_formula():
    rng = np.random.default_rng(2)
    times = rng.integers(1, 15, size=25).astype(float)
    events = rng.integers(0, 2, size=25)
    curve = km_curve(_rec(times, events))
    running = 1.0
    for t, s in zip(curve.times, curve.survival):
        n_i = (times >= t).sum()
        d_i = ((times == t) & (events == 1)).sum()
        running *= 1 - d_i / n_i
        assert abs(s - running) < 1e-12
    assert np.all(np.diff(curve.survival) <= 1e-15)
    assert np.all((curve.survival >= 0) & (curve.survival <= 1))


def test_km_bit_identical_to_loop_oracle_at_cohort_scale():
    times, events, _ = _tied_cohort(2000, 21)
    curve = km_curve(_rec(times, events))
    event_times, survival, at_risk = loop_km_curve(times, events)
    assert np.array_equal(curve.times, event_times)
    assert np.array_equal(curve.survival, survival)
    assert np.array_equal(curve.at_risk, at_risk) and curve.at_risk.dtype == at_risk.dtype


def test_km_pair_form_bit_identical_to_loop_oracle_and_records():
    times, events, _ = _tied_cohort(2000, 21)
    curve = km_curve((times, events))
    from_records = km_curve(_rec(times, events))
    event_times, survival, at_risk = loop_km_curve(times, events)
    for got, records_value, want in zip(
        (curve.times, curve.survival, curve.at_risk),
        (from_records.times, from_records.survival, from_records.at_risk),
        (event_times, survival, at_risk),
    ):
        assert np.array_equal(got, want) and np.array_equal(got, records_value)
        assert got.dtype == want.dtype == records_value.dtype


def test_km_no_censoring_ends_at_zero():
    rng = np.random.default_rng(3)
    times = rng.uniform(1, 50, size=12)
    curve = km_curve(_rec(times, np.ones(12, dtype=int)))
    assert abs(curve.survival[-1]) < 1e-15


# ---------------------------------------------------------------------------
# log-rank
# ---------------------------------------------------------------------------

def test_log_rank_identical_groups():
    group = _rec([1, 2, 3, 4], [1, 1, 0, 1])
    result = log_rank(group, group)
    assert result.statistic == 0.0 and result.p_value == 1.0


def test_log_rank_matches_textbook_formula():
    a = _rec([1, 2, 3], [1, 1, 1])
    b = _rec([10, 20, 30], [1, 1, 1])
    result = log_rank(a, b)
    times = np.array([1, 2, 3, 10, 20, 30], dtype=float)
    in_a = np.array([1, 1, 1, 0, 0, 0])
    observed = expected = variance = 0.0
    for t in np.unique(times):
        risk = times >= t
        n, n_a = risk.sum(), (risk & (in_a == 1)).sum()
        d = (times == t).sum()
        d_a = ((times == t) & (in_a == 1)).sum()
        observed += d_a
        expected += d * n_a / n
        if n > 1:
            variance += d * (n_a / n) * (1 - n_a / n) * (n - d) / (n - 1)
    expect_stat = (observed - expected) ** 2 / variance
    assert abs(result.statistic - expect_stat) < 1e-9


def test_log_rank_symmetry():
    rng = np.random.default_rng(4)
    a = _rec(rng.uniform(1, 40, 15), rng.integers(0, 2, 15))
    b = _rec(rng.uniform(1, 40, 12), np.maximum(rng.integers(0, 2, 12), [1] + [0] * 11))
    assert abs(log_rank(a, b).statistic - log_rank(b, a).statistic) < 1e-12


def test_log_rank_bit_identical_to_loop_oracle_at_cohort_scale():
    times, events, risks = _tied_cohort(2000, 22)
    high = np.array(stratify_median(risks)) == "high"
    records = _rec(times, events)
    result = log_rank([r for r, h in zip(records, high) if h], [r for r, h in zip(records, high) if not h])
    order = np.concatenate([np.flatnonzero(high), np.flatnonzero(~high)])
    expect = loop_log_rank(times[order], events[order], high[order])
    assert result.statistic == expect
    assert result.p_value == chi2_1df_sf(expect)


def test_log_rank_pair_form_bit_identical_to_loop_oracle_and_records():
    times, events, risks = _tied_cohort(2000, 22)
    high = np.array(stratify_median(risks)) == "high"
    result = log_rank((times[high], events[high]), (times[~high], events[~high]))
    records = _rec(times, events)
    from_records = log_rank([r for r, h in zip(records, high) if h], [r for r, h in zip(records, high) if not h])
    order = np.concatenate([np.flatnonzero(high), np.flatnonzero(~high)])
    expect = loop_log_rank(times[order], events[order], high[order])
    assert result.statistic == expect == from_records.statistic
    assert result.p_value == chi2_1df_sf(expect) == from_records.p_value


def test_log_rank_no_events():
    with pytest.raises(NoEvents):
        log_rank(_rec([1, 2], [0, 0]), _rec([3], [0]))


def test_chi2_tail_quantile():
    assert abs(chi2_1df_sf(3.841) - 0.05) < 1e-3
    assert abs(chi2_1df_sf(3.841458820694124) - 0.05) < 1e-9


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------

def test_stratify_median_median_goes_low():
    assert stratify_median([1.0, 2.0, 3.0]) == ["low", "low", "high"]


def test_stratify_all_equal():
    assert stratify_median([2.0, 2.0, 2.0]) == ["low", "low", "low"]


def test_stratify_even_count():
    assert stratify_median([1.0, 2.0, 3.0, 4.0]) == ["low", "low", "high", "high"]


# ---------------------------------------------------------------------------
# attention summaries
# ---------------------------------------------------------------------------

# (query, key) validities of a batch of one with two valid text queries and two valid pathway keys
_ALL_VALID = (np.ones((1, 2)), np.ones((1, 2)))


def test_attention_summary_uniform_is_zero_with_index_ties():
    att = np.full((4, 4), 0.25)
    spans = {"pathway": (0, 2), "text": (2, 4)}
    (summary,) = cross_attention_summary(att[None], spans, ["PW_A", "PW_B"], "text", "pathway", *_ALL_VALID)
    assert summary.ranking == [("PW_A", 0.0), ("PW_B", 0.0)]


def test_attention_summary_selective_key_ranks_first():
    # queries are the text block (rows 2..4); key block is pathway (cols 0..2)
    att = np.zeros((4, 4))
    att[2] = [1.0, 0.0, 0.0, 0.0]  # first text query locks onto pathway key 0
    att[3] = [0.25, 0.25, 0.25, 0.25]
    spans = {"pathway": (0, 2), "text": (2, 4)}
    (summary,) = cross_attention_summary(att[None], spans, ["PW_A", "PW_B"], "text", "pathway", *_ALL_VALID)
    assert summary.ranking[0][0] == "PW_A"
    expect = np.std([1.0, 0.25])
    assert abs(summary.ranking[0][1] - expect) < 1e-12


def test_attention_summary_single_query_row_zero_dispersion():
    att = np.array([[0.2, 0.8], [0.5, 0.5]])
    spans = {"text": (0, 1), "pathway": (0, 2)}
    validity = (np.ones((1, 1)), np.ones((1, 2)))
    (summary,) = cross_attention_summary(att[None], spans, ["PW_A", "PW_B"], "text", "pathway", *validity)
    assert all(score == 0.0 for _, score in summary.ranking)


def test_attention_summary_empty_block_rejected():
    att = np.ones((2, 2)) / 2
    spans = {"text": (0, 0), "pathway": (0, 2)}
    with pytest.raises(BadInput, match="empty attention block 'text' -> 'pathway'"):
        cross_attention_summary(att[None], spans, ["A", "B"], "text", "pathway", np.ones((1, 0)), np.ones((1, 2)))


def _attention_batch(seed, b=5):
    """A (b, 9, 9) row-stochastic batch over pathway (3), histology (2) and
    text (4) blocks, whose text block has invalid slots (at least one valid
    per patient) and attends to no invalid text key, as fusion leaves it."""
    rng = np.random.default_rng(seed)
    spans = {"pathway": (0, 3), "histology": (3, 5), "text": (5, 9)}
    text = (rng.random((b, 4)) < 0.6).astype(float)
    text[:, 0] = 1.0
    text[1, 1:] = 0.0  # a patient with one text prototype
    validity = {"pathway": np.ones((b, 3)), "histology": np.ones((b, 2)), "text": text}
    att = rng.random((b, 9, 9)) * np.concatenate([np.ones((b, 5)), text], axis=1)[:, None, :]
    return att / att.sum(axis=-1, keepdims=True), spans, validity


@pytest.mark.parametrize(
    "query,key", [("text", "pathway"), ("pathway", "text"), ("text", "text"), ("histology", "text")]
)
def test_attention_summary_batch_rows_match_batches_of_one(query, key):
    att, spans, validity = _attention_batch(3)
    size = spans[key][1] - spans[key][0]
    names = [f"{key}{i}" for i in range(size)]
    batch = cross_attention_summary(att, spans, names, query, key, validity[query], validity[key])
    assert len(batch) == att.shape[0]
    for i, summary in enumerate(batch):
        (one,) = cross_attention_summary(
            att[i : i + 1], spans, names, query, key, validity[query][i : i + 1], validity[key][i : i + 1]
        )
        assert [(t, v.hex()) for t, v in summary.ranking] == [(t, v.hex()) for t, v in one.ranking]
        # the ranking holds exactly the patient's valid keys
        assert sorted(t for t, _ in summary.ranking) == [n for n, v in zip(names, validity[key][i]) if v]


def test_attention_summary_patient_without_valid_query_rejected():
    att, spans, validity = _attention_batch(4)
    validity["text"][2] = 0.0
    names = ["A", "B", "C"]
    with pytest.raises(BadInput, match="empty attention block 'text' -> 'pathway' in batch row 2"):
        cross_attention_summary(att, spans, names, "text", "pathway", validity["text"], validity["pathway"])


def test_attention_summary_rejects_a_single_matrix():
    att, spans, validity = _attention_batch(5)
    names = ["A", "B", "C"]
    with pytest.raises(ShapeMismatch, match="not a batch"):
        cross_attention_summary(att[0], spans, names, "text", "pathway", validity["text"], validity["pathway"])
