"""Survival metrics and attention diagnostics.

Harrell's concordance index, the Kaplan-Meier product-limit estimator, the
two-group log-rank test (chi-square tail via the complementary error
function, no statistics library), median-risk stratification and
cross-attention dispersion summaries, which take a batch of attention
matrices and return one ranking per patient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, NoComparablePairs, NoEvents, ShapeMismatch


@dataclass
class KmCurve:
    times: np.ndarray  # sorted distinct event times
    survival: np.ndarray  # product-limit estimate after each event time
    at_risk: np.ndarray  # risk-set size at each event time


@dataclass
class LogRankResult:
    statistic: float  # chi-square with 1 degree of freedom
    p_value: float


@dataclass
class AttentionSummary:
    query_block: str
    key_block: str
    ranking: list[tuple[str, float]]  # (key token name, dispersion), descending


def _records_to_arrays(records):
    """(times, events) arrays of a sequence of SurvivalRecords or of a
    (times, events) pair, the label form every metric and the loss accept."""
    if isinstance(records, tuple):
        return np.asarray(records[0], dtype=float), np.asarray(records[1], dtype=int)
    times = np.asarray([r.time for r in records], dtype=float)
    events = np.asarray([r.event for r in records], dtype=int)
    return times, events


def concordance_index(risks, records) -> float:
    """Harrell's C. A pair is comparable when the earlier time is an event
    and times differ, or when times tie with exactly one event (the event
    subject counts as earlier). Risk ties score one half.

    One sort of the labels, time descending with the censored before the
    events at an equal time, puts each event's comparable partners exactly in
    the prefix before the first event of its time. Each event then counts the
    partners of lower and of equal dense risk rank in its prefix, split into
    power-of-two blocks as a Fenwick tree would: one sorted array of keys
    ``block * (n + 1) + rank`` per block size, searched once for every event.
    O(n log n) time, O(n) memory, and the pair counts are exact integers, so
    the result is the same float as an all-pairs count gives.
    """
    times, events = _records_to_arrays(records)
    risks = np.asarray(risks, dtype=float)
    n = times.shape[0]
    if risks.shape != times.shape:
        raise BadInput(f"{risks.size} risks for {n} records")
    for name, values in (("risk", risks), ("time", times)):
        nan = np.flatnonzero(np.isnan(values))
        if nan.size:
            raise BadInput(f"{name} of record {nan[0]} is NaN")
    if n < 2:
        raise NoComparablePairs("need at least two records")
    order = np.lexsort((events, -times))
    times, events = times[order], events[order]
    rank = np.unique(risks, return_inverse=True)[1].reshape(n)[order]
    position = np.arange(n)
    # an event's partners: every record before the first of its (time, event) run
    run_start = np.r_[True, (times[1:] != times[:-1]) | (events[1:] != events[:-1])]
    prefix = np.maximum.accumulate(np.where(run_start, position, 0))[events == 1]
    query = rank[events == 1]
    comparable = int(prefix.sum())
    if comparable == 0:
        raise NoComparablePairs("no comparable pair of records")
    concordant = lower_or_equal = 0
    for level in range(n.bit_length()):
        # a prefix with this bit set holds the whole block just below its end
        holds = (prefix >> level) & 1 == 1
        if not holds.any():
            continue
        keys = np.sort((position >> level) * (n + 1) + rank)
        block = (prefix[holds] >> level) - 1
        wanted = np.sort(block * (n + 1) + query[holds])  # sorted queries search faster
        bounds = np.empty(2 * wanted.size, dtype=np.int64)
        bounds[0::2], bounds[1::2] = wanted, wanted + 1
        found = np.searchsorted(keys, bounds)
        before = int(block.sum()) << level  # records of the full blocks ahead of each one
        concordant += int(found[0::2].sum()) - before
        lower_or_equal += int(found[1::2].sum()) - before
    tied = lower_or_equal - concordant
    return (concordant + 0.5 * tied) / comparable


def _counts_at(event_times, times, events):
    """Per event time t: the risk-set size #{times >= t} and the deaths
    #{times == t, event}."""
    ordered = np.sort(times)
    died = np.sort(times[events == 1])
    at_risk = times.size - np.searchsorted(ordered, event_times, side="left")
    deaths = np.searchsorted(died, event_times, side="right") - np.searchsorted(died, event_times, side="left")
    return at_risk, deaths


def km_curve(records) -> KmCurve:
    """Product-limit survival estimate over the distinct event times."""
    times, events = _records_to_arrays(records)
    if times.size == 0:
        raise BadInput("no records")
    event_times = np.unique(times[events == 1])
    at_risk, deaths = _counts_at(event_times, times, events)
    # cumprod multiplies left to right in time order, as a running product does
    survival = np.cumprod(1.0 - deaths / at_risk)
    return KmCurve(event_times, survival, at_risk)


def chi2_1df_sf(statistic: float) -> float:
    """Upper tail of the chi-square(1) distribution via erfc."""
    return math.erfc(math.sqrt(statistic / 2.0))


def log_rank(group_a, group_b) -> LogRankResult:
    """Two-group log-rank test over the pooled distinct event times."""
    times_a, events_a = _records_to_arrays(group_a)
    times_b, events_b = _records_to_arrays(group_b)
    if times_a.size == 0 or times_b.size == 0:
        raise BadInput("both groups must be nonempty")
    times = np.concatenate([times_a, times_b])
    events = np.concatenate([events_a, events_b])
    event_times = np.unique(times[events == 1])
    if event_times.size == 0:
        raise NoEvents("no observed event in either group")

    n_total, d_total = _counts_at(event_times, times, events)
    n_a, d_a = _counts_at(event_times, times_a, events_a)
    share_a = n_a / n_total
    # a risk set of one contributes no variance; its denominator is never used
    contrib = d_total * share_a * (1.0 - share_a) * (n_total - d_total) / np.maximum(n_total - 1, 1)
    observed_a = float(d_a.sum())  # a count: exact in any order
    # cumsum adds left to right in time order, as a running total does
    expected_a = float(np.cumsum(d_total * n_a / n_total)[-1])
    variance = float(np.cumsum(np.where(n_total > 1, contrib, 0.0))[-1])
    if variance == 0.0:
        return LogRankResult(0.0, 1.0)
    statistic = (observed_a - expected_a) ** 2 / variance
    return LogRankResult(statistic, chi2_1df_sf(statistic))


def stratify_median(risks) -> list[str]:
    """Label each patient high/low against the cohort median; strictly above
    goes high, the median itself goes low."""
    risks = np.asarray(risks, dtype=float)
    if risks.size < 2:
        raise BadInput("need at least two risks to stratify")
    return np.where(risks > np.median(risks), "high", "low").tolist()


def cross_attention_summary(
    attention, block_spans, key_names, query_block: str, key_block: str, query_validity, key_validity
) -> list[AttentionSummary]:
    """Rank the keys of one modality by how unevenly another modality's
    queries attend to them, one summary per patient of a batch: per key token,
    the (population) standard deviation of its attention weights across the
    patient's valid query rows, descending, ties by key index, invalid keys
    left out.

    ``attention`` is a (b, n, n) batch, one patient being a batch of one;
    ``block_spans`` maps block name -> (start, stop) within each matrix;
    ``query_validity`` and ``key_validity`` are the blocks' (b, n_query) and
    (b, n_key) 0/1 validities; ``key_names`` names the key block's tokens in
    order.
    """
    attention = np.asarray(attention, dtype=float)
    if attention.ndim != 3:
        raise ShapeMismatch(f"attention {attention.shape} is not a batch of matrices")
    if query_block not in block_spans or key_block not in block_spans:
        raise BadInput(f"unknown block in ({query_block!r}, {key_block!r})")
    q_start, q_stop = block_spans[query_block]
    k_start, k_stop = block_spans[key_block]
    sub = attention[:, q_start:q_stop, k_start:k_stop]
    rows = np.asarray(query_validity, dtype=float) > 0.5
    keys = np.asarray(key_validity, dtype=float) > 0.5
    if rows.shape != sub.shape[:2] or keys.shape != sub.shape[::2]:
        raise ShapeMismatch(f"validities {rows.shape} and {keys.shape} for attention block {sub.shape}")
    empty = np.flatnonzero(~rows.any(axis=1) | (sub.shape[2] == 0))
    if empty.size:
        raise BadInput(f"empty attention block {query_block!r} -> {key_block!r} in batch row {empty[0]}")
    names = list(key_names)
    if len(names) != sub.shape[2]:
        raise BadInput(f"{len(names)} key names for {sub.shape[2]} keys")
    dispersion = sub.std(axis=-2, where=rows[:, :, None])
    order = np.argsort(-dispersion, axis=-1, kind="stable")
    return [
        AttentionSummary(query_block, key_block, [(names[i], float(d[i])) for i in o if valid[i]])
        for d, o, valid in zip(dispersion, order, keys)
    ]
