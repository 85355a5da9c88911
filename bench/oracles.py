"""Independent reference computations for the benchmark's correctness checks.

Each function re-derives a figure from its definition with numpy array
operations, without calling protosurv, so a fault in the program shows as a
mismatch instead of being copied into the reference.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with its reference or violates an invariant."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def concordance(times, events, risks) -> float:
    """Harrell's C over ordered pairs (a, b) where a is known to fail first:
    a has an event and either t_a < t_b, or t_a == t_b and b is censored.
    Equal risks score one half."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events) == 1
    risks = np.asarray(risks, dtype=float)
    earlier = events[:, None] & (
        (times[:, None] < times[None, :]) | ((times[:, None] == times[None, :]) & ~events[None, :])
    )
    comparable = int(np.count_nonzero(earlier))
    require(comparable > 0, "no comparable pair")
    higher = int(np.count_nonzero(earlier & (risks[:, None] > risks[None, :])))
    tied = int(np.count_nonzero(earlier & (risks[:, None] == risks[None, :])))
    return (higher + 0.5 * tied) / comparable


def kaplan_meier(times, events):
    """(event times, survival after each, risk-set size at each) by sorting."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events) == 1
    order = np.sort(times)
    event_times, deaths = np.unique(times[events], return_counts=True)
    at_risk = order.size - np.searchsorted(order, event_times, side="left")
    return event_times, np.cumprod(1.0 - deaths / at_risk), at_risk


def log_rank(times_a, events_a, times_b, events_b) -> float:
    """Two-group log-rank chi-square statistic with the hypergeometric variance."""
    times_a, times_b = np.asarray(times_a, dtype=float), np.asarray(times_b, dtype=float)
    events_a, events_b = np.asarray(events_a) == 1, np.asarray(events_b) == 1
    grid = np.unique(np.concatenate([times_a[events_a], times_b[events_b]]))
    sorted_a, sorted_b = np.sort(times_a), np.sort(times_b)
    n_a = sorted_a.size - np.searchsorted(sorted_a, grid, side="left")
    n = n_a + sorted_b.size - np.searchsorted(sorted_b, grid, side="left")
    d_a = np.searchsorted(np.sort(times_a[events_a]), grid, side="right") - np.searchsorted(
        np.sort(times_a[events_a]), grid, side="left"
    )
    d = d_a + np.searchsorted(np.sort(times_b[events_b]), grid, side="right") - np.searchsorted(
        np.sort(times_b[events_b]), grid, side="left"
    )
    expected = d * n_a / n
    share = n_a / n
    variance = np.where(n > 1, d * share * (1.0 - share) * (n - d) / np.maximum(n - 1, 1), 0.0)
    total = variance.sum()
    if total == 0.0:
        return 0.0
    return float((d_a.sum() - expected.sum()) ** 2 / total)


def median_split(risks) -> list[str]:
    """"high" strictly above the median of the sorted risks, else "low"."""
    ordered = np.sort(np.asarray(risks, dtype=float))
    mid = ordered.size // 2
    median = ordered[mid] if ordered.size % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return ["high" if r > median else "low" for r in risks]


def completeness(patterns, components) -> float:
    """Share of patches whose planted pattern lies wholly inside one fitted
    component, i.e. every patch of the pattern has the same argmax component."""
    patterns = np.asarray(patterns)
    components = np.asarray(components)
    whole = 0
    for p in np.unique(patterns):
        members = components[patterns == p]
        if np.all(members == members[0]):
            whole += members.size
    return whole / patterns.size


def close(a, b, tol: float) -> bool:
    """Equal within ``tol`` relative to the larger magnitude."""
    a, b = float(a), float(b)
    return abs(a - b) <= tol * max(abs(a), abs(b))
