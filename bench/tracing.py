"""Spans around calls into protosurv, installed only for traced runs.

The tracer wraps module-level functions of the package from the outside:
every ``protosurv.*`` module attribute that refers to a traced function is
replaced by a wrapper that records a span (name, start, end, parent), and
``Tensor`` gets a counting ``__init__`` and a timed ``backward``. Spans stay
in memory until the run ends. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module, function) pairs wrapped in a traced run; the span is named
# "<module>.<function>" without the package prefix
TRACED_FUNCTIONS = (
    ("data", "synth_cohort"),
    ("data", "load_cohort"),
    ("text", "text_self_attention"),
    ("histology", "fit_gmm"),
    ("pathways", "pathway_slices"),
    ("numerics", "snn_forward"),
    ("fusion", "fuse"),
    ("model", "forward_risks"),
    ("model", "forward_diagnostics"),
    ("survival", "train"),
    ("survival", "cox_loss"),
    ("survival", "predict_cohort"),
    ("survival", "load_checkpoint"),
    ("evaluation", "concordance_index"),
    ("evaluation", "log_rank"),
    ("evaluation", "km_curve"),
    ("evaluation", "stratify_median"),
    ("evaluation", "cross_attention_summary"),
    ("pipeline", "build_prepared"),
)

# every per-layer metric a traced run reports, with its unit; a layer the
# workload never calls reads 0
LAYER_METRICS = {
    "numerics.backward_ms.p50": "ms",
    "numerics.tensors_per_step": "count",
    "survival.step_ms.p50": "ms",
    "survival.step_ms.p90": "ms",
    "survival.cox_loss_ms.p50": "ms",
    "survival.optimizer_ms.p50": "ms",
    "model.forward_ms.p50": "ms",
    "text.self_attention_ms.p50": "ms",
    "pathways.snn_ms.p50": "ms",
    "pathways.snn_calls": "count",
    "fusion.fuse_ms.p50": "ms",
    "model.head_ms.p50": "ms",
    **{
        f"{stage}.stage_{direction}_ms": "ms"
        for stage in ("text", "histology", "pathways", "fusion", "head", "cox")
        for direction in ("fwd", "bwd")
    },
    "histology.em_iter_ms.p50": "ms",
    "histology.em_iters_per_slide": "count",
    "histology.desk_fit_ms.p50": "ms",
    "histology.desk_fit_ms.p90": "ms",
    "evaluation.concordance_index_ms.p50": "ms",
    "evaluation.log_rank_ms.p50": "ms",
    "evaluation.km_curve_ms.p50": "ms",
    "evaluation.stratify_median_ms.p50": "ms",
    "model.forward_diagnostics_ms.p50": "ms",
    "model.forward_diagnostics_ms.p90": "ms",
    "model.forward_diagnostics_calls": "count",
    "fusion.fuse_infer_ms.p50": "ms",
    "evaluation.cross_attention_summary_ms.p50": "ms",
    "survival.load_checkpoint_ms.p50": "ms",
    "data.load_cohort_ms.p50": "ms",
    "pipeline.build_prepared_ms.p50": "ms",
    "data.synth_cohort_s": "s",
    "pipeline.build_prepared_s": "s",
    "cli.prototype_s": "s",
    "cli.train_s": "s",
}


def p50(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the enclosing span, -1 at top level
    tensors: int  # Tensor objects created before the span opened
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and a Tensor construction counter."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tensors = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._children: dict[int, list[int]] | None = None  # built on the first query

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.tensors))
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    # -- installing wrappers -----------------------------------------------

    def _timed(self, name: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close()

        return traced

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n == "protosurv" or n.startswith("protosurv.")]
        for module_name, attr in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(f"protosurv.{module_name}"), attr)
            traced = self._timed(f"{module_name}.{attr}", original)
            for module in package:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, traced)

        tensor = importlib.import_module("protosurv.numerics").Tensor
        original_init = tensor.__init__

        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            original_init(obj, *args, **kwargs)

        self._restore.append((tensor, "__init__", original_init))
        tensor.__init__ = counting_init
        self._restore.append((tensor, "backward", tensor.backward))
        tensor.backward = self._timed("numerics.backward", tensor.backward)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------------

    def ancestor(self, index: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        parent = self.spans[index].parent
        while parent >= 0 and self.spans[parent].name != name:
            parent = self.spans[parent].parent
        return parent

    def within(self, index: int, name: str) -> bool:
        return self.ancestor(index, name) >= 0

    def select(self, name: str, inside: str | None = None, outside: str | None = None) -> list[int]:
        return [
            i
            for i, s in enumerate(self.spans)
            if s.name == name
            and (inside is None or self.within(i, inside))
            and (outside is None or not self.within(i, outside))
        ]

    def durations_ms(self, name: str, **where) -> list[float]:
        return [self.spans[i].duration * 1e3 for i in self.select(name, **where)]

    def children(self, index: int) -> list[int]:
        if self._children is None:
            self._children = {}
            for i, s in enumerate(self.spans):
                self._children.setdefault(s.parent, []).append(i)
        return self._children.get(index, [])

    def descendants(self, index: int) -> list[int]:
        found, todo = [], list(self.children(index))
        while todo:
            i = todo.pop()
            found.append(i)
            todo.extend(self.children(i))
        return sorted(found)

    def dump(self) -> list[list]:
        """[name, start, end, parent index, Tensors created before] per span."""
        return [[s.name, s.start, s.end, s.parent, s.tensors] for s in self.spans]


def training_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-step figures of every ``survival.train`` call in the trace.

    A step runs from one ``forward_risks`` start to the next inside the same
    ``train``; the optimizer share is the step minus its forward, Cox loss and
    backward spans. Pathway networks are the ``snn_forward`` calls a forward
    makes before it calls ``fuse``; the head is the rest of the forward after
    ``fuse`` returns.
    """
    steps, optimizer, tensors = [], [], []
    forwards, snn_ms, snn_calls, fuse_ms, head_ms = [], [], [], [], []
    for t in tracer.select("survival.train"):
        kids = tracer.children(t)
        fwd = [i for i in kids if tracer.spans[i].name == "model.forward_risks"]
        for a, b in zip(fwd, fwd[1:]):
            start, stop = tracer.spans[a].start, tracer.spans[b].start
            inner = sum(
                tracer.spans[i].duration
                for i in kids
                if start <= tracer.spans[i].start < stop
                and tracer.spans[i].name in ("model.forward_risks", "survival.cox_loss", "numerics.backward")
            )
            steps.append((stop - start) * 1e3)
            optimizer.append((stop - start - inner) * 1e3)
            tensors.append(tracer.spans[b].tensors - tracer.spans[a].tensors)
        for f in fwd:
            inner = tracer.descendants(f)
            fuses = [i for i in inner if tracer.spans[i].name == "fusion.fuse"]
            if not fuses:
                continue
            fused = tracer.spans[fuses[0]]
            pathway_calls = [
                i for i in inner if tracer.spans[i].name == "numerics.snn_forward" and tracer.spans[i].start < fused.start
            ]
            forwards.append(tracer.spans[f].duration * 1e3)
            snn_ms.append(sum(tracer.spans[i].duration for i in pathway_calls) * 1e3)
            snn_calls.append(len(pathway_calls))
            fuse_ms.append(fused.duration * 1e3)
            head_ms.append((tracer.spans[f].end - fused.end) * 1e3)
    return {
        "numerics.backward_ms.p50": p50(tracer.durations_ms("numerics.backward", inside="survival.train")),
        "numerics.tensors_per_step": p50(tensors),
        "survival.step_ms.p50": p50(steps),
        "survival.step_ms.p90": p90(steps),
        "survival.cox_loss_ms.p50": p50(tracer.durations_ms("survival.cox_loss", inside="survival.train")),
        "survival.optimizer_ms.p50": p50(optimizer),
        "model.forward_ms.p50": p50(forwards),
        "text.self_attention_ms.p50": p50(tracer.durations_ms("text.text_self_attention", inside="survival.train")),
        "pathways.snn_ms.p50": p50(snn_ms),
        "pathways.snn_calls": p50(snn_calls),
        "fusion.fuse_ms.p50": p50(fuse_ms),
        "model.head_ms.p50": p50(head_ms),
    }
