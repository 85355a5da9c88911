"""The four benchmark workloads.

Each workload builds its inputs from the run seed in ``setup``, runs one
operation per ``operation`` call, and checks every output against the
references in ``oracles``. ``layer_metrics`` turns the spans of a traced run
into the per-layer figures the workload is responsible for.

The program is driven only through its public functions and its CLI, with
one exception: the batch-64 head stage calls ``model._pooled_risk``, the only
function that computes the risk head on a taped batch.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import stats

from protosurv import cli, data, evaluation, fusion, histology, model, pipeline, survival, text
from protosurv import numerics as nm
from protosurv.rng import substream

import oracles
from oracles import close, require
from tracing import p50, p90, training_metrics


class SetupFailed(Exception):
    """A workload's inputs or prototype stage could not be built."""


class Workload:
    """Shared shape of a workload. ``warmup`` asks for one untimed operation;
    a run ends only after a whole number of ``round_size`` operations."""

    name = ""
    warmup = True
    round_size = 1

    def __init__(self, seed: int, tracer=None, work_root: Path | None = None):
        self.seed = seed
        self.tracer = tracer
        self.work_root = work_root

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, index: int):
        raise NotImplementedError

    def items(self, output) -> int:
        raise NotImplementedError

    def check(self, output) -> float:
        """Raise CheckFailed on a wrong output; return the quality figure."""
        raise NotImplementedError

    def layer_metrics(self, tracer) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# crit7_fold: one fold of the criterion-7 protocol
# ---------------------------------------------------------------------------

CRIT7_SPEC = dict(
    n_patients=300, n_segments=(3, 8), n_patches=(64, 128), d_t=16, d_h=16,
    n_genes=200, n_pathways=50, signal_modality="pathway",
    signal_strength=2.5, censoring_rate=0.25, seed=11,
)
CRIT7_FOLDS = 5
# 20 of the protocol's 50 epochs: a 50-epoch fold takes about 55 s on one
# core, too long when every workload is run 22 times within an hour
CRIT7_EPOCHS = 20
# lowest held-out C-index accepted; README.md derives it from the planted signal
CRIT7_FLOOR = 0.62
STAGE_BATCH = 64
STAGE_REPS = 10


class Crit7Fold(Workload):
    name = "crit7_fold"
    warmup = False  # each operation is a whole training run from fresh parameters

    def setup(self) -> None:
        cohort = data.synth_cohort(data.SyntheticSpec(**CRIT7_SPEC))
        self.config = survival.TrainConfig(seed=1, d_e=64, d_r=16, epochs=CRIT7_EPOCHS)
        self.prepared, self.dims, _ = pipeline.build_prepared(cohort, self.config)
        folds = data.kfold_split(cohort.patient_ids, CRIT7_FOLDS, self.config.seed)
        held = folds[self.seed % CRIT7_FOLDS]
        position = {pid: i for i, pid in enumerate(cohort.patient_ids)}
        held_set = set(held)
        self.train_idx = np.asarray([i for i, p in enumerate(cohort.patient_ids) if p not in held_set])
        self.held_idx = np.asarray([position[p] for p in held])

    def operation(self, index: int):
        trained, history = survival.train(self.prepared.subset(self.train_idx), self.config)
        held = self.prepared.subset(self.held_idx)
        risks = survival.predict_cohort(trained, held, self.config.fusion_mode)
        records = [
            survival.SurvivalRecord(p, float(t), int(e)) for p, t, e in zip(held.patient_ids, held.times, held.events)
        ]
        return evaluation.concordance_index(risks, records), risks, history

    def items(self, output) -> int:
        return len(self.train_idx) * self.config.epochs

    def check(self, output) -> float:
        c_index, risks, history = output
        require(np.all(np.isfinite(risks)), "non-finite held-out risk")
        require(len(history) == self.config.epochs, f"{len(history)} epochs recorded")
        require(all(np.isfinite(h.mean_loss) for h in history), "non-finite epoch loss")
        reference = oracles.concordance(
            self.prepared.times[self.held_idx], self.prepared.events[self.held_idx], risks
        )
        require(abs(c_index - reference) <= 1e-12, f"C-index {c_index!r} vs pairwise reference {reference!r}")
        require(c_index > CRIT7_FLOOR, f"held-out C-index {c_index:.4f} not above {CRIT7_FLOOR}")
        return c_index

    def layer_metrics(self, tracer) -> dict[str, float]:
        desk = tracer.durations_ms("histology.fit_gmm", inside="pipeline.build_prepared")
        metrics = training_metrics(tracer)
        metrics.update(
            {
                "histology.desk_fit_ms.p50": p50(desk),
                "histology.desk_fit_ms.p90": p90(desk),
                "data.synth_cohort_s": p50(tracer.durations_ms("data.synth_cohort")) / 1e3,
                "pipeline.build_prepared_s": p50(tracer.durations_ms("pipeline.build_prepared")) / 1e3,
            }
        )
        metrics.update(self.stage_timings())
        return metrics

    def stage_timings(self) -> dict[str, float]:
        """Forward and backward ms of each stage alone on one batch of 64.

        Parameters and stage inputs are leaf Tensors; each stage's outputs are
        contracted with a fixed random cotangent before the backward sweep.
        """
        dims = self.dims
        batch = self.prepared.subset(self.train_idx[:STAGE_BATCH])
        n = len(batch)
        init = model.init_params(dims, substream(self.config.seed, "init"))
        pt = {name: nm.Tensor(value, requires_grad=True) for name, value in init.items()}
        rng = np.random.default_rng(0)

        def snn(prefix):
            return [(pt[f"{prefix}.w0"], pt[f"{prefix}.b0"]), (pt[f"{prefix}.w1"], pt[f"{prefix}.b1"])]

        def leaves(prefix):
            return [tensor for name, tensor in pt.items() if name.startswith(prefix)]

        # which prototype slots are filled depends on the report lengths alone
        _, text_valid = text.top_segment_indices(batch.text_mask, batch.text_mask, dims.n_text)
        validity = {
            "pathway": np.ones((n, dims.n_pathways)),
            "histology": np.ones((n, dims.n_histology)),
            "text": text_valid,
        }

        def text_stage():
            z, att = text.text_self_attention(
                text.PaddedBatch(batch.text_data, batch.text_mask, dims.max_segments),
                text.TextAttentionParams(pt["text.w_q"], pt["text.w_k"], pt["text.w_v"]),
            )
            scores = text.importance_scores(att, batch.text_mask)
            order, valid = text.top_segment_indices(scores, batch.text_mask, dims.n_text)
            picked = nm.gather_rows(nm.as_tensor(z), order) * valid[..., None]
            return [nm.affine(picked, pt["text.alpha.w"], pt["text.alpha.b"])]

        def histology_stage():
            return [nm.affine(nm.as_tensor(batch.slides), pt["histo.alpha.w"], pt["histo.alpha.b"])]

        def pathways_stage():
            rows = [
                nm.reshape(nm.snn_forward(nm.as_tensor(batch.slices[i]), snn(f"path.snn{i}")), (n, 1, dims.d_e))
                for i in range(dims.n_pathways)
            ]
            return [nm.concat(rows, axis=-2)]

        results: dict[str, float] = {}
        token_leaves = {}
        for stage, modality, forward, prefix in (
            ("text", "text", text_stage, "text."),
            ("histology", "histology", histology_stage, "histo."),
            ("pathways", "pathway", pathways_stage, "path."),
        ):
            tokens = _time_stage(stage, forward, leaves(prefix), rng, results)[0]
            token_leaves[modality] = nm.Tensor(tokens.data, requires_grad=True)

        def fusion_stage():
            fused = fusion.fuse(
                p=fusion.ModalityTokens("pathway", token_leaves["pathway"], validity["pathway"]),
                h=fusion.ModalityTokens("histology", token_leaves["histology"], validity["histology"]),
                t=fusion.ModalityTokens("text", token_leaves["text"], validity["text"]),
                params=fusion.FusionParams(pt["fusion.e_r"], pt["fusion.w_q"], pt["fusion.w_k"], pt["fusion.w_v"]),
                mode="full",
            )
            return [fused.pathway, fused.histology, fused.text]

        fused = _time_stage("fusion", fusion_stage, leaves("fusion.") + list(token_leaves.values()), rng, results)
        block_leaves = {
            name: nm.Tensor(out.data, requires_grad=True) for name, out in zip(("pathway", "histology", "text"), fused)
        }

        def head_stage():
            return [model._pooled_risk(block_leaves, validity, pt, dims)]

        risk = _time_stage("head", head_stage, leaves("head.") + list(block_leaves.values()), rng, results)
        risk_leaf = nm.Tensor(risk[0].data.reshape(n), requires_grad=True)

        def cox_stage():
            loss, _ = survival.cox_loss(risk_leaf, (batch.times, batch.events))
            return [loss]

        _time_stage("cox", cox_stage, [risk_leaf], rng, results)
        return results


def _time_stage(stage, forward, leaves, rng, results):
    """Median forward and backward ms over STAGE_REPS runs after one warm-up."""
    cotangents = None
    fwd, bwd = [], []
    for rep in range(STAGE_REPS + 1):
        for leaf in leaves:
            leaf.grad = None
        start = time.perf_counter()
        outputs = forward()
        middle = time.perf_counter()
        if cotangents is None:
            cotangents = [rng.normal(size=out.data.shape) for out in outputs]
        loss = nm.tsum(outputs[0] * cotangents[0])
        for out, cot in zip(outputs[1:], cotangents[1:]):
            loss = loss + nm.tsum(out * cot)
        loss.backward()
        end = time.perf_counter()
        if rep:
            fwd.append((middle - start) * 1e3)
            bwd.append((end - middle) * 1e3)
    results[f"{stage}.stage_fwd_ms"] = statistics.median(fwd)
    results[f"{stage}.stage_bwd_ms"] = statistics.median(bwd)
    return outputs


# ---------------------------------------------------------------------------
# slides_paper: fit_gmm on paper-scale slides
# ---------------------------------------------------------------------------

SLIDE_PATCHES = 4096
SLIDE_DIM = 384
SLIDE_COMPONENTS = 16
SLIDE_PATTERNS = 64
SLIDE_POOL = 8
# completeness is 1.0 on these well-separated patterns; below this the
# mixture has split planted patterns across components
COMPLETENESS_FLOOR = 0.95


class SlidesPaper(Workload):
    name = "slides_paper"
    round_size = SLIDE_POOL  # every run fits each slide of the pool equally often

    def setup(self) -> None:
        self.slides = []
        self.iterations = []
        self.fitted = {}  # slide index -> (fit bytes, completeness) of its first fit
        for j in range(SLIDE_POOL):
            rng = np.random.default_rng([self.seed, j])
            centres = rng.normal(0.0, 2.0, size=(SLIDE_PATTERNS, SLIDE_DIM))
            patterns = rng.permutation(np.repeat(np.arange(SLIDE_PATTERNS), SLIDE_PATCHES // SLIDE_PATTERNS))
            patches = centres[patterns] + rng.normal(0.0, 0.5, size=(SLIDE_PATCHES, SLIDE_DIM))
            self.slides.append((histology.PatchFeatures(f"slide{j}", patches), patterns))

    def operation(self, index: int):
        j = index % SLIDE_POOL
        features, _ = self.slides[j]
        params, trace = histology.fit_gmm(features, SLIDE_COMPONENTS, np.random.default_rng([self.seed, j, 1]))
        return j, params, trace, histology.slide_representation(params)

    def items(self, output) -> int:
        return 1

    def check(self, output) -> float:
        j, params, trace, representation = output
        self.iterations.append(trace.iterations)
        fit = b"".join(a.tobytes() for a in (params.weights, params.means, params.variances, representation))
        if j in self.fitted:
            require(fit == self.fitted[j][0], f"slide {j}: refit differs from its first fit")
            return self.fitted[j][1]
        features, patterns = self.slides[j]
        require(np.all(params.weights > 0), "non-positive mixture weight")
        require(abs(params.weights.sum() - 1.0) <= 1e-12, f"weights sum to {params.weights.sum()!r}")
        require(np.all(params.variances >= histology.VAR_FLOOR), "variance below VAR_FLOOR")
        require(np.all(np.diff(representation[:, 0]) <= 0), "representation rows not sorted by weight")
        drops = np.diff(np.asarray(trace.log_likelihoods))
        require(drops.size == 0 or drops.min() >= -1e-8, f"EM log-likelihood fell by {-drops.min():.3g}")
        assigned = histology.responsibilities(features, params).argmax(axis=1)
        share = oracles.completeness(patterns, assigned)
        require(share >= COMPLETENESS_FLOOR, f"completeness {share:.4f} below {COMPLETENESS_FLOOR}")
        self.fitted[j] = (fit, share)
        return share

    def layer_metrics(self, tracer) -> dict[str, float]:
        fits = tracer.durations_ms("histology.fit_gmm")
        return {
            "histology.em_iter_ms.p50": p50([ms / it for ms, it in zip(fits, self.iterations)]),
            "histology.em_iters_per_slide": p50(self.iterations),
        }


# ---------------------------------------------------------------------------
# cohort_metrics: held-out evaluation at cohort scale
# ---------------------------------------------------------------------------

COHORT_SIZE = 2000
COHORT_CENSORED = COHORT_SIZE // 4


class CohortMetrics(Workload):
    name = "cohort_metrics"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, COHORT_SIZE])
        log_hazard = rng.normal(size=COHORT_SIZE)
        times = rng.exponential(size=COHORT_SIZE) / (0.05 * np.exp(log_hazard))
        censored = rng.permutation(COHORT_SIZE) < COHORT_CENSORED
        times[censored] *= rng.uniform(size=COHORT_CENSORED)
        times = np.ceil(times)  # whole time units, so that times tie
        self.risks = np.round(log_hazard + rng.normal(scale=0.5, size=COHORT_SIZE), 2)  # risks tie too
        self.times, self.events = times, (~censored).astype(int)
        self.records = [
            survival.SurvivalRecord(f"P{i:04d}", float(t), int(e)) for i, (t, e) in enumerate(zip(times, self.events))
        ]
        require(np.unique(times).size < COHORT_SIZE and np.unique(self.risks).size < COHORT_SIZE, "no ties drawn")
        self.reference = None

    def operation(self, index: int):
        c_index = evaluation.concordance_index(self.risks, self.records)
        labels = evaluation.stratify_median(self.risks)
        high = [r for r, g in zip(self.records, labels) if g == "high"]
        low = [r for r, g in zip(self.records, labels) if g == "low"]
        curves = {"high": evaluation.km_curve(high), "low": evaluation.km_curve(low)}
        return c_index, labels, curves, evaluation.log_rank(high, low)

    def items(self, output) -> int:
        return COHORT_SIZE

    def check(self, output) -> float:
        c_index, labels, curves, test = output
        summary = (
            c_index, tuple(labels), test.statistic, test.p_value,
            *(arr.tobytes() for curve in curves.values() for arr in (curve.times, curve.survival, curve.at_risk)),
        )
        if self.reference is not None:
            require(summary == self.reference, "outputs differ between operations")
            return c_index
        reference = oracles.concordance(self.times, self.events, self.risks)
        require(abs(c_index - reference) <= 1e-12, f"C-index {c_index!r} vs pairwise reference {reference!r}")
        require(labels == oracles.median_split(self.risks), "median stratification differs from reference")
        group = np.asarray([g == "high" for g in labels])
        for name, mask in (("high", group), ("low", ~group)):
            times, survival_, at_risk = oracles.kaplan_meier(self.times[mask], self.events[mask])
            curve = curves[name]
            require(np.array_equal(curve.times, times), f"{name}: Kaplan-Meier event times differ")
            require(np.array_equal(curve.at_risk, at_risk), f"{name}: Kaplan-Meier risk sets differ")
            require(np.max(np.abs(curve.survival - survival_)) <= 1e-12, f"{name}: Kaplan-Meier survival differs")
        statistic = oracles.log_rank(
            self.times[group], self.events[group], self.times[~group], self.events[~group]
        )
        require(close(test.statistic, statistic, 1e-9), f"log-rank {test.statistic!r} vs reference {statistic!r}")
        tail = float(stats.chi2.sf(test.statistic, 1))
        require(close(test.p_value, tail, 1e-9), f"log-rank p {test.p_value!r} vs chi2(1) tail {tail!r}")
        self.reference = summary
        return c_index

    def layer_metrics(self, tracer) -> dict[str, float]:
        return {
            f"evaluation.{fn}_ms.p50": p50(tracer.durations_ms(f"evaluation.{fn}"))
            for fn in ("concordance_index", "log_rank", "km_curve", "stratify_median")
        }


# ---------------------------------------------------------------------------
# cli_eval: the protosurv eval command with attention summaries
# ---------------------------------------------------------------------------

CLI_ATTENTION = ("text:pathway", "pathway:pathway", "histology:text")


class CliEval(Workload):
    """The run seed does not enter: after one epoch the mean C-index moves
    between 0.50 and 0.58 with the training seed, so training uses seed 1,
    like the prototype stage, and ``quality`` repeats exactly."""

    name = "cli_eval"

    def __init__(self, seed: int, tracer=None, work_root: Path | None = None):
        super().__init__(seed, tracer, work_root)
        self.work: Path | None = None

    def _cli(self, argv) -> None:
        argv = [str(a) for a in argv]
        err = io.StringIO()
        with self.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise SetupFailed(f"protosurv {argv[0]} exited {code}: {err.getvalue().strip()}")

    def setup(self) -> None:
        self.close()
        self.work_root.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli_eval-", dir=self.work_root))
        self.cohort, self.protos, self.models = (self.work / d for d in ("cohort", "prototypes", "models"))
        self.manifest = self.cohort / "manifest.json"
        self._cli(["synth", "--out", self.cohort, "--patients", 300, "--seed", 11])
        self._cli(["prototype", "--manifest", self.manifest, "--out", self.protos, "--seed", 1])
        self._cli([
            "train", "--manifest", self.manifest, "--prototypes", self.protos, "--out", self.models,
            "--fusion-mode", "late", "--epochs", 1, "--folds", 2, "--d-e", 64, "--d-r", 16, "--seed", 1,
        ])
        with open(self.models / "folds.json", encoding="utf-8") as fh:
            self.folds = json.load(fh)["folds"]
        self.reference = None

    def operation(self, index: int):
        out = self.work / f"eval-{index}"
        argv = ["eval", "--manifest", self.manifest, "--prototypes", self.protos, "--models", self.models, "--out", out]
        for pair in CLI_ATTENTION:
            argv += ["--attention", pair]
        argv = [str(a) for a in argv]
        with self.span("cli.eval"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def items(self, output) -> int:
        return sum(len(f) for f in self.folds)

    def check(self, output) -> float:
        code, out = output
        require(code == 0, f"protosurv eval exited {code}")
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
        if self.reference is None:
            self.reference = (digests, self._check_outputs(out))
        else:
            require(digests == self.reference[0], "eval outputs differ between operations")
        shutil.rmtree(out)
        return self.reference[1]

    def _check_outputs(self, out: Path) -> float:
        with open(out / "metrics.csv", encoding="utf-8") as fh:
            rows = {r["fold"]: float(r["value"]) for r in csv.DictReader(fh)}
        with open(self.protos / "prototype_meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        cohort = data.load_cohort(data.load_manifest(self.manifest))
        slide_reps = [data.load_matrix(self.protos / f"{pid}.slide.ps3e") for pid in cohort.patient_ids]
        position = {pid: i for i, pid in enumerate(cohort.patient_ids)}
        prepared = None
        values = []
        for fold, held_ids in enumerate(self.folds):
            trained, config, _ = survival.load_checkpoint(self.models / f"fold{fold}.ckpt")
            if prepared is None:
                prepared, _, _ = pipeline.build_prepared(
                    cohort, config, slide_reps=slide_reps, n_text=meta["n_text"], max_segments=meta["max_segments"]
                )
            held = prepared.subset(np.asarray([position[p] for p in held_ids]))
            risks = survival.predict_cohort(trained, held, config.fusion_mode)
            reference = oracles.concordance(held.times, held.events, risks)
            require(abs(rows[str(fold)] - reference) <= 1e-12, f"fold {fold}: C-index {rows[str(fold)]!r} vs {reference!r}")
            values.append(reference)
        require(abs(rows["mean"] - float(np.mean(values))) <= 1e-12, "mean C-index differs from the fold mean")

        groups: dict[tuple, list[tuple[int, float]]] = {}
        with open(out / "attention_summary.csv", encoding="utf-8") as fh:
            for r in csv.DictReader(fh):
                key = (r["fold"], r["patient_id"], r["query_block"], r["key_block"])
                groups.setdefault(key, []).append((int(r["rank"]), float(r["dispersion"])))
        require(len(groups) == len(CLI_ATTENTION) * self.items(None), f"{len(groups)} attention groups")
        for (fold, pid, query, key), ranked in groups.items():
            ranks = [r for r, _ in ranked]
            spread = [d for _, d in ranked]
            require(ranks == list(range(len(ranks))), f"{pid} {query}:{key}: ranks not contiguous")
            require(all(a >= b for a, b in zip(spread, spread[1:])), f"{pid} {query}:{key}: dispersion rises with rank")
            if query != key:
                require(all(d == 0.0 for d in spread), f"{pid} {query}:{key}: cross-modal dispersion in late mode")
        return rows["mean"]

    def layer_metrics(self, tracer) -> dict[str, float]:
        forwards = tracer.select("model.forward_diagnostics", inside="cli.eval", outside="model.forward_risks")
        owners = [tracer.ancestor(i, "cli.eval") for i in forwards]
        per_eval = [owners.count(e) for e in tracer.select("cli.eval")]
        inside = {"inside": "cli.eval"}
        return {
            "model.forward_diagnostics_ms.p50": p50([tracer.spans[i].duration * 1e3 for i in forwards]),
            "model.forward_diagnostics_ms.p90": p90([tracer.spans[i].duration * 1e3 for i in forwards]),
            "model.forward_diagnostics_calls": p50(per_eval),
            "fusion.fuse_infer_ms.p50": p50(tracer.durations_ms("fusion.fuse", **inside)),
            "evaluation.cross_attention_summary_ms.p50": p50(
                tracer.durations_ms("evaluation.cross_attention_summary", **inside)
            ),
            "survival.load_checkpoint_ms.p50": p50(tracer.durations_ms("survival.load_checkpoint", **inside)),
            "data.load_cohort_ms.p50": p50(tracer.durations_ms("data.load_cohort", **inside)),
            "pipeline.build_prepared_ms.p50": p50(tracer.durations_ms("pipeline.build_prepared", **inside)),
            "cli.prototype_s": p50(tracer.durations_ms("cli.prototype")) / 1e3,
            "cli.train_s": p50(tracer.durations_ms("cli.train")) / 1e3,
        }

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None


WORKLOADS = {w.name: w for w in (Crit7Fold, SlidesPaper, CohortMetrics, CliEval)}
