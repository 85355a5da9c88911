import ast
import importlib.util
import re
from pathlib import Path

import pytest

from protosurv.data import SyntheticSpec, synth_cohort

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load("harness", ROOT / "tools" / "harness.py")
crit7_digest = _load("crit7_digest", ROOT / "tools" / "crit7_digest.py")
fixture_digest = _load("fixture_digest", ROOT / "tools" / "fixture_digest.py")


def test_call_returns_the_function_result_and_raises_with_the_child_error():
    assert harness.call(ROOT, "json", "dumps", [1, "a"]) == b'[1, "a"]'
    with pytest.raises(RuntimeError, match=r"json\.loads exited 1: .*JSONDecodeError: Expecting value"):
        harness.call(ROOT, "json", "loads", "not json")


def test_a_directory_without_src_protosurv_is_refused_even_with_protosurv_importable(tmp_path, monkeypatch):
    # a checkout that holds no protosurv must not fall through to the one on PYTHONPATH
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    named = re.escape(f"{tmp_path.resolve()} is not a source checkout")
    with pytest.raises(RuntimeError, match=named):
        crit7_digest.digests(tmp_path, 0)
    workdir = tmp_path / "work"
    workdir.mkdir()
    with pytest.raises(RuntimeError, match=named):
        fixture_digest.digests(tmp_path, workdir)
    assert not any(workdir.iterdir())


def test_the_crit7_cohort_matches_the_benchmark_and_acceptance_copies():
    # bench/ is read, not imported: its workloads import the benchmark's own modules
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    (bench_spec,) = [node.value for node in tree.body
                     if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CRIT7_SPEC"]]
    assert {kw.arg: ast.literal_eval(kw.value) for kw in bench_spec.keywords} == harness.CRIT7_COHORT
    acceptance = _load("acceptance_copy", ROOT / "tests" / "test_acceptance.py")
    ours = synth_cohort(SyntheticSpec(**harness.CRIT7_COHORT))
    theirs = acceptance._e2e_cohort(acceptance.SIGNAL_STRENGTH)
    assert ours.patient_ids == theirs.patient_ids and ours.records == theirs.records
