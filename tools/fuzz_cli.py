"""Seeded mutation fuzz of the protosurv command line.

    python3 tools/fuzz_cli.py --seed S --cases N

In the manner of Miller et al., "An Empirical Study of the Reliability of
UNIX Utilities" (CACM 1990). The tool builds a 12-patient fixture in a
temporary directory (``synth``, ``prototype``, ``train``), then runs

- N file cases: each mutates one file of the cohort, prototype or model
  directory (truncate it, replace a byte, add or drop a matrix row or column,
  change a matrix header's row or column count, drop or repeat a line, give a
  JSON value another type or value, delete a JSON key, or insert a non-UTF-8
  byte), runs ``prototype``, ``train`` and ``eval`` through ``cli.main`` in
  this process, and restores the file;
- the same for each of ``FIXED_EDITS``, JSON values a random draw seldom
  reaches, whose failed runs must also name the edited file;
- one flag case for each numeric flag of ``synth``, ``prototype`` and
  ``train`` at 0 and -1, and each float flag also at nan and inf.

A command run passes when its exit code is 0, 1 or 2 and, on failure, its
stderr holds exactly one ``error:`` line (argparse's usage text for exit 2)
that is not a bare quoted key, with no traceback. A ``warning:`` line must be
one of the two the library documents, and a failed ``train`` leaves nothing
in its output directory but ``folds.json``. The tool prints each failing run:
the case, the command, the exit code and stderr. It exits 1 when any run
fails. Case i of a seed is the same case whatever N is.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import shutil
import struct
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from protosurv import cli  # noqa: E402

N_PATIENTS = 12
SYNTH = ["--patients", str(N_PATIENTS), "--seed", "0", "--genes", "16", "--pathways", "4",
         "--d-t", "4", "--d-h", "3", "--segments", "2", "4", "--patches", "8", "12"]
PROTOTYPE = ["--seed", "0", "--n-histology", "2"]
CONFIG = {"folds": 2, "epochs": 1, "batch_size": 8, "seed": 0, "d_e": 4, "d_r": 2, "n_histology": 2, "n_pathways": 4}

# the numeric flags of each command; a flag of PAIR_FLAGS takes two values
INT_FLAGS = {
    "synth": ["--seed", "--patients", "--genes", "--pathways", "--d-t", "--d-h", "--segments", "--patches"],
    "prototype": ["--seed", "--n-histology"],
    "train": ["--seed", "--folds", "--epochs", "--batch-size", "--d-e", "--d-r", "--n-histology", "--n-pathways"],
}
FLOAT_FLAGS = {"synth": ["--signal-strength", "--censoring"], "prototype": [], "train": ["--lr", "--weight-decay"]}
PAIR_FLAGS = {"--segments", "--patches"}

# the files a case may mutate: (kind, path relative to the fixture root); {pid} is a patient
FILES = [
    ("json", "cohort/manifest.json"),
    ("text", "cohort/survival.csv"),
    ("text", "cohort/genes.txt"),
    ("text", "cohort/pathways.gmt"),
    ("matrix", "cohort/{pid}.report.ps3e"),
    ("matrix", "cohort/{pid}.patches.ps3e"),
    ("matrix", "cohort/{pid}.expr.ps3e"),
    ("matrix", "proto/{pid}.slide.ps3e"),
    ("json", "proto/prototype_meta.json"),
    ("json", "run/folds.json"),
    ("checkpoint", "run/fold{fold}.ckpt"),
    ("json", "config.json"),
]
MUTATIONS = {
    "json": ["truncate", "replace_byte", "retype_value", "delete_key", "non_utf8"],
    "text": ["truncate", "replace_byte", "drop_line", "repeat_line", "add_field", "drop_field", "non_utf8"],
    "matrix": ["truncate", "replace_byte", "rows+1", "rows-1", "cols+1", "cols-1", "header_rows", "header_cols",
               "non_utf8"],
    "checkpoint": ["truncate", "replace_byte", "retype_value", "delete_key", "non_utf8"],
}
# what a JSON value may become: other types, and numbers a config or header may refuse
JSON_VALUES = [None, True, 5, 0, -1, 1.5, float("nan"), "x", "", [], [1, 2], {}, {"k": 1}]
# JSON edits run in every sweep, values a random draw seldom reaches: each was once refused by a
# traceback or by a message that named no file, and a failed run must name the edited file
FIXED_EDITS = [
    ("checkpoint", "run/fold0.ckpt", ("config", "learning_rate"), -1),
    ("checkpoint", "run/fold1.ckpt", ("dims", "n_text"), 0),
    ("checkpoint", "run/fold1.ckpt", ("dims", "n_histology"), {}),
    ("json", "cohort/manifest.json", ("modalities",), 5),
    ("json", "cohort/manifest.json", ("modalities",), "phx"),
    ("json", "cohort/manifest.json", ("patients",), 5),
    ("json", "cohort/manifest.json", ("patients",), [1, 2]),
    ("json", "cohort/manifest.json", ("patients",), []),
    ("json", "cohort/manifest.json", ("gene_order",), 5),
    ("json", "cohort/manifest.json", ("survival",), ["x"]),
    ("json", "cohort/manifest.json", ("patients", 0, "patient_id"), []),
    ("json", "cohort/manifest.json", ("patients", 0, "slide"), 5),
    ("json", "proto/prototype_meta.json", ("n_histology",), 3),
]

DOCUMENTED_WARNINGS = (
    re.compile(r"warning: slide \S+: \d+ patches for \d+ components"),
    re.compile(r"warning: .+: dropped \d+ gene\(s\) absent from the gene order"),
)
BARE_KEY = re.compile(r"error: (['\"]).*\1")


@dataclass(frozen=True)
class Case:
    """One file mutation (``flag`` None) or one flag value (``path`` None)."""

    name: str
    kind: str | None = None  # a key of MUTATIONS
    path: str | None = None
    mutation: str | None = None
    seed: int = 0  # draws the mutation's position and value
    edit: tuple | None = None  # a "set" mutation's (JSON key path, value)
    command: str | None = None
    flag: str | None = None
    value: str | None = None


def build_fixture(root: Path) -> Path:
    """The fixture under ``root``: cohort/, proto/, run/ (a two-fold training run)
    and config.json, the run's config file."""
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    runs = [
        ["synth", "--out", str(root / "cohort"), *SYNTH],
        ["prototype", "--manifest", str(root / "cohort/manifest.json"), "--out", str(root / "proto"), *PROTOTYPE],
        _train_argv(root, root / "run"),
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"fixture command failed: {argv}")
    return root


def _train_argv(root: Path, out: Path) -> list[str]:
    return ["train", "--manifest", str(root / "cohort/manifest.json"), "--prototypes", str(root / "proto"),
            "--out", str(out), "--config", str(root / "config.json")]


def generate_cases(seed: int, count: int) -> list[Case]:
    """``count`` file cases drawn from ``seed`` (case i touches ``FILES[i % len(FILES)]``,
    so a count of at least ``len(FILES)`` touches every kind of file), then the
    ``FIXED_EDITS`` and every flag case."""
    cases = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        kind, pattern = FILES[i % len(FILES)]
        path = pattern.format(pid=f"SYN{rng.randrange(N_PATIENTS):04d}", fold=rng.randrange(2))
        mutation = rng.choice(MUTATIONS[kind])
        cases.append(Case(f"file {i}", kind, path, mutation, seed=rng.randrange(2**32)))
    for kind, path, keys, value in FIXED_EDITS:
        cases.append(Case(f"fixed {path} {keys}", kind, path, "set", edit=(keys, value)))
    for command in INT_FLAGS:
        values = [(flag, v) for flag in INT_FLAGS[command] for v in ("0", "-1")]
        values += [(flag, v) for flag in FLOAT_FLAGS[command] for v in ("0", "-1", "nan", "inf")]
        cases += [Case(f"flag {command} {flag} {v}", command=command, flag=flag, value=v) for flag, v in values]
    return cases


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------

def _json_paths(doc, prefix=()):
    """Every (container path, key or index) in a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix, key
        yield from _json_paths(value, (*prefix, key))


def _mutate_json(doc, mutation: str, rng: random.Random, edit: tuple | None):
    if mutation == "set":
        (*prefix, key), value = edit
        paths = [(prefix, key)]
    else:
        paths = list(_json_paths(doc))
        value = JSON_VALUES[rng.randrange(len(JSON_VALUES))]
    if mutation == "delete_key":
        paths = [(p, k) for p, k in paths if isinstance(k, str)]
    if not paths:
        return value
    prefix, key = paths[rng.randrange(len(paths))]
    container = doc
    for step in prefix:
        container = container[step]
    if mutation == "delete_key":
        del container[key]
    else:
        container[key] = value
    return doc


def _mutate_matrix(raw: bytes, mutation: str) -> bytes:
    rows, cols = struct.unpack("<II", raw[5:13])
    payload = raw[13:]
    if mutation in ("header_rows", "header_cols"):
        rows, cols = (rows + 1, cols) if mutation == "header_rows" else (rows, cols + 1)
        return raw[:5] + struct.pack("<II", rows, cols) + payload
    row_bytes = cols * 4
    table = [payload[r * row_bytes:(r + 1) * row_bytes] for r in range(rows)]
    if mutation == "rows+1":
        table.append(table[-1])
    elif mutation == "rows-1":
        table = table[:-1]
    elif mutation == "cols+1":
        table = [row + row[-4:] for row in table]
        cols += 1
    elif mutation == "cols-1":
        table = [row[:-4] for row in table]
        cols -= 1
    return raw[:5] + struct.pack("<II", len(table), cols) + b"".join(table)


def _mutate_text(raw: bytes, mutation: str, rng: random.Random) -> bytes:
    lines = raw.split(b"\n")
    i = rng.randrange(len(lines))
    if mutation == "drop_line":
        del lines[i]
    elif mutation == "repeat_line":
        lines.insert(i, lines[i])
    else:
        sep = b"\t" if b"\t" in raw else b","
        fields = lines[i].split(sep)
        lines[i] = sep.join(fields + [b"x"] if mutation == "add_field" else fields[:-1])
    return b"\n".join(lines)


def mutate(raw: bytes, case: Case) -> bytes:
    """``raw`` with ``case``'s mutation applied, drawn from its seed."""
    kind, mutation, rng = case.kind, case.mutation, random.Random(case.seed)
    if mutation == "truncate":
        return raw[:rng.randrange(len(raw))]
    if mutation == "replace_byte":
        i = rng.randrange(len(raw))
        return raw[:i] + bytes([(raw[i] + rng.randrange(1, 256)) % 256]) + raw[i + 1:]
    if mutation == "non_utf8":
        i = rng.randrange(len(raw) + 1)
        return raw[:i] + b"\xff" + raw[i:]
    if kind == "json":
        return json.dumps(_mutate_json(json.loads(raw), mutation, rng, case.edit)).encode()
    if kind == "checkpoint":
        (header_len,) = struct.unpack("<I", raw[5:9])
        header = _mutate_json(json.loads(raw[9:9 + header_len]), mutation, rng, case.edit)
        blob = json.dumps(header, sort_keys=True).encode()
        return raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + header_len:]
    if kind == "matrix":
        return _mutate_matrix(raw, mutation)
    return _mutate_text(raw, mutation, rng)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_command(argv: list[str]) -> tuple[int | str, str]:
    """(exit code, stderr) of ``cli.main(argv)`` in this process; an exception
    that escapes main gives its traceback as stderr and the code "traceback".
    Warnings print as they would in a fresh process, each one every time."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc(file=err)
            code = "traceback"
    return code, err.getvalue()


def problems(code, stderr: str, out: Path | None, named: Path | None = None) -> list[str]:
    """What breaks the one-line rule in one command run; ``out`` is a train run's output
    directory, and a failed run must name ``named`` when given."""
    found = []
    lines = stderr.splitlines()
    if code not in (0, 1, 2):
        found.append(f"exit code {code}")
    if "Traceback" in stderr:
        found.append(f"traceback {lines[-1].split(':')[0]}")
    warning_lines = [line for line in lines if line.startswith("warning:")]
    found += [f"undocumented {line!r}" for line in warning_lines
              if not any(pattern.fullmatch(line) for pattern in DOCUMENTED_WARNINGS)]
    others = [line for line in lines if not line.startswith("warning:")]
    if code == 1 and (len(others) != 1 or not others[0].startswith("error:")):
        found.append(f"{len(others)} lines beside warnings, not one error: line")
    if code == 1 and others and BARE_KEY.fullmatch(others[0]):
        found.append("a bare quoted key")
    if code == 1 and named is not None and str(named) not in stderr:
        found.append(f"error names no {named.name}")
    if code == 2 and not (others and others[0].startswith("usage:") and ": error: " in others[-1]):
        found.append("exit 2 without argparse's usage error")
    if code == 0 and others:
        found.append("stderr on success")
    if out is not None and code != 0 and out.exists():
        left = sorted(p.name for p in out.iterdir() if p.name != "folds.json")
        if left:
            found.append(f"failed train left {left}")
    return found


def case_runs(fixture: Path, case: Case, scratch: Path) -> list[tuple[list[str], Path | None]]:
    """The command runs of ``case``: (argv, train output directory or None)."""
    if case.flag is None:
        return [
            (["prototype", "--manifest", str(fixture / "cohort/manifest.json"), "--out", str(scratch / "p"),
              *PROTOTYPE], None),
            (_train_argv(fixture, scratch / "t"), scratch / "t"),
            (["eval", "--manifest", str(fixture / "cohort/manifest.json"), "--prototypes", str(fixture / "proto"),
              "--models", str(fixture / "run"), "--out", str(scratch / "e"), "--attention", "text:pathway"], None),
        ]
    values = [case.value] * (2 if case.flag in PAIR_FLAGS else 1)
    if case.command == "synth":
        return [(["synth", "--out", str(scratch / "c"), *SYNTH, case.flag, *values], None)]
    if case.command == "prototype":
        return [(["prototype", "--manifest", str(fixture / "cohort/manifest.json"), "--out", str(scratch / "p"),
                  *PROTOTYPE, case.flag, *values], None)]
    return [([*_train_argv(fixture, scratch / "t"), case.flag, *values], scratch / "t")]


def run_case(fixture: Path, case: Case) -> list[dict]:
    """Run ``case`` against ``fixture`` and restore the file it mutated. Returns one
    record per failing command run: case, command, exit code, stderr and problems."""
    failures = []
    target = fixture / case.path if case.path else None
    original = target.read_bytes() if target else None
    scratch = Path(tempfile.mkdtemp(prefix="case-", dir=fixture))
    try:
        if target is not None:
            target.write_bytes(mutate(original, case))
        for argv, out in case_runs(fixture, case, scratch):
            code, stderr = run_command(argv)
            found = problems(code, stderr, out, target if case.edit else None)
            if found:
                failures.append({"case": case, "argv": argv, "code": code, "stderr": stderr, "problems": found})
    finally:
        if target is not None:
            target.write_bytes(original)
        shutil.rmtree(scratch)
    return failures


def describe(failure: dict, fixture: Path) -> str:
    case = failure["case"]
    if case.edit:
        what = f"{case.path} {case.edit[0]} = {case.edit[1]!r}"
    elif case.path:
        what = f"{case.path} {case.mutation} (seed {case.seed})"
    else:
        what = f"{case.command} {case.flag} {case.value}"
    argv = " ".join(failure["argv"]).replace(str(fixture) + "/", "")
    stderr = failure["stderr"].rstrip("\n").replace(str(fixture) + "/", "")
    return (f"{case.name}: {what}\n  command: protosurv {argv}\n  exit: {failure['code']}\n"
            f"  problems: {'; '.join(failure['problems'])}\n  stderr:\n"
            + "".join(f"    {line}\n" for line in stderr.splitlines()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="draws the file cases (default 0)")
    parser.add_argument("--cases", type=int, default=200, help="file cases to run (default 200)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    tally: Counter = Counter()
    failing = 0
    with tempfile.TemporaryDirectory(prefix="fuzz-cli-") as tmp:
        fixture = build_fixture(Path(tmp))
        cases = generate_cases(args.seed, args.cases)
        for case in cases:
            failures = run_case(fixture, case)
            failing += bool(failures)
            for failure in failures:
                print(describe(failure, fixture))
                tally.update(failure["problems"])
    print(f"{len(cases)} cases ({args.cases} file, {len(FIXED_EDITS)} fixed, "
          f"{len(cases) - args.cases - len(FIXED_EDITS)} flag) in "
          f"{time.perf_counter() - start:.1f} s: {failing} failing")
    for problem, n in tally.most_common():
        print(f"  {n:5d} command runs: {problem}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
