"""The seeded mutation fuzz of ``tools/fuzz_cli.py`` at a fixed seed and case
count: every mutated file and numeric flag value ends in exit 0, 1 or 2, and
a failure in one ``error:`` line, with no traceback."""

import argparse
import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fuzz_cli.py"
_SPEC = importlib.util.spec_from_file_location("fuzz_cli", _PATH)
fuzz_cli = importlib.util.module_from_spec(_SPEC)
sys.modules["fuzz_cli"] = fuzz_cli  # the tool's dataclass looks its module up
_SPEC.loader.exec_module(fuzz_cli)

SEED = 0
FILE_CASES = 120  # ten cases for each entry of fuzz_cli.FILES


def _numeric_flags() -> set[tuple[str, str]]:
    """(command, flag) of every int or float option of the CLI."""
    parser = fuzz_cli.cli.build_parser()
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return {
        (command, action.option_strings[0])
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.type in (int, float)
    }


def test_cases_cover_every_directory_and_numeric_flag():
    cases = fuzz_cli.generate_cases(SEED, FILE_CASES)
    assert {case.path.split("/")[0] for case in cases if case.path} == {"cohort", "proto", "run", "config.json"}
    assert {(case.command, case.flag) for case in cases if case.flag} == _numeric_flags()
    # case i of a seed does not depend on the case count
    assert fuzz_cli.generate_cases(SEED, 30)[:30] == cases[:30]


def test_every_case_fails_in_one_error_line_or_succeeds(tmp_path):
    fixture = fuzz_cli.build_fixture(tmp_path)
    failures = [
        fuzz_cli.describe(failure, fixture)
        for case in fuzz_cli.generate_cases(SEED, FILE_CASES)
        for failure in fuzz_cli.run_case(fixture, case)
    ]
    assert failures == [], "\n".join(failures)
