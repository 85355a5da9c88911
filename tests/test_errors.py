"""Every exception the library raises is one of the concrete kinds in
``protosurv.errors``, so ``cli.main`` catches only those and ``OSError``."""

import ast
import inspect
from pathlib import Path

from protosurv import errors

SRC = Path(errors.__file__).parent
KINDS = {
    name
    for name, obj in vars(errors).items()
    if inspect.isclass(obj) and issubclass(obj, errors.ProtosurvError) and obj is not errors.ProtosurvError
}
# argparse turns what a ``type=`` converter raises as this into a usage error with exit code 2
USAGE_ERROR = "argparse.ArgumentTypeError"


def _rethrows(tree: ast.AST) -> set[ast.Raise]:
    """``raise type(exc)(...)`` inside ``except <library errors> as exc``: the caught
    error re-raised as its own kind with a longer message."""
    allowed = set()
    for handler in ast.walk(tree):
        if not (isinstance(handler, ast.ExceptHandler) and handler.name and handler.type is not None):
            continue
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        if not all(ast.unparse(name) in KINDS | {"ProtosurvError"} for name in caught):
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if ast.unparse(node.exc.func) == f"type({handler.name})":
                    allowed.add(node)
    return allowed


def stray_raises(path: Path) -> list[str]:
    """``file:line: raise <name>`` for each raise in ``path`` of anything but a concrete kind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = _rethrows(tree)
    stray = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None or node in allowed:
            continue  # a bare raise re-raises what its handler caught
        raised = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        if raised not in KINDS and raised != USAGE_ERROR:
            stray.append((node.lineno, f"{path.name}:{node.lineno}: raise {raised}"))
    return [line for _, line in sorted(stray)]


def test_concrete_kinds_are_the_seven_documented_ones():
    assert KINDS == {
        "BadInput", "ShapeMismatch", "AllMasked", "NonFiniteLoss", "DegenerateInput", "NoEvents", "NoComparablePairs"
    }


def test_every_raise_in_the_library_names_a_concrete_kind():
    assert [line for path in sorted(SRC.glob("*.py")) for line in stray_raises(path)] == []


def test_cli_main_catches_only_library_errors_and_os_errors():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    (main,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(handler.type) for handler in handlers] == ["(ProtosurvError, OSError)"]


def test_stray_raises_flags_builtins_and_the_base_but_not_rethrows(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    raise ProtosurvError('y')\n"
        "def g():\n"
        "    try:\n"
        "        pass\n"
        "    except (NoEvents, NonFiniteLoss) as exc:\n"
        "        raise type(exc)(f'fold 0: {exc}') from exc\n"
        "    except KeyError as exc:\n"
        "        raise type(exc)('z')\n"
        "    except BadInput:\n"
        "        raise\n"
        "    raise BadInput('w') from None\n",
        encoding="utf-8",
    )
    assert stray_raises(path) == [
        "sample.py:3: raise ValueError", "sample.py:4: raise ProtosurvError", "sample.py:11: raise type(exc)"
    ]
