import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("step_memory", ROOT / "tools" / "step_memory.py")
step_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_memory)


def test_one_epoch_prints_the_step_memory_and_the_fold_costs():
    step, fold = step_memory.measure(ROOT, epochs=1)
    tape, peak = map(float, re.fullmatch(r"step +full d_e 64 d_r 16  tape (\S+) MiB  backward peak (\S+) MiB", step).groups())
    assert 0 < tape < peak
    match = re.fullmatch(
        r"fold0 +full d_e 64 d_r 16  epochs 1  train (\S+) s  peak RSS (\S+) MB  minor faults (\d+)", fold
    )
    seconds, rss, faults = float(match[1]), float(match[2]), int(match[3])
    assert seconds > 0 and rss > peak and faults > 0

