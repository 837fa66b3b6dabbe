"""``tools/abtime.py`` at the benchmark's tiny scale: the checkout timed
against itself gives equal outputs, a checkout whose detector or final
velocities differ does not, and both package copies leave the process when
it returns."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

import tfpdet

ROOT = Path(__file__).resolve().parents[1]


def load_abtime():
    spec = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
    abtime = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abtime)
    return abtime


def run(other: Path, workload: str, capsys) -> tuple[int, str]:
    path = list(sys.path)
    code = load_abtime().main([str(other), "--workload", workload, "--ops", "2"], scale="TINY")
    assert sys.modules["tfpdet"] is tfpdet and sys.path == path
    assert not [name for name in sys.modules if name.startswith("tfpdet_ab")]
    return code, capsys.readouterr().out


@pytest.mark.parametrize("workload", ["train", "infer_long", "eval"])
def test_abtime_of_the_checkout_against_itself_gives_equal_outputs(workload, capsys):
    code, out = run(ROOT, workload, capsys)
    assert code == 0 and "outputs equal: yes" in out
    assert out.count("mean op") == 2 and "ratio this/other" in out


def edited_copy(tmp_path: Path, module: str, old: str, new: str) -> Path:
    """A copy of the checkout's sources and bench with ``old`` replaced by ``new`` in ``tfpdet.<module>``."""
    shutil.copytree(ROOT / "src" / "tfpdet", tmp_path / "src" / "tfpdet", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "tfpdet" / f"{module}.py"
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    return tmp_path


def test_abtime_reports_a_checkout_whose_detections_differ(tmp_path, capsys):
    other = edited_copy(tmp_path, "heads", "    score_thresh: float = 0.05\n", "    score_thresh: float = 0.5\n")
    code, out = run(other, "infer_long", capsys)
    assert code == 1 and "outputs equal: NO" in out


def test_abtime_reports_a_checkout_whose_final_velocities_differ(tmp_path, capsys):
    # doubling the velocities after the last op's update (op 2) moves no
    # StepReport and no parameter, only the final velocities
    other = edited_copy(tmp_path, "numcore", "        p.grad = None\n", "        p.grad = None\n        v *= 1 + (step == 2)\n")
    code, out = run(other, "train", capsys)
    assert code == 1 and "outputs equal: NO" in out
