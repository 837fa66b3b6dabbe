"""``tools/memprobe.py`` at the benchmark's tiny scale: four stages in order,
each with the peak resident set and the model's gradient pages, and a page
count that reads fresh zero pages as absent and written ones as present."""

import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tfpdet
from tfpdet import numcore as nc

ROOT = Path(__file__).resolve().parents[1]
STAGES = ["after imports", "after set-up", "after warm-up op", "after second set-up and warm-up"]
LINE = re.compile(r"(.+?) +ru_maxrss +(\d+\.\d\d) MB  gradient pages (n/a|resident (\d+) of (\d+) bytes)")


def load_memprobe():
    spec = importlib.util.spec_from_file_location("memprobe", ROOT / "tools" / "memprobe.py")
    memprobe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(memprobe)
    return memprobe


def pagemap_readable() -> bool:
    try:
        with open("/proc/self/pagemap", "rb") as f:
            f.read(8)
    except OSError:
        return False
    return True


@pytest.mark.parametrize("workload", ["train", "infer_long", "eval"])
def test_memprobe_reports_four_stages_in_order(workload, capsys):
    memprobe, path = load_memprobe(), list(sys.path)
    assert memprobe.main(["--workload", workload, "--tiny"]) == 0
    assert sys.modules["tfpdet"] is tfpdet and sys.path == path
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith(f"{workload} seed 1 scale TINY")
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches) and [m[1] for m in matches] == STAGES
    peaks = [float(m[2]) for m in matches]
    assert peaks == sorted(peaks) and peaks[0] > 0
    assert matches[0][3] == "n/a"  # no model yet
    for m in matches[1:]:
        if workload == "eval" or not pagemap_readable():
            assert m[3] == "n/a"
        else:
            resident, spanned = int(m[4]), int(m[5])
            assert resident <= spanned and spanned % memprobe.PAGE == 0
    if workload != "eval" and pagemap_readable():
        assert int(matches[1][5]) > 0  # a fresh model's gradients span pages
        if workload == "train":
            assert matches[2][3] == "resident 0 of 0 bytes"  # the update consumed every gradient


def test_gradient_pages_count_fresh_zeros_absent_and_written_pages_present():
    memprobe = load_memprobe()
    # 64 MiB is past glibc's largest mmap threshold, so the block is fresh pages
    params = nc.leaves({"w": np.zeros((4096, 2048))})  # values untouched, so not resident either
    model = SimpleNamespace(params=params)
    if not pagemap_readable():
        assert memprobe.gradient_pages(model) is None
        return
    resident, spanned = memprobe.gradient_pages(model)
    assert resident == 0 and spanned >= 64 * 2**20 - 2 * memprobe.PAGE
    params["w"].grad[100, :] = 1.0  # 16 KiB of one row
    resident, _ = memprobe.gradient_pages(model)
    assert resident >= 4 * memprobe.PAGE
    params["w"].grad = None
    assert memprobe.gradient_pages(model) == (0, 0)
