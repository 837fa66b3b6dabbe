"""``tools/digest.py`` against the package: its NMS edge rows run without
warnings, its float64 parameter draw is ``Model.build``'s, and its pooling
battery holds the ties that routing can get wrong."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np

from tfpdet import heads

ROOT = Path(__file__).resolve().parents[1]


def load_digest():
    spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_nms_edge_rows_raise_no_warnings():
    # NaN and infinite ends and empty segments have defined results; tIoU's
    # NaN arithmetic on them must not reach the caller as warnings
    calls = [c for c in load_digest().nms_battery() if len(c[0]) == 16 and c[4] in (None, 1)]
    assert len(calls) == 3 * 7 * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for starts, ends, scores, thresh, top_k in calls:
            heads.nms_indices(starts, ends, scores, thresh, top_k)


def test_float64_redraw_is_the_model_draw_before_rounding(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    built, redrawn = workloads.build_model(workloads.FULL.hidden), workloads.build_model(workloads.FULL.hidden)
    load_digest().to_float64(workloads, redrawn, [])
    assert list(redrawn.params) == list(built.params)
    for name, p in redrawn.params.items():
        assert p.data.dtype == redrawn.velocity[name].dtype == np.float64
        assert np.array_equal(p.data.astype(built.params[name].data.dtype), built.params[name].data)
        assert not redrawn.velocity[name].any()


def test_pool_battery_holds_ties_signed_zeros_and_nan():
    xs = [x for x, _ in load_digest().pool_battery()]
    assert all(x.shape[1] % 4 == 0 for x in xs)  # three pyramid levels
    first, second = np.concatenate([x.reshape(-1, 2) for x in xs]).T  # the pairs the first pool takes
    assert (first == second).any()
    assert ((first == 0) & (second == 0) & (np.signbit(first) != np.signbit(second))).any()
    assert (np.isnan(first) & ~np.isnan(second)).any() and (~np.isnan(first) & np.isnan(second)).any()
