import warnings

import numpy as np
import pytest

from tfpdet import evalkit as ek
from tfpdet.anchorkit import Segment, segment_pairs
from tfpdet.errors import ConfigError, ContractError
from tfpdet.heads import Detection, Proposal

from oracles import (average_precision_ref, average_precision_strings_ref, average_recall_lexsort_ref,
                     average_recall_ref, evaluate_detections_strings_ref, greedy_match_rows_ref)


def det(s, e, label=1, score=0.9, vid="v"):
    return Detection(Segment(s, e), label, score, vid)


def prop(s, e, objectness=0.9):
    return Proposal(Segment(s, e), objectness, 0)


def class_ap(dets, gts_by_video, thresholds):
    """``ek.average_precision`` of one class's Detection list against Segment
    lists, ranked by descending score, then earlier start, then video id."""
    codes = {vid: k for k, vid in enumerate(sorted({d.video_id for d in dets} | gts_by_video.keys()))}
    ranked = sorted(dets, key=lambda d: (-d.score, d.segment.start, d.video_id))
    return ek.average_precision(segment_pairs([d.segment for d in ranked]),
                                np.array([codes[d.video_id] for d in ranked], dtype=np.int64),
                                {codes[vid]: segment_pairs(g) for vid, g in gts_by_video.items()}, thresholds)


# ---------------------------------------------------------------------------
# average precision


def test_ap_perfect_detection():
    (ap,) = class_ap([det(0, 10)], {"v": [Segment(0, 10)]}, [0.5])
    assert ap == 1.0


def test_ap_false_positive_after_correct_keeps_one():
    dets = [det(0, 10, score=0.9), det(50, 60, score=0.8)]
    assert class_ap(dets, {"v": [Segment(0, 10)]}, [0.5]) == [1.0]


def test_ap_false_positive_before_correct_halves():
    dets = [det(50, 60, score=0.9), det(0, 10, score=0.8)]
    assert class_ap(dets, {"v": [Segment(0, 10)]}, [0.5]) == [0.5]


def test_ap_no_ground_truth_returns_none():
    assert class_ap([det(0, 10)], {"v": []}, [0.5]) is None


def test_ap_no_detections_is_zero():
    assert class_ap([], {"v": [Segment(0, 10)]}, [0.5]) == [0.0]


def test_ap_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(120):
        vids = ["a", "b"]
        gts = {}
        for vid in vids:
            n = int(rng.integers(0, 4))
            gts[vid] = [
                Segment(s, s + l)
                for s, l in zip(rng.uniform(0, 150, n), rng.uniform(4, 60, n))
            ]
        dets = []
        for _ in range(int(rng.integers(0, 10))):
            vid = vids[int(rng.integers(2))]
            s = rng.uniform(0, 150)
            dets.append(det(s, s + rng.uniform(4, 60), score=float(rng.uniform(0, 1)), vid=vid))
        thresh = float(rng.choice([0.3, 0.5, 0.7]))
        got = class_ap(dets, gts, [thresh])
        ref = average_precision_ref(dets, gts, thresh)
        if ref is None:
            assert got is None
        else:
            assert got[0] == pytest.approx(ref, abs=1e-12)


def test_ap_edges_equal_string_keyed_reference():
    # the float that the full precision-recall curve gives, at its edges
    rng = np.random.default_rng(34)
    many = list(rng.permutation(np.linspace(0.01, 1.0, 100)))  # more than 62 thresholds
    for case in range(160):
        npos = int(rng.integers(1, 40))
        gts = {"a": [Segment(10.0 * j, 10.0 * j + 8) for j in range(npos)], "b": []}
        found = int(rng.integers(0, npos + 1)) if case % 4 else npos  # every ground truth found: no closing step
        dets = [det(10.0 * j + rng.uniform(0, 3), 10.0 * j + 8, score=float(rng.uniform(0.1, 1)), vid="a")
                for j in rng.choice(npos, found, replace=False)]
        dets += [det(10.0 * j, 10.0 * j + 8, score=float(rng.uniform(0, 1)), vid="a")  # duplicates
                 for j in rng.integers(0, npos, int(rng.integers(0, 4)))]
        dets += [det(s, s + 8, score=float(rng.uniform(0, 0.1)), vid=str(rng.choice(["a", "b"])))  # trailing misses
                 for s in rng.uniform(1000, 2000, int(rng.integers(0, 12)))]
        for ts in ([0.5], [0.3, 0.5, 0.7, 0.9], many):
            assert class_ap(dets, gts, ts) == average_precision_strings_ref(dets, gts, ts)
            assert class_ap([], gts, ts) == average_precision_strings_ref([], gts, ts) == [0.0] * len(ts)


def test_ap_invariant_to_monotone_score_transform():
    rng = np.random.default_rng(3)
    gts = {"v": [Segment(s, s + 20) for s in (0, 100, 200)]}
    dets = [det(s + rng.uniform(-5, 5), s + 20 + rng.uniform(-5, 5), score=float(rng.uniform(0.1, 0.9)))
            for s in (0, 100, 200, 300, 400)]
    base = class_ap(dets, gts, [0.5])
    squashed = [Detection(d.segment, d.label, d.score ** 3 / 2, d.video_id) for d in dets]
    assert class_ap(squashed, gts, [0.5]) == base


def grid_scene(rng):
    """Integer-grid segments and quarter-step scores, so tIoU ties and score
    ties are common.  Video "c" holds detections but never ground truth."""
    gts = {}
    for vid in ("a", "b"):
        n = int(rng.integers(0, 6))
        gts[vid] = [Segment(float(s), float(s + l)) for s, l in zip(rng.integers(0, 40, n), rng.integers(1, 12, n))]
    dets = []
    for _ in range(int(rng.integers(0, 25))):
        s = int(rng.integers(0, 40))
        dets.append(det(s, s + int(rng.integers(1, 12)), score=int(rng.integers(0, 5)) / 4,
                        vid=("a", "b", "c")[int(rng.integers(3))]))
    return gts, dets


def test_ap_all_thresholds_equal_oracle_per_threshold():
    rng = np.random.default_rng(31)
    grids = ([0.1, 0.3, 0.5, 0.7, 0.9, 1.0], [0.5, 0.75, 1.0], list(ek.average_map_grid()),
             sorted(rng.permutation(np.linspace(0.01, 1.0, 100))))  # more than 62 thresholds
    for case in range(400):
        gts, dets = grid_scene(rng)
        ts = grids[case % len(grids)]
        got = class_ap(dets, gts, ts)
        ref = [average_precision_ref(dets, gts, t) for t in ts]
        if ref[0] is None:
            assert got is None
        else:
            assert got == pytest.approx(ref, abs=1e-12)
        # a class without ground truth anywhere
        assert class_ap(dets, {"a": [], "c": []}, ts) is None


def test_ar_all_thresholds_equal_oracle():
    rng = np.random.default_rng(32)
    for case in range(300):
        gts, dets = grid_scene(rng)
        props = {vid: [prop(d.segment.start, d.segment.end, d.score) for d in dets if d.video_id == vid]
                 for vid in ("b", "c")}  # video "a" has ground truth but no proposals
        grid = (0.3, 0.5, 0.7, 1.0) if case % 2 else ek.average_map_grid()
        budget = int(rng.integers(1, 10))
        got = ek.average_recall(props, gts, budget, grid)
        assert got == pytest.approx(average_recall_ref(props, gts, budget, grid), abs=1e-12)


def test_greedy_match_prefers_best_then_lowest_index_column():
    m = np.array([[0.6, 0.9, 0.9],
                  [0.6, 0.9, 0.9],
                  [0.95, 0.9, 0.2],
                  [0.55, 0.2, 0.5]])
    hit = ek._greedy_match(m, [0.5, 0.92])
    # at 0.5: rows take columns 1, 2, 0 in turn; row 3 finds nothing free
    assert hit[0].tolist() == [True, True, True, False]
    # at 0.92 only row 2 reaches a column
    assert hit[1].tolist() == [False, False, True, False]


def test_greedy_match_equals_row_walk_reference():
    # -0.0 cells, tied tIoUs, and blocks without rows or columns, on strictly
    # increasing grids in (0, 1]; the 100-threshold one runs in chunks of 62
    rng = np.random.default_rng(35)
    grids = ([0.5], [0.25, 0.5, 0.75, 1.0], [0.5, 0.75, 1.0], list(ek.average_map_grid()),
             sorted(rng.permutation(np.linspace(0.01, 1.0, 100))))
    for case in range(700):
        n, g = int(rng.integers(0, 7)), int(rng.integers(0, 6))
        m = rng.integers(0, 5, (n, g)) / 4
        m[(m == 0) & (rng.random((n, g)) < 0.5)] = -0.0
        ts = grids[case % len(grids)]
        hit = ek._greedy_match(m, ts)
        if g == 0:  # the reference's row max has no identity here
            assert hit.shape == (len(ts), n) and not hit.any()
        else:
            assert np.array_equal(hit, greedy_match_rows_ref(m, ts))


# ---------------------------------------------------------------------------
# evaluate_detections


def simple_gts():
    return {
        "v1": [(Segment(0, 40), 1), (Segment(100, 300), 2)],
        "v2": [(Segment(10, 26), 1)],
    }


def test_evaluate_perfect_detections():
    dets = [
        det(0, 40, 1, 0.9, "v1"),
        det(100, 300, 2, 0.8, "v1"),
        det(10, 26, 1, 0.95, "v2"),
    ]
    report = ek.evaluate_detections(dets, simple_gts(), ek.EvalConfig())
    assert all(v == 1.0 for v in report.map_per_threshold.values())
    assert report.average_map == 1.0


def test_evaluate_all_wrong_labels():
    dets = [det(0, 40, 2, 0.9, "v1"), det(10, 26, 2, 0.95, "v2")]
    report = ek.evaluate_detections(dets, simple_gts(), ek.EvalConfig())
    assert report.map_per_threshold[0.5] == 0.0
    assert report.average_map == 0.0


def test_evaluate_grid_walk_for_partial_overlap():
    gts = {"v": [(Segment(0, 8), 1)]}
    dets = [det(0, 6, 1, 0.9)]  # tIoU = 0.75 exactly
    cfg = ek.EvalConfig()
    report = ek.evaluate_detections(dets, gts, cfg)
    overlap = 6 / 8
    expected = np.mean([1.0 if overlap >= t else 0.0 for t in cfg.average_grid])
    assert report.average_map == pytest.approx(float(expected), abs=1e-12)
    assert 0.0 < report.average_map < 1.0
    assert report.map_per_threshold[0.5] == 1.0


def test_evaluate_requires_ground_truth():
    with pytest.raises(ContractError, match="ground-truth"):
        ek.evaluate_detections([], {"v": []}, ek.EvalConfig())


@pytest.mark.parametrize("label", [0, -1, "a", True, 1.0, np.True_, np.float64(1.0), np.int64(0), 2 ** 63])
def test_evaluate_rejects_ground_truth_labels_that_no_detection_carries(label):
    # background (0) turned a perfect mAP of 1.0 into 0.5 without a warning,
    # and "a" raised a bare TypeError from sorted
    gts = {"v": [(Segment(0, 10), 1), (Segment(20, 30), label)]}
    with pytest.raises(ContractError, match="ground-truth label"):
        ek.evaluate_detections([det(0, 10, 1), det(20, 30, 1)], gts, ek.EvalConfig())
    with pytest.raises(ContractError, match="a detection needs"):
        det(20, 30, label)


def test_evaluate_scores_numpy_integer_ground_truth_labels_as_ints():
    # a Detection holds a numpy integer label, so the ground truth may too (labels built from Buffer.labels)
    dets = [det(0, 10, 1, 0.9), det(21, 30, 2, 0.8), det(40, 52, np.int64(2), 0.7), det(60, 70, 1, 0.6, "w")]
    gts = {"v": [(Segment(0, 10), 1), (Segment(20, 30), 2), (Segment(40, 50), 1)], "w": [(Segment(60, 68), 2)]}
    as_numpy = {vid: [(seg, np.int64(label)) for seg, label in v] for vid, v in gts.items()}
    report, numpy_report = (ek.evaluate_detections(dets, g, ek.EvalConfig()) for g in (gts, as_numpy))
    assert numpy_report == report and numpy_report.to_json_dict() == report.to_json_dict()
    assert all(type(c) is int for c in numpy_report.per_class_ap)


def test_evaluate_map_monotone_in_threshold():
    rng = np.random.default_rng(8)
    gts = {"v": [(Segment(s, s + 30), 1) for s in (0, 100, 200)]}
    dets = [det(s + rng.uniform(-8, 8), s + 30 + rng.uniform(-8, 8), 1, float(rng.uniform(0, 1)))
            for s in (0, 100, 200, 320)]
    report = ek.evaluate_detections(dets, gts, ek.EvalConfig())
    ts = sorted(report.map_per_threshold)
    vals = [report.map_per_threshold[t] for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_evaluate_equals_string_keyed_per_class_reference():
    cfg = ek.EvalConfig()
    gts = {
        "v9": [(Segment(0, 10), 1), (Segment(40, 60), 2), (Segment(70, 90), 3)],
        "v10": [(Segment(0, 10), 1), (Segment(20, 30), 2)],
        "v2": [(Segment(5, 25), 1)],  # ground truth but no detections
    }
    # "v9" appears first but "v10" sorts first; score and start ties across videos;
    # "w" holds detections but no ground truth; class 3 has no detections
    dets = [det(0, 30, 1, 0.5, "v9"), det(0, 10, 1, 0.5, "v10"), det(0, 10, 1, 0.5, "w"),
            det(20, 30, 2, 0.8, "v9"), det(20, 30, 2, 0.8, "v10"), det(41, 60, 2, 0.8, "v9"),
            det(0, 12, 1, 0.5, "v9"), det(0, 10, 1, 0.25, "v10")]
    for case in (dets, dets[::-1], dets[:3], []):
        assert ek.evaluate_detections(case, gts, cfg).to_json_dict() == evaluate_detections_strings_ref(case, gts, cfg)
    # the hit in "v10" ranks before the misses in "v9" and "w"
    assert ek.evaluate_detections(dets[:3], gts, cfg).per_class_ap[1][0.5] == 1 / 3
    # +0.0 against -0.0, all-equal scores, and equal starts in different videos
    for scores in ([0.0, -0.0, 0.0, -0.0, 0.5, 0.0, -0.0, 0.0], [0.5] * 8):
        case = [Detection(d.segment, d.label, s, d.video_id) for d, s in zip(dets, scores)]
        for c in (case, case[::-1]):
            assert ek.evaluate_detections(c, gts, cfg).to_json_dict() == evaluate_detections_strings_ref(c, gts, cfg)
    rng = np.random.default_rng(33)
    vids = ("v9", "v10", "v2", "w")
    scores = (0.0, 0.25, 0.5, 0.75, 1.0, -0.0)
    for case in range(300):
        gts = {vid: [(Segment(float(s), float(s + l)), int(c)) for s, l, c in
                     zip(rng.integers(0, 40, n), rng.integers(1, 12, n), rng.integers(1, 4, n))]
               for vid, n in zip(vids[:3], rng.integers(0, 5, 3))}
        if not any(gts.values()):
            continue
        dets = []
        for _ in range(int(rng.integers(0, 40))):
            s = int(rng.integers(0, 40))
            score = float(rng.uniform(0, 1)) if case % 3 == 2 else scores[int(rng.integers(0, 5 + case % 3))]
            dets.append(det(s, s + int(rng.integers(1, 12)), int(rng.integers(1, 5)), score, vids[int(rng.integers(4))]))
        assert ek.evaluate_detections(dets, gts, cfg).to_json_dict() == evaluate_detections_strings_ref(dets, gts, cfg)


def test_scoring_takes_only_valid_segments_and_finite_scores():
    # NaN scores and objectness were ranked by rule, a detection Segment(0, inf) against ground truth
    # Segment(0, inf) scored mAP 1.0, and Segment(0, 10**400) raised a bare OverflowError in segment_pairs
    nan = float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="detection score"):
            ek.evaluate_detections([det(0, 40, 1, nan, "v1")], simple_gts(), ek.EvalConfig())
        with pytest.raises(ContractError, match="proposal objectness"):
            ek.average_recall({"v": [prop(0, 40, nan)]}, {"v": [Segment(0, 40)]}, 100, (0.5,))
        for end in (float("inf"), 10 ** 400):
            with pytest.raises(ContractError, match="segment needs"):
                ek.evaluate_detections([det(0, end)], {"v": [(Segment(0, end), 1)]}, ek.EvalConfig())


def test_eval_config_validation():
    with pytest.raises(ConfigError):
        ek.EvalConfig(tiou_thresholds=(0.5, 0.5))
    with pytest.raises(ConfigError):
        ek.EvalConfig(tiou_thresholds=(0.0, 0.5))
    # -10**5000 raised a bare ValueError in the message; a numpy integer budget was taken
    for budget in (0, -1, 2.5, True, "3", -10 ** 5000, np.int64(100)):
        with pytest.raises(ConfigError, match="proposal budget"):
            ek.EvalConfig(proposal_budget=budget)
    # True and a float32 scored as thresholds, and a string raised a bare TypeError
    for value in (True, np.float32(0.5), "0.5"):
        for name in ("tiou_thresholds", "average_grid", "ar_tiou_grid"):
            with pytest.raises(ConfigError, match=r"tIoU thresholds must lie in \(0, 1\]"):
                ek.EvalConfig(**{name: (value,)})
    # a number or None raised a bare TypeError; a dict or an array constructed,
    # the array leaving the frozen config unhashable
    for value in (0.5, None, {0.5: 1}, np.array([0.5, 0.7])):
        for name in ("tiou_thresholds", "average_grid", "ar_tiou_grid"):
            with pytest.raises(ConfigError, match=f"{name} must be a tuple or list"):
                ek.EvalConfig(**{name: value})


@pytest.mark.parametrize("name", ["tiou_thresholds", "average_grid", "ar_tiou_grid"])
def test_eval_config_rejects_an_empty_grid(name):
    # an empty grid has no mean: scoring with one gave NaN and numpy warnings
    with pytest.raises(ConfigError, match="empty"):
        ek.EvalConfig(**{name: ()})


def test_eval_config_keeps_its_grids_as_tuples():
    # a list was kept as given: hash(cfg) raised, and the caller could change
    # the grid after it was checked
    grids = {"tiou_thresholds": [0.5, 0.7], "average_grid": [0.3, 0.6], "ar_tiou_grid": [0.4]}
    cfg = ek.EvalConfig(**grids)
    for grid in grids.values():
        grid.append(0.1)
    assert (cfg.tiou_thresholds, cfg.average_grid, cfg.ar_tiou_grid) == ((0.5, 0.7), (0.3, 0.6), (0.4,))
    assert cfg == ek.EvalConfig(tiou_thresholds=(0.5, 0.7), average_grid=(0.3, 0.6), ar_tiou_grid=(0.4,))
    assert hash(cfg) == hash(ek.EvalConfig(tiou_thresholds=(0.5, 0.7), average_grid=(0.3, 0.6), ar_tiou_grid=(0.4,)))


def test_report_serialization_shape():
    report = ek.evaluate_detections([det(0, 40, 1, 0.9, "v1")], simple_gts(), ek.EvalConfig())
    doc = report.to_json_dict()
    assert set(doc) == {"per_class_ap", "map_per_threshold", "average_map", "ar_at_budget", "counts"}
    assert "0.50" in doc["map_per_threshold"]


# ---------------------------------------------------------------------------
# average recall


def test_ar_perfect_proposals():
    gts = {"v": [Segment(0, 40), Segment(100, 200)]}
    props = {"v": [prop(0, 40, 0.9), prop(100, 200, 0.8)]}
    assert ek.average_recall(props, gts, 100, ek.average_map_grid()) == 1.0


def test_ar_zero_proposals():
    gts = {"v": [Segment(0, 40)]}
    assert ek.average_recall({}, gts, 100, ek.average_map_grid()) == 0.0


def test_ar_budget_monotone():
    rng = np.random.default_rng(4)
    gts = {"v": [Segment(s, s + 24) for s in range(0, 600, 60)]}
    props = {"v": [prop(s + rng.uniform(-6, 6), s + 24 + rng.uniform(-6, 6), float(rng.uniform(0, 1)))
                   for s in range(0, 600, 12)]}
    grid = ek.average_map_grid()
    ars = [ek.average_recall(props, gts, n, grid) for n in (1, 5, 20, 100)]
    assert all(a <= b + 1e-12 for a, b in zip(ars, ars[1:]))


def test_ar_matches_exhaustive_oracle():
    rng = np.random.default_rng(10)
    for _ in range(80):
        gts, props = {}, {}
        for vid in ("a", "b"):
            n = int(rng.integers(0, 4))
            gts[vid] = [Segment(s, s + l) for s, l in zip(rng.uniform(0, 200, n), rng.uniform(5, 60, n))]
            m = int(rng.integers(0, 12))
            props[vid] = [
                prop(s, s + l, float(rng.uniform(0, 1)))
                for s, l in zip(rng.uniform(0, 200, m), rng.uniform(5, 60, m))
            ]
        budget = int(rng.integers(1, 8))
        got = ek.average_recall(props, gts, budget, (0.3, 0.5, 0.7))
        ref = average_recall_ref(props, gts, budget, (0.3, 0.5, 0.7))
        assert got == pytest.approx(ref, abs=1e-12)


def test_ar_rejects_a_budget_that_is_not_a_positive_int():
    gts = {"v": [Segment(0, 40), Segment(100, 200)]}
    props = {"v": [prop(0, 40, 0.9), prop(100, 200, 0.8)]}
    for budget in (-1, 0, 2.5, True, "3", None, np.int64(1)):  # one int rule, as EvalConfig's
        with pytest.raises(ConfigError, match="budget"):
            ek.average_recall(props, gts, budget, (0.5,))
    with pytest.raises(ConfigError, match="budget"):
        ek.average_recall(props, {"v": []}, 0, (0.5,))  # before the early return on no ground truth
    assert ek.average_recall(props, gts, 1, (0.5,)) == 0.5


def test_ar_rejects_an_empty_grid():
    gts = {"v": [Segment(0, 40)]}
    props = {"v": [prop(0, 40, 0.9)]}
    for ground_truth in (gts, {"v": []}):  # before the early return on no ground truth, as the budget
        with pytest.raises(ConfigError, match="empty"):
            ek.average_recall(props, ground_truth, 100, ())
    # the grids EvalConfig rejects; under (0.0,) a proposal 400 frames from its ground truth would count as found
    far = {"v": [prop(440, 480, 0.9)]}
    for grid in ((0.0,), (0.5, 1.5), (0.7, 0.5)):
        with pytest.raises(ConfigError):
            ek.EvalConfig(ar_tiou_grid=grid)
        for ground_truth in (gts, {"v": []}):
            with pytest.raises(ConfigError, match="tIoU thresholds"):
                ek.average_recall(far, ground_truth, 100, grid)


def test_ar_equals_lexsort_reference_with_objectness_ties():
    rng = np.random.default_rng(36)
    objectness = (0.0, 0.25, 0.5, 0.75, 1.0, -0.0)
    for case in range(300):
        gts, dets = grid_scene(rng)
        props = {vid: [prop(d.segment.start, d.segment.end,
                            float(rng.uniform(0, 1)) if case % 3 == 2 else objectness[int(rng.integers(0, 5 + case % 3))])
                       for d in dets if d.video_id == vid] for vid in ("a", "b", "c")}
        budget = int(rng.integers(1, 10))
        grid = (0.3, 0.5, 0.7, 1.0) if case % 2 else ek.average_map_grid()
        assert ek.average_recall(props, gts, budget, grid) == average_recall_lexsort_ref(props, gts, budget, grid)
