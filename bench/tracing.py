"""Span recording for traced benchmark runs, applied from outside the package.

``Tracer.installed()`` swaps span-recording wrappers onto the module
attributes through which callers reach each layer (``tfpdet.heads.roi_pool``,
``tfpdet.numcore.backward``, ...) and restores the originals on exit.  A name
bound by ``from ... import`` is a separate attribute of the importing module,
so it is wrapped there (``tfpdet.evalkit.tiou``).  Spans stay in memory as
``(id, name, start, end, parent, op)`` tuples and are written out once, by
``dump``, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from collections import Counter
from pathlib import Path

from tfpdet import anchorkit, datakit, evalkit, heads, numcore, pyramid

SETUP_OP = -1  # op id of spans recorded while setting up
GRAPH_WALK = "bench.graph_walk"

# Every wrapped layer function, as (module, attribute).  The metric prefix
# of a layer is "<module>.<attribute>" with the leading "tfpdet." dropped.
TRACED = (
    (numcore, "backward"),
    (numcore, "sgd_step"),
    (pyramid, "encode"),
    (pyramid, "build_pyramid"),
    (heads, "apn_forward"),
    (heads, "generate_proposals"),
    (heads, "nms_indices"),
    (heads, "acn_forward"),
    (heads, "context_features"),
    (heads, "roi_pool"),
    (heads, "finalize_detections"),
    (heads, "nms_detections"),
    (anchorkit, "build_anchor_grid"),
    (anchorkit, "match_anchors_apn"),
    (anchorkit, "match_proposals_acn"),
    (anchorkit, "sample_minibatch"),
    (anchorkit, "sample_pos_neg"),
    (evalkit, "average_precision"),
    (evalkit, "average_recall"),
    (datakit, "generate_synthetic"),
    (datakit, "load_dataset"),
    (datakit, "make_buffers"),
)


def layer_name(module, attr: str) -> str:
    return f"{module.__name__.removeprefix('tfpdet.')}.{attr}"


LAYERS = tuple(layer_name(m, a) for m, a in TRACED)


def graph_size(loss) -> int:
    """Autograd nodes reachable from ``loss`` through ``Tensor._parents``."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


class Tracer:
    """In-memory span and count recorder for one single-threaded run.

    A span's id is its rank in opening order; ``spans`` holds it in closing
    order.  ``parent`` is the id of the enclosing span (-1 at the top) and
    ``op`` the id of the benchmark op running when the span opened
    (``SETUP_OP`` while setting up).  Spans are tuples of numbers and shared
    strings, which the garbage collector stops scanning, so a long run does
    not slow down the collections of the code it measures.  ``counts``
    holds per op the work counts the wrappers observe.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = {}
        self.op = SETUP_OP
        self._ids = itertools.count()
        self._stack: list[int] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.op, Counter())[key] += n

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent, op = next(self._ids), self._stack[-1] if self._stack else -1, self.op
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, op))

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            sid, parent, op = next(ids), stack[-1] if stack else -1, self.op
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, op))
            if after is not None:
                after(out)
            return out

        return wrapper

    def _count_graph(self, loss, *_):
        with self.span(GRAPH_WALK):
            self.count("numcore.graph_nodes", graph_size(loss))

    def _count_acn_rows(self, out):
        self.count("heads.acn_rows", sum(len(idx) for idx, cls, _ in out if cls is not None))

    @contextlib.contextmanager
    def installed(self, counting: bool = False):
        """Wrap every traced layer for the duration of the block.

        With ``counting`` the wrappers also record the work counts of the
        current op.  Counting costs time inside the layers it observes (a
        ``tiou`` call runs ~10^5 times per scoring pass), so ops that count
        are kept apart from the ops whose self times are reported.
        """
        hooks = {}
        if counting:
            hooks = {
                "numcore.backward": {"before": self._count_graph},
                "heads.acn_forward": {"after": self._count_acn_rows},
                "heads.generate_proposals": {"after": lambda out: self.count("heads.proposals", len(out))},
                "heads.nms_detections": {"after": lambda out: self.count("heads.detections", len(out))},
            }
        swaps = [(m, a, self._wrap(layer_name(m, a), getattr(m, a), **hooks.get(layer_name(m, a), {})))
                 for m, a in TRACED]
        tiou_calls = itertools.count()
        if counting:
            tiou = evalkit.tiou

            def counted_tiou(a, b):
                next(tiou_calls)
                return tiou(a, b)

            swaps.append((evalkit, "tiou", counted_tiou))
        originals = [(m, a, getattr(m, a)) for m, a, _ in swaps]
        try:
            for m, a, w in swaps:
                setattr(m, a, w)
            yield self
        finally:
            for m, a, fn in originals:
                setattr(m, a, fn)
            if counting:
                self.count("evalkit.tiou_calls", next(tiou_calls))

    def self_times(self) -> list[float]:
        """Per span, in ``spans`` order: its duration minus the time its
        direct children cover."""
        covered = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return [(end - start) - covered.get(sid, 0.0) for sid, _, start, end, _, _ in self.spans]

    def dump(self, path: Path, meta: dict) -> None:
        """Write all spans, in opening order, and counts as one JSON document."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "meta": meta,
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [[sid, index[n], s, e, p, op] for sid, n, s, e, p, op in sorted(self.spans)],
            "counts": {str(op): dict(c) for op, c in sorted(self.counts.items())},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
