"""Span recorder that instruments enloc's public functions at run time.

``Recorder.install`` replaces module and class attributes of ``enloc`` with
timing wrappers and ``Recorder.uninstall`` puts the originals back; the
package's source is never edited. Each call becomes a span with a name,
start, end and parent (a per-thread stack gives the parent), and self
time is the span's duration minus the time its child spans cover. Spans
are kept in memory; ``write_jsonl`` writes them out when the run ends.

Counters are bumped at the same boundaries. Those derived from array
shapes (GFLOP, draws, pooled values) are *computed*: they repeat exactly
for one config and say nothing about cache misses or waiting.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import tracemalloc
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    rep: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _gflop(*terms: float) -> float:
    return sum(terms) / 1e9


# Counters: (recorder, call args) -> increments. GFLOP come from the shapes
# of the matrix products: gain 2wNeNd + 2wNd^2 (product and triangular
# solves), Nd x Nd 2Nd^2Ne + Nd^3/3, correlation 2wNeNd.
def _calls(key: str):
    return lambda rec, a: {key: 1}


def _members(rec, a):
    return {"models.forward.members": a[1].shape[1]}


def _draws(rec, a):
    obs, n_members = a[0], a[4]
    return {"smoother.perturb.draws": obs.n_data * n_members}


def _dd(rec, a):
    nd, ne = a[0].n_data, a[0].n_members
    gflop = _gflop(2 * nd * nd * ne, nd**3 / 3)
    return {"smoother.dd_factor.calls": 1, "smoother.dd_factor.gflop": gflop}


def _gain(rec, a):
    ens, pred, blk = a[0], a[1], a[4]
    w, ne, nd = blk.width, ens.n_members, pred.n_data
    gflop = _gflop(2 * w * ne * nd, 2 * w * nd * nd)
    return {"smoother.gain.blocks": 1, "smoother.gain.gflop": gflop}


def _corr(rec, a):
    ens, pred, blk = a[:3]
    gflop = _gflop(2 * blk.width * ens.n_members * pred.n_data)
    return {"ensemble.corr.blocks": 1, "ensemble.corr.gflop": gflop}


def _taper_block(rec, a):
    field, blk = a[0], a[1]
    seen = rec.blocks_seen.setdefault(field, set())
    new = (blk.start, blk.width) not in seen
    seen.add((blk.start, blk.width))
    return {"tapers.block.evals": 1, "tapers.block.distinct": int(new)}


def _pooled(rec, a):
    return {"significance.pooled_values": len(a[0])}


# (module, attribute path, span name, counter) for every layer boundary.
LAYERS = [
    ("enloc.cli", "run_experiment", "harness.experiment", None),
    ("enloc.models", "sample_grf", "models.prior", _calls("models.prior.calls")),
    ("enloc.models", "ScalarToyModel.sample_prior", "models.prior", _calls("models.prior.calls")),
    ("enloc.harness", "evaluate_members", "models.forward", _members),
    ("enloc.smoother", "evaluate_members", "models.forward", _members),
    ("enloc.smoother", "perturb_observations", "smoother.perturb", _draws),
    ("enloc.smoother", "dd_factorization", "smoother.dd_factor", _dd),
    ("enloc.smoother", "kalman_gain_block", "smoother.gain", _gain),
    ("enloc.smoother", "localized_update_step", "smoother.update", None),
    ("enloc.smoother", "correlation_block", "ensemble.corr", _corr),
    ("enloc.smoother", "make_taper_field", "tapers.field", None),
    ("enloc.smoother", "TaperField.block", "tapers.block", _taper_block),
    ("enloc.smoother", "OnesTaper.block", "tapers.ones", _calls("tapers.ones.blocks")),
    ("enloc.significance", "adaptive_t0", "significance.adaptive_t0", _pooled),
    ("enloc.metrics", "n_eff", "metrics.footprint", None),
    ("enloc.metrics", "taper_histogram", "metrics.footprint", None),
]
PEAK_ALLOC = {"smoother.update"}  # spans that record the tracemalloc peak


class Recorder:
    """Holds spans and counters for one process; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.rep = 0
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # instrumentation points not found
        # taper field -> (start, width) of the blocks it has evaluated
        self.blocks_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def reset_counts(self) -> None:
        self.counts.clear()
        self.peaks.clear()

    # --- wrapping ---

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable | None = None,
        peak_alloc: bool = False,
    ) -> Callable:
        """Time every call of ``fn`` as a span ``name``.

        ``count(recorder, args)`` returns counter increments for the call;
        ``peak_alloc`` records the tracemalloc peak inside the call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name, self.rep, stack[-1] if stack else None, 0.0)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            if count is not None:
                try:
                    increments = count(self, args)
                except (AttributeError, IndexError, TypeError):  # a changed signature
                    self.missing.add(f"counts of {name}")
                    increments = {}
                for key, value in increments.items():
                    self.counts[key] += value
            if peak_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if peak_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks[name], peak)
                stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.duration

        return wrapper

    def patch(self, owner: object, attr: str, name: str, count: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, name in PEAK_ALLOC))

    def install(self, layers: bool = True) -> None:
        """Wrap ``run_esmda`` and, with ``layers``, every boundary in LAYERS.

        A boundary that no longer exists is listed in ``missing`` and its
        metrics read zero, so the benchmark survives a refactor of enloc.
        """
        import enloc.harness

        self.patch(enloc.harness, "run_esmda", "smoother.run")
        if not layers:
            return
        for module, path, name, count in LAYERS:
            *owners, attr = path.split(".")
            owner = importlib.import_module(module)
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.add(f"{module}.{path}")
                continue
            self.patch(owner, attr, name, count)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- summaries ---

    def totals(self, rep: int) -> dict[str, float]:
        """Per-name inclusive seconds (``<name>.s``) and self seconds
        (``<name>.self_s``) over the spans of one repetition."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.rep == rep:
                out[f"{span.name}.s"] += span.duration
                out[f"{span.name}.self_s"] += span.self_s
        return dict(out)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "rep": span.rep,
                            "name": span.name,
                            "parent": span.parent,
                            "start": span.start,
                            "end": span.end,
                            "self_s": span.self_s,
                        }
                    )
                    + "\n"
                )
