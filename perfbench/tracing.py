"""Spans around the public functions of acbott and the library calls it makes.

Tracing works from outside the package: ``Tracer.install`` replaces every
module attribute that binds a traced function with a wrapper that records a
span, so calls through ``acbott.cli.build_B`` and ``acbott.bott.build_B``
are both seen.  Spans stay in memory; ``summarize`` turns them into call
counts and self times per layer, overall and per request.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (layer name, defining module, attribute)
PUBLIC = (
    ("cli.main", "acbott.cli", "main"),
    ("matrixio.read_matrix", "acbott.matrixio", "read_matrix"),
    ("linalg.make_pair", "acbott.linalg", "make_pair"),
    ("linalg.operator_norm", "acbott.linalg", "operator_norm"),
    ("selfdual.make_selfdual_pair", "acbott.selfdual", "make_selfdual_pair"),
    ("selfdual.pfaffian_bott_index", "acbott.selfdual", "pfaffian_bott_index"),
    ("winding.winding_number", "acbott.winding", "winding_number"),
    ("winding.distance_bound_commuting", "acbott.winding", "distance_bound_commuting"),
    ("bott.build_B", "acbott.bott", "build_B"),
    ("bott.signature", "acbott.bott", "signature"),
    ("bott.bott_index", "acbott.bott", "bott_index"),
    ("bott.standard_triple", "acbott.bott", "standard_triple"),
    ("logmethod.build_BL", "acbott.logmethod", "build_BL"),
    ("logmethod.kappa2_log", "acbott.logmethod", "kappa2_log"),
    ("bounds.guaranteed_gap", "acbott.bounds", "guaranteed_gap"),
    ("bounds.eta_envelope_f", "acbott.bounds", "eta_envelope_f"),
    ("bounds.eta_envelope_h", "acbott.bounds", "eta_envelope_h"),
    ("bounds.certify_log_path", "acbott.bounds", "certify_log_path"),
)

# library entry points the program calls through a module attribute
LIBRARY = (
    ("lapack.schur", "scipy.linalg", "schur"),
    ("lapack.svd", "numpy.linalg", "svd"),
    ("lapack.eigh", "numpy.linalg", "eigvalsh"),
    ("lapack.eigh", "numpy.linalg", "eigh"),
    ("bounds.linprog", "acbott.bounds", "linprog"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in PUBLIC + LIBRARY))


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root span
    request: Optional[str]
    start: float
    end: float = float("nan")


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        self._open: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, self.request, self.clock()))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in the loaded acbott modules."""
        holders = [
            m for n, m in sys.modules.items() if n == "acbott" or n.startswith("acbott.")
        ]
        for name, modname, attr in PUBLIC + LIBRARY:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for holder in [module] + [h for h in holders if h is not module]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """{request: {layer: {"calls": n, "self_s": t}}} for the traced layers."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for s, own in zip(spans, self_times(spans)):
        if s.name not in LAYERS:
            continue
        cell = out.setdefault(s.request or "", {}).setdefault(
            s.name, {"calls": 0, "self_s": 0.0}
        )
        cell["calls"] += 1
        cell["self_s"] += own
    return out


def totals(per_request: Dict[str, Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum a per-request summary over requests; every layer appears, zero if unused."""
    out = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
    for layers in per_request.values():
        for name, cell in layers.items():
            out[name]["calls"] += cell["calls"]
            out[name]["self_s"] += cell["self_s"]
    return out


def span_rows(spans: Sequence[Span]) -> List[list]:
    """Spans as JSON-ready rows [name, parent, request, start, end]."""
    return [[s.name, s.parent, s.request, s.start, s.end] for s in spans]
