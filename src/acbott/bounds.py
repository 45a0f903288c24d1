"""Quantitative bound engine.

Everything here rests on one lemma: if w is a real periodic function and p a
real trigonometric polynomial, then for unitary U, V with ||[U, V]|| = delta,

    ||[w[V], U]|| <= m * delta + b,

where m is the Fourier mass of p' and b the diameter of w - p.  Collecting
such (m, b) lines for a family of approximants gives a piecewise-linear
envelope eta(delta); combining the envelopes for the standard triple yields
beta(delta), the guaranteed bound on ||B(U,V)^2 - I||, and from it the
guaranteed spectral gap and the certified threshold.

The same machinery certifies the homotopy connecting the trigonometric block
matrix to its log-method variant.  The two-stage path of function triples is
written once, as ``path_values(stage, t)``; its end is the log method's
triple.  Along the path each eta is certified from one stored coefficient
vector, summed on the fine grid as one real product of two small trig
tables, and the resulting bound must stay below the certification
threshold.  Each stage walks the mesh once, holding only the previous
triple, and checks the step rule at every step of the walk; stage 1 moves f
and g only past pi/2, so it is sampled there alone.  A fixed vector's eta is
valid at every delta, so the vectors in ``log_certificate`` certify any
delta; a mesh point off the stored mesh takes the vectors of its nearest
stored point.  The certification solves no LP.
``scripts/regenerate_log_certificate.py`` searches the vectors by LP at
delta = 1/8 and rewrites the store, and the test suite requires the store to
match a fresh search byte for byte.

What a certification reads that depends on neither delta nor the mesh is
computed once per process and grid, on the first certification rather than
at import, and held read-only: the bump triple's samples on the fine grid
(x, h, f past pi/2 and f clamped to 1 there) and the series' coefficient-free
trig tables, one set per grid sized for the largest degree asked for.  A
certification itself makes only the path's triples, the step sums and the
series products, and reuses its own buffers from step to step.

The envelope rows and the cosine coefficients of h are fixed constants of the
construction, so they are stored as exact float literals and a process only
reads them; ``tests/support.py`` re-derives both, and the test suite requires
the stored values to match bit for bit.  The stored certificate is imported
when a certification first runs, and no certification imports scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .bott import eval_f, eval_h
from .config import (
    CERTIFY_THRESHOLD,
    F_LIPSCHITZ,
    FINE_GRID,
    H_LIPSCHITZ,
    STEP_BUDGET,
)
from .errors import CertificationFailed, MeshViolation, NoGuarantee

# sup |(h^2)'|; the true value is 1.6431
_HSQ_LIPSCHITZ = 1.65
# sup |(f h)'|; attained at the origin where h = 1
_Q_LIPSCHITZ = 1.875

# (m, b) rows of the envelopes, less h's slope-only row, as the test suite's
# oracle derives them on the offset grid
_ETA_F_ROWS = (
    (0.0, 2.0000112352108492),
    (1.171875, 0.4190156584543723),
    (1.7578125, 0.04689676822101949),
    (1.875, 0.0),
)
_ETA_H_ROWS = (
    (0.0, 1.0000071905349432),
    (0.35988003896519566, 0.7322456079477796),
    (0.8625006956216896, 0.3501520240209381),
    (1.2585579268381994, 0.10663418345538332),
    (1.446116494127694, 0.017523154960116694),
    (1.4849726693382788, 0.004125682084212452),
)


@dataclass(frozen=True)
class BoundLine:
    """One affine bound eta(delta) <= m * delta + b."""

    m: float
    b: float
    provenance: str = "computed"

    def __call__(self, delta: float) -> float:
        return self.m * delta + self.b


@dataclass(frozen=True)
class BoundEnvelope:
    """Pointwise minimum of a family of bound lines."""

    lines: Tuple[BoundLine, ...]

    def __call__(self, delta: float) -> float:
        return min(line(delta) for line in self.lines)


# h's slope-only row: the analytic derivative-mass bound, offset exactly 0
_H_SLOPE_ROW = BoundLine(2.99208, 0.0, provenance="stored")


def require_delta(delta: float) -> None:
    """Refuse a commutator norm or distance that is not finite and >= 0;
    every bound function and ``acbott bounds`` check their deltas here."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if delta < 0:
        raise ValueError("delta must be nonnegative")


@functools.lru_cache(maxsize=1)
def eta_envelope_f() -> BoundEnvelope:
    """Envelope for the commutator of f[V] with U.

    Rows come from truncating the degree-5 sine polynomial after 0, 1, 2 and
    3 terms.  The final truncation is f itself, so its offset is exactly 0.
    The rows are stored; the test suite's oracle derives them.
    """
    return BoundEnvelope(tuple(BoundLine(m, b) for m, b in _ETA_F_ROWS))


@functools.lru_cache(maxsize=1)
def eta_envelope_h() -> BoundEnvelope:
    """Envelope for the commutator of h[V] with U.

    Rows n = 0..5 come from the cosine coefficients of h; the slope-only row
    is the stored analytic derivative-mass bound.  The rows are stored; the
    test suite's oracle derives them.
    """
    rows = tuple(BoundLine(m, b) for m, b in _ETA_H_ROWS)
    return BoundEnvelope(rows + (_H_SLOPE_ROW,))


def beta(delta: float) -> float:
    """Guaranteed bound on ||B(U,V)^2 - I|| at commutator norm delta."""
    require_delta(delta)
    return 2 * eta_envelope_h()(delta) + eta_envelope_f()(delta)


@functools.lru_cache(maxsize=1)
def beta_root() -> float:
    """The delta at which beta reaches 1 (the index loses its guarantee).

    beta is the minimum of the affine pieces 2 h_i + f_j over the rows of
    the two envelopes, and no piece decreases, so beta reaches 1 where the
    last rising piece does: in closed form, with no root search.
    """
    return max(
        (1.0 - 2 * h.b - f.b) / (2 * h.m + f.m)
        for h in eta_envelope_h().lines
        for f in eta_envelope_f().lines
        if 2 * h.m + f.m > 0
    )


def guaranteed_gap(delta: float) -> float:
    """Certified radius of the spectral gap of B(U,V) at zero."""
    bd = beta(delta)
    if bd >= 1.0:
        raise NoGuarantee(f"beta({delta}) = {bd:.6f} >= 1; no gap is guaranteed")
    return float(np.sqrt(1.0 - bd))


def coarse_gap(delta: float) -> float:
    """The simpler published radius (19/20) sqrt(1 - 5 delta), when defined."""
    require_delta(delta)
    if delta > 0.2:
        raise NoGuarantee("coarse bound needs delta <= 1/5")
    return float(0.95 * np.sqrt(1.0 - 5.0 * delta))


def variation_bound(dU: float, dV: float) -> float:
    """Bound on the change of the block matrix under pair perturbations.

    Moving V alone changes B by at most beta(dV); moving U alone by at most
    dU; a combined move is also controlled by beta of the total distance.
    The minimum of the two compositions is returned.
    """
    require_delta(dU)
    require_delta(dV)
    return min(beta(dV) + dU, beta(dV + dU))


# ---------------------------------------------------------------------------
# Homotopy certification for the log method
# ---------------------------------------------------------------------------


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call.

    The library solves no LP.  The store's regeneration script searches its
    coefficient vectors through this wrapper, which stays a module attribute
    where the benchmark's tracer finds it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# grid n -> (cos, sin) of k x_j at the row starts j = q b and at the in-row
# offsets j = r of ``_eval_half_series``' layout, for degrees k = 0..K
_TRIG_TABLES = {}


def _trig_tables(n, degrees):
    """The coefficient-free trig tables of the grid of n intervals, for at
    least ``degrees`` degrees 0, 1, ....  One read-only set is kept per grid:
    a call that needs a higher degree than the set holds replaces it by one
    of that degree, so the set is sized for the largest degree asked for so
    far and each call slices it.  Each entry depends on its angle alone, so a
    slice has the bits a table of its own width would."""
    tables = _TRIG_TABLES.get(n)
    if tables is None or tables[0].shape[1] < degrees:
        b = math.isqrt(n) + 1
        rows = -(-(n + 1) // b)
        k = np.arange(degrees)

        def trig(j):
            angle = np.multiply.outer(j, k) % (2 * n) * (np.pi / n)
            return np.cos(angle), np.sin(angle)

        tables = trig(np.arange(rows) * b) + trig(np.arange(b))
        for table in tables:
            table.flags.writeable = False
        _TRIG_TABLES[n] = tables
    return tables


def _eval_half_series(coeffs, parity, n):
    """Half-range series on the uniform grid x_j = j pi / n, j = 0..n.

    Even parity sums the K = len(coeffs) terms c_k cos(k x), k = 0..K-1, odd
    parity c_k sin(k x), k = 1..K.  The grid is laid out in rows of
    b = isqrt(n) + 1 points, j = q b + r, and with h = pi / n angle addition
    splits each term, cos(k x_j) = cos(k q b h) cos(k r h) - sin(k q b h)
    sin(k r h) (sines likewise), so the whole grid is one real product of a
    (rows x 2K) table, which carries the coefficients, and a (b x 2K) one.
    Every angle k j h is reduced modulo 2 pi in integers first, and the
    coefficient-free tables are the grid's cached set (``_trig_tables``).
    The product fills rows * b >= n + 1 points, of which the first n + 1 are
    returned; the odd series' endpoints are exactly 0.  Direct evaluation
    does not alias, so any degree is summed.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    even = parity == "even"
    degrees = slice(not even, len(coeffs) + (not even))
    cos_q, sin_q, cos_r, sin_r = (
        table[:, degrees] for table in _trig_tables(n, degrees.stop)
    )
    if even:
        left = np.hstack((cos_q * coeffs, -sin_q * coeffs))
    else:
        left = np.hstack((sin_q * coeffs, cos_q * coeffs))
    rows, b = len(cos_q), len(cos_r)
    out = np.empty(rows * b)
    np.matmul(left, np.hstack((cos_r, sin_r)).T, out=out.reshape(rows, b))
    out = out[: n + 1]
    if not even:
        out[0] = out[-1] = 0.0
    return out


@functools.lru_cache(maxsize=None)
def _fine_samples(n):
    """(x, h, f_out, f_clamped): the grid x_j = j pi / n, j = 0..n, and the
    bump triple's samples that the certification's walk reads there, h, f
    past pi/2, and f with its values past pi/2 set to 1.  Computed on a
    process's first certification on the grid, not at import, and held
    read-only."""
    x = np.linspace(0.0, np.pi, n + 1)
    f = eval_f(x)
    outside = x > np.pi / 2
    f_out = f[outside]
    f[outside] = 1.0
    samples = x, eval_h(x), f_out, f
    for a in samples:
        a.flags.writeable = False
    return samples


@dataclass(frozen=True)
class CertificationReport:
    delta: float
    threshold: float
    stage1_t: np.ndarray
    stage1_bounds: np.ndarray
    stage2_t: np.ndarray
    stage2_bounds: np.ndarray
    stage1_etas: Tuple[float, float, float]  # eta_h, eta_{h^2}, eta_q
    step_sums: Tuple[float, float]
    max_bound: float
    passed: bool

    def rows(self):
        """(stage, t, bound) triples for CSV emission."""
        out = [(1, float(t), float(v)) for t, v in zip(self.stage1_t, self.stage1_bounds)]
        out += [(2, float(t), float(v)) for t, v in zip(self.stage2_t, self.stage2_bounds)]
        return out


def _unit_complement(f, out):
    """sqrt(max(1 - f^2, 0)), written into ``out``."""
    np.square(f, out=out)
    np.subtract(1, out, out=out)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def _stage1_pair(s, f_out, sign, out=None):
    """Stage 1's (f_s, g_s) past pi/2, from the bump triple's f there and
    the sign of the angle, written into ``out`` (two arrays shaped like
    f_out) when given."""
    fs, gs = (np.empty_like(f_out), np.empty_like(f_out)) if out is None else out
    np.multiply(1 - s, f_out, out=fs)
    np.add(fs, s * sign, out=fs)
    return fs, _unit_complement(fs, gs)


def _stage2_triple(t, x, f_clamped, out=None):
    """Stage 2's (f_t, h_t), written into ``out`` (two arrays shaped like x)
    when given; h_t serves as the scratch of t x / pi first."""
    ft, ht = (np.empty_like(x), np.empty_like(x)) if out is None else out
    np.multiply(1 - t, f_clamped, out=ft)
    np.multiply(t, x, out=ht)
    np.divide(ht, np.pi, out=ht)
    np.add(ft, ht, out=ft)
    return ft, _unit_complement(ft, ht)


def path_values(stage, t):
    """The certified path's triple at point t of a stage, as a function of
    angles: ``values(x)`` returns (f, g, h) at angles x in [-pi, pi].

    Stage 1 runs from the bump triple (t = 0) and moves f to sign(x) past
    pi/2, where g = sqrt(1 - f^2) and h = 0; inside, the triple stays the
    bump triple with g = 0.  Stage 2 moves that clamped f to x/pi, with
    g = 0 and h = sqrt(1 - f^2); its end, t = 1, is the log triple
    (``logmethod._log_values``), where the clamped f is weighted by exactly
    0, so f is x/pi bit for bit, signed zeros included.  ``_certify`` walks
    the same path on its fine grid from buffers of its own, and the test
    suite holds the two equal bit for bit.  At the start g is formed as
    sqrt(1 - f^2), which misses ``eval_g``'s closed form by up to 2.4e-8, so
    the bump triple of a request is ``bott._trig_values``.  A stage other
    than 1 or 2, or a t outside [0, 1] (NaN included), raises ValueError
    before any work.
    """
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage!r}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t!r}")

    def values(x):
        x = np.asarray(x, dtype=float)
        f = eval_f(x)
        outside = np.abs(x) > np.pi / 2
        if stage == 1:
            fs, gs = _stage1_pair(t, f, np.sign(x))
            return np.where(outside, fs, f), np.where(outside, gs, 0.0), eval_h(x)
        ft, ht = _stage2_triple(t, x, np.where(outside, np.sign(x), f))
        return ft, np.zeros_like(ft), ht

    return values


def _step_sum(prev, cur):
    """sup |a - a'| + sup |b - b'| between consecutive samples (a, b) and
    (a', b') of the two components a stage moves, each difference formed in
    the previous sample's buffer, which the walk no longer reads; 0 at the
    first mesh point.  A step sum above STEP_BUDGET breaks the step rule."""
    if prev is None:
        return 0.0
    step = 0.0
    for c, p in zip(cur, prev):
        np.subtract(c, p, out=p)
        step += float(np.abs(p, out=p).max())
    if step > STEP_BUDGET:
        raise MeshViolation(
            f"mesh step sum {step:.4f} exceeds budget {STEP_BUDGET:.4f}"
        )
    return step


def certify_log_path(
    delta: float, mesh: Optional[Sequence[float]] = None
) -> CertificationReport:
    """Certify the two-stage homotopy from the bump triple to the log triple.

    The path is ``path_values``.  Stage 1 straightens f toward +-1 outside
    the bump window while g shrinks to keep f^2 + g^2 = 1 there; h does not
    move, so its etas are certified once and only the sup of g varies along
    the stage.  Stage 2 interpolates the clamped f to x/pi with
    h = sqrt(1 - f^2) and g = 0, ending at the log triple.  The walk samples
    these triples on the fine grid from buffers of its own, equal to
    ``path_values``' bit for bit.  Every mesh point
    must give a squared-deviation bound below CERTIFY_THRESHOLD, and
    consecutive triples must obey the step rule (step sums at most
    STEP_BUDGET).  Each stage walks the mesh once and checks the rule at
    every step, stage 1 only past pi/2, where its f and g move; a mesh that
    breaks it raises MeshViolation with no report, whatever its bounds.  The
    default mesh is the stored one: 17 Chebyshev-Lobatto points.

    Each eta is certified from one stored coefficient vector
    (``log_certificate``), summed on the fine grid by one blocked product of
    trig tables (``_eval_half_series``), and no LP is solved.  A
    fixed vector's eta is affine in delta and valid at every delta, so the
    vectors searched at 1/8 certify any delta.  A mesh point off the stored
    mesh takes the vectors of its nearest stored point: a valid bound, looser
    than a search would give.  Each residual is measured on ``FINE_GRID`` + 1
    samples of the half period.

    Returns the report on success and raises CertificationFailed (with the
    report attached) when any bound reaches the threshold.
    """
    require_delta(delta)
    from .log_certificate import APPROXIMANTS

    stored_mesh = sorted({key[0] for key in APPROXIMANTS if isinstance(key, tuple)})

    def approximant(key, parity, certified):
        if isinstance(key, tuple):
            t, name = key
            key = (min(stored_mesh, key=lambda s: abs(s - t)), name)
        return APPROXIMANTS[key]

    if mesh is None:
        mesh = stored_mesh
    return _certify(delta, mesh, approximant)


def _certify(delta, mesh, approximant):
    """``certify_log_path`` with the source of the coefficients given.

    ``approximant(key, parity, certified)`` returns the coefficient vector of
    one eta.  The key is "h1", "h1sq" or "q1" in stage 1, and (t, "h"),
    (t, "hsq") or (t, "q") at stage-2 mesh point t.  Even parity takes
    cosine coefficients c_0, c_1, ..., odd parity sine coefficients
    c_1, c_2, ....  ``certified(coeffs)`` returns the eta a vector certifies
    and the fine-grid residual it was measured on; the vector returned is
    certified by the same function.

    Each stage is one walk over the sorted mesh that holds only the previous
    triple and checks the step rule at every step.  Stage 1 samples f_s and
    g_s past pi/2 only: inside, and for h everywhere, each step is exactly 0
    and g is 0, so the step sums and the sups of g are those of the whole
    grid.  Stage 2 makes each triple once and steps it before its etas; the
    walk raises MeshViolation at the first step over STEP_BUDGET, and a
    failed bound is raised only after both walks.  The walk reads the
    grid's cached samples (``_fine_samples``) and writes each triple into
    one of two buffer pairs of its own, alternately; a step's differences
    are formed in the previous pair, which then holds each eta's target.
    """
    ts = np.asarray(sorted(float(t) for t in mesh))
    # a NaN would pass the step rule, since max ignores it
    if not np.all(np.isfinite(ts)):
        raise MeshViolation("mesh points must be finite")
    if len(ts) < 2 or abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
        raise MeshViolation("mesh must run from 0 to 1")

    x, h, f_out, f_clamped = _fine_samples(FINE_GRID)
    spacing = np.pi / FINE_GRID
    # two buffer pairs for the walk: one holds the current triple, the other
    # the previous one until it is stepped, and then serves as scratch
    pairs = [(np.empty_like(x), np.empty_like(x)) for _ in range(2)]

    # stage 1: f_s and g_s move only past pi/2; inside, and for h
    # everywhere, every step is exactly 0 and g is 0.  They are walked in
    # the heads of the buffers
    step1, gnorms, prev = 0.0, [], None
    for i, s in enumerate(ts):
        cur = _stage1_pair(s, f_out, 1.0, out=[a[: len(f_out)] for a in pairs[i % 2]])
        gnorms.append(float(cur[1].max()))
        step1 = max(step1, _step_sum(prev, cur))
        prev = cur

    def eta(key, vals, parity, dev_fn):
        """One eta: its residual is formed in the buffer its series was
        evaluated in."""

        def certified(coeffs):
            coeffs = np.asarray(coeffs, dtype=float)
            ks = np.arange(len(coeffs)) + (parity == "odd")
            resid = _eval_half_series(coeffs, parity, FINE_GRID)
            np.subtract(vals, resid, out=resid)
            m = float(np.sum(ks * np.abs(coeffs)))
            # known defect, kept until the store is searched again: the lemma
            # needs the range on the whole circle, which for odd parity is
            # 2 max|r|, not this range on [0, pi]
            diam = float(resid.max() - resid.min())
            return m * delta + diam + 2 * (dev_fn + m * spacing / 2), resid

        return certified(approximant(key, parity, certified))[0]

    # stage 1: h, h^2 and q = f h are constant along the stage.  Past pi/2,
    # h is +0 and f is positive, so f h there is (f clamped to 1) h, bit
    # for bit
    eta_h1 = eta("h1", h, "even", H_LIPSCHITZ * spacing / 2)
    # the samples of h^2 and then f h go to a walk buffer
    buf = pairs[0][0]
    eta_h1sq = eta("h1sq", np.square(h, out=buf), "even", _HSQ_LIPSCHITZ * spacing / 2)
    eta_q1 = eta("q1", np.multiply(f_clamped, h, out=buf), "odd", _Q_LIPSCHITZ * spacing / 2)
    stage1_bounds = np.asarray([
        (gnorm + 1) * eta_h1 + 0.25 * eta_h1**2 + 0.5 * eta_h1sq + eta_q1
        for gnorm in gnorms
    ])

    # stage 2: its own approximants at every mesh point.  Once stepped, the
    # previous triple's f buffer holds 1 - f_t^2 and then f_t h_t, so that
    # f_t and h_t are the next step's previous triple
    step2, stage2_bounds, prev = 0.0, [], None
    for i, t in enumerate(ts):
        ft, ht = cur = _stage2_triple(t, x, f_clamped, out=pairs[i % 2])
        step2 = max(step2, _step_sum(prev, cur))
        prev = cur
        buf = pairs[(i + 1) % 2][0]
        lf_t = (1 - t) * F_LIPSCHITZ + t / np.pi
        l2_t = 2 * lf_t
        dev_sqrt = float(np.sqrt(l2_t * spacing / 2))
        eta_h = eta((float(t), "h"), ht, "even", dev_sqrt)
        np.square(ft, out=buf)
        np.subtract(1, buf, out=buf)
        eta_hsq = eta((float(t), "hsq"), buf, "even", l2_t * spacing / 2)
        np.multiply(ft, ht, out=buf)
        eta_q = eta((float(t), "q"), buf, "odd", dev_sqrt + lf_t * spacing / 2)
        stage2_bounds.append(eta_h + 0.25 * eta_h**2 + 0.5 * eta_hsq + eta_q)
    stage2_bounds = np.asarray(stage2_bounds)

    max_bound = float(max(stage1_bounds.max(), stage2_bounds.max()))
    passed = max_bound < CERTIFY_THRESHOLD
    report = CertificationReport(
        delta=float(delta),
        threshold=CERTIFY_THRESHOLD,
        stage1_t=ts.copy(),
        stage1_bounds=stage1_bounds,
        stage2_t=ts.copy(),
        stage2_bounds=stage2_bounds,
        stage1_etas=(eta_h1, eta_h1sq, eta_q1),
        step_sums=(step1, step2),
        max_bound=max_bound,
        passed=passed,
    )
    if not passed:
        raise CertificationFailed(
            f"bound reaches {max_bound:.6f} >= {CERTIFY_THRESHOLD} "
            f"at delta = {delta}",
            report=report,
        )
    return report
