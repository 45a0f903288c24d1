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
matrix to its log-method variant: along the two-stage path of function
triples, each eta is certified from one stored coefficient vector with one
DCT-I or DST-I, and the resulting bound must stay below the certification
threshold.  A fixed vector's eta is valid at every delta, so the vectors in
``log_certificate`` certify any delta; a mesh point off the stored mesh
takes the vectors of its nearest stored point.  The certification solves no
LP.  ``scripts/regenerate_log_certificate.py`` searches the vectors by LP at
delta = 1/8 and rewrites the store, and the test suite requires the store to
match a fresh search byte for byte.

The envelope rows and the cosine coefficients of h are fixed constants of the
construction, so they are stored as exact float literals and a process only
reads them.  ``_eta_f_rows`` and ``_eta_h_rows`` re-derive the rows on the
offset grid together with the degree-5 reproduction check, the c_0..c_16
mass cap and the drift gates against the published rows; the test suite runs
them and requires the stored rows to match bit for bit.  scipy.fft and the
stored certificate are imported when a certification first runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bott import F_AMPLITUDES, eval_f, eval_h, standard_triple
from .config import (
    CERTIFY_THRESHOLD,
    ENVELOPE_GRID,
    F_LIPSCHITZ,
    FINE_GRID,
    H_LIPSCHITZ,
    STEP_BUDGET,
)
from .errors import (
    CertificationFailed,
    InvalidPolynomial,
    MeshViolation,
    NoGuarantee,
    NumericalInconsistency,
    TableDrift,
)
from .linalg import TrigPoly

# sup |(h^2)'|; the true value is 1.6431
_HSQ_LIPSCHITZ = 1.65
# sup |(f h)'|; attained at the origin where h = 1
_Q_LIPSCHITZ = 1.875

# published reference rows (m, b) used as drift gates for the recomputation
_REFERENCE_F = ((0.0, 2.0), (1.171875, 0.4375), (1.7578125, 0.04687), (1.875, 0.0))
_REFERENCE_H = (
    (0.0, 1.0),
    (0.359880, 0.732237),
    (0.862500, 0.350141),
    (1.258560, 0.106619),
    (1.446120, 0.017509),
    (1.48498, 0.004110),
    (2.99208, 0.0),
)
# cap on any partial Fourier mass of h', from the analytic derivation of the
# slope-only reference row
_HPRIME_MASS_CAP = 2.992076

# (m, b) rows as _eta_f_rows and _eta_h_rows compute them, less h's
# slope-only row
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
_H_SLOPE_ROW = BoundLine(_REFERENCE_H[-1][0], 0.0, provenance="stored")


def eta_lines(
    fn: Callable,
    series: TrigPoly,
    degrees: Sequence[int],
    fn_lipschitz: float,
) -> Tuple[BoundLine, ...]:
    """Bound lines for fn against the truncations of a real series.

    fn is evaluated once on a uniform grid and one running partial sum of
    ``series`` is walked.  At each requested degree n, in ascending order,
    the slope is the derivative mass of the degree-n truncation and the
    offset is the grid diameter of fn minus that truncation plus a certified
    budget for what the grid can miss: max and min can each be off by the
    deviation over half a spacing, bounded by fn_lipschitz plus the slope.
    """
    if not series.is_real_valued():
        raise InvalidPolynomial("approximant must be real-valued")
    xs = np.linspace(-np.pi, np.pi, ENVELOPE_GRID + 1)
    spacing = 2 * np.pi / ENVELOPE_GRID
    vals = np.asarray(fn(xs), dtype=float)
    rows = []
    for n, partial in zip(range(max(degrees) + 1), series.partial_sums(xs)):
        if n not in degrees:
            continue
        top = series.coeffs[series.degree - n : series.degree + n + 1]
        m = TrigPoly(n, top).derivative_l1()
        diam = float(np.ptp(vals - np.real(partial)))
        dev = m * spacing / 2 + fn_lipschitz * spacing / 2
        rows.append(BoundLine(m, diam + 2 * dev))
    return tuple(rows)


def _drift_gate(rows: Sequence[BoundLine], reference, label: str) -> None:
    for row, (m_ref, b_ref) in zip(rows, reference):
        if row.m > m_ref + 1e-3 or row.b > b_ref + 1e-3:
            raise TableDrift(
                f"{label} row recomputed as ({row.m:.6f}, {row.b:.6f}) "
                f"drifts above reference ({m_ref}, {b_ref})"
            )


@functools.lru_cache(maxsize=1)
def eta_envelope_f() -> BoundEnvelope:
    """Envelope for the commutator of f[V] with U.

    Rows come from truncating the degree-5 sine polynomial after 0, 1, 2 and
    3 terms.  The final truncation is f itself, so its offset is exactly 0.
    The rows are the stored output of ``_eta_f_rows``.
    """
    return BoundEnvelope(tuple(BoundLine(m, b) for m, b in _ETA_F_ROWS))


@functools.lru_cache(maxsize=1)
def eta_envelope_h() -> BoundEnvelope:
    """Envelope for the commutator of h[V] with U.

    Rows n = 0..5 come from the cosine coefficients of h; the slope-only row
    is the stored analytic derivative-mass bound.  The rows are the stored
    output of ``_eta_h_rows``.
    """
    rows = tuple(BoundLine(m, b) for m, b in _ETA_H_ROWS)
    return BoundEnvelope(rows + (_H_SLOPE_ROW,))


def _eta_f_rows() -> Tuple[BoundLine, ...]:
    """Recompute the rows of eta_envelope_f, with every check on them."""
    f5 = TrigPoly.from_sin_series(F_AMPLITUDES)
    rows = list(eta_lines(eval_f, f5, (0, 1, 3), F_LIPSCHITZ))
    xs = np.linspace(-np.pi, np.pi, 4097)
    if float(np.max(np.abs(eval_f(xs) - f5.real_values(xs)))) > 1e-12:
        raise NumericalInconsistency("degree-5 polynomial does not reproduce f")
    rows.append(BoundLine(f5.derivative_l1(), 0.0))
    _drift_gate(rows, _REFERENCE_F, "eta_f")
    return tuple(rows)


def _eta_h_rows() -> Tuple[BoundLine, ...]:
    """Recompute the rows of eta_envelope_h, with every check on them.

    The slope-only row is cross checked against the partial Fourier masses
    of c_0..c_16, which may never exceed it.
    """
    triple = standard_triple()
    rows = list(eta_lines(eval_h, triple.h5, range(6), H_LIPSCHITZ))
    c16 = triple.coefficients16
    mass = 2 * float(np.sum(np.arange(17) * np.abs(c16)))
    if mass > _HPRIME_MASS_CAP:
        raise TableDrift(
            f"partial derivative mass {mass:.6f} exceeds cap {_HPRIME_MASS_CAP}"
        )
    rows.append(_H_SLOPE_ROW)
    _drift_gate(rows, _REFERENCE_H, "eta_h")
    return tuple(rows)


def beta(delta: float) -> float:
    """Guaranteed bound on ||B(U,V)^2 - I|| at commutator norm delta."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return 2 * eta_envelope_h()(delta) + eta_envelope_f()(delta)


@functools.lru_cache(maxsize=1)
def beta_root() -> float:
    """The delta at which beta reaches 1 (the index loses its guarantee)."""
    from scipy.optimize import brentq

    return float(brentq(lambda d: beta(d) - 1.0, 0.05, 0.5, xtol=1e-12))


def guaranteed_gap(delta: float) -> float:
    """Certified radius of the spectral gap of B(U,V) at zero."""
    bd = beta(delta)
    if bd >= 1.0:
        raise NoGuarantee(f"beta({delta}) = {bd:.6f} >= 1; no gap is guaranteed")
    return float(np.sqrt(1.0 - bd))


def coarse_gap(delta: float) -> float:
    """The simpler published radius (19/20) sqrt(1 - 5 delta), when defined."""
    if delta > 0.2:
        raise NoGuarantee("coarse bound needs delta <= 1/5")
    return float(0.95 * np.sqrt(1.0 - 5.0 * delta))


def variation_bound(dU: float, dV: float) -> float:
    """Bound on the change of the block matrix under pair perturbations.

    Moving V alone changes B by at most beta(dV); moving U alone by at most
    dU; a combined move is also controlled by beta of the total distance.
    The minimum of the two compositions is returned.
    """
    if dU < 0 or dV < 0:
        raise ValueError("distances must be nonnegative")
    return min(beta(dV) + dU, beta(dV + dU))


# ---------------------------------------------------------------------------
# Homotopy certification for the log method
# ---------------------------------------------------------------------------


def _clamped_f(x: np.ndarray) -> np.ndarray:
    # f pinned to +-1 outside [-pi/2, pi/2]
    return np.where(np.abs(x) <= np.pi / 2, eval_f(x), np.sign(x))


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call.

    The library solves no LP.  The store's regeneration script searches its
    coefficient vectors through this wrapper, which stays a module attribute
    where the benchmark's tracer finds it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _eval_half_series(coeffs, parity, n):
    """Half-range series on the uniform grid x_j = j pi / n, j = 0..n.

    Even parity sums c_k cos(k x) over k = 0..len(coeffs)-1 as one DCT-I of
    the zero-padded coefficients (k >= 1 halved, since the transform doubles
    interior terms); odd parity sums c_k sin(k x) over k = 1..len(coeffs) as
    one DST-I on the n - 1 interior points, and both endpoints are exactly 0.
    The grid has n + 1 points and must resolve every degree: the largest k
    must stay below n, or the transform aliases it onto a lower one.  Both
    transforms run in place in the returned array.
    """
    from scipy.fft import dct, dst

    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(n + 1)
    if parity == "even":
        out[0] = coeffs[0]
        np.divide(coeffs[1:], 2, out=out[1 : len(coeffs)])
        return dct(out, type=1, overwrite_x=True)
    np.divide(coeffs, 2, out=out[1 : len(coeffs) + 1])
    # the transform returns the view it was given, and assigning a view to
    # itself copies nothing
    out[1:-1] = dst(out[1:-1], type=1, overwrite_x=True)
    return out


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


def _stage1_triple(s, x, f_std, h_std, outside):
    fs = np.where(outside, (1 - s) * f_std + s * np.sign(x), f_std)
    gs = np.where(outside, np.sqrt(np.maximum(1 - fs**2, 0.0)), 0.0)
    return fs, gs, h_std


def _stage2_triple(t, x, f_clamped):
    ft = (1 - t) * f_clamped + t * x / np.pi
    ht = np.sqrt(np.maximum(1 - ft**2, 0.0))
    return ft, 0.0, ht


def _sup_step(c, p, scratch):
    """sup |c - p| for one component of two triples, formed in scratch."""
    if c is p:
        # a component the stage keeps fixed steps by exactly 0
        return 0.0
    np.subtract(c, p, out=scratch)
    np.abs(scratch, out=scratch)
    return float(scratch.max())


def _step_sums(ts, make_triple):
    """Largest step sum ||df|| + ||dg|| + ||dh|| over consecutive mesh
    points, and the sup of g at every point.

    Only the previous triple is held while the next one is made, and one
    scratch array while the two are compared.
    """
    worst = 0.0
    gsups = []
    prev = None
    for t in ts:
        cur = make_triple(t)
        gsups.append(float(np.max(cur[1])))
        if prev is not None:
            scratch = np.empty_like(cur[0])
            step = sum(_sup_step(c, p, scratch) for c, p in zip(cur, prev))
            worst = max(worst, step)
            del scratch
        prev = cur
    return worst, gsups


def certify_log_path(
    delta: float,
    mesh: Optional[Sequence[float]] = None,
    fine_grid: int = FINE_GRID,
) -> CertificationReport:
    """Certify the two-stage homotopy from the bump triple to the log triple.

    Stage 1 straightens f toward +-1 outside the bump window while g shrinks
    to keep f^2 + g^2 = 1 there; h does not move, so its etas are certified
    once and only the sup of g varies along the stage.  Stage 2 interpolates
    the clamped f to x/pi with h = sqrt(1 - f^2) and g = 0.  Every mesh point
    must give a squared-deviation bound below CERTIFY_THRESHOLD, and
    consecutive triples must obey the step rule (step sums at most
    STEP_BUDGET), or the mesh is rejected.  The default mesh is the stored
    one: 17 Chebyshev-Lobatto points.

    Each eta is certified from one stored coefficient vector
    (``log_certificate``) with one transform, and no LP is solved.  A fixed
    vector's eta is affine in delta and valid at every delta, so the vectors
    searched at 1/8 certify any delta.  A mesh point off the stored mesh takes
    the vectors of its nearest stored point: a valid bound, looser than a
    search would give.  Each residual is measured on ``fine_grid`` + 1
    samples of the half period.

    Returns the report on success and raises CertificationFailed (with the
    report attached) when any bound reaches the threshold.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    from .log_certificate import APPROXIMANTS

    stored_mesh = sorted({key[0] for key in APPROXIMANTS if isinstance(key, tuple)})

    def approximant(key, parity, certified):
        if isinstance(key, tuple):
            t, name = key
            key = (min(stored_mesh, key=lambda s: abs(s - t)), name)
        return APPROXIMANTS[key]

    if mesh is None:
        mesh = stored_mesh
    return _certify(delta, mesh, fine_grid, approximant)


def _certify(delta, mesh, fine_grid, approximant):
    """``certify_log_path`` with the source of the coefficients given.

    ``approximant(key, parity, certified)`` returns the coefficient vector of
    one eta.  The key is "h1", "h1sq" or "q1" in stage 1, and (t, "h"),
    (t, "hsq") or (t, "q") at stage-2 mesh point t.  Even parity takes
    cosine coefficients c_0, c_1, ..., odd parity sine coefficients
    c_1, c_2, ....  ``certified(coeffs)`` returns the eta a vector certifies
    and the fine-grid residual it was measured on; the vector returned is
    certified by the same function.
    """
    ts = np.asarray(sorted(float(t) for t in mesh))
    # a NaN would pass the step rule, since max ignores it
    if not np.all(np.isfinite(ts)):
        raise MeshViolation("mesh points must be finite")
    if len(ts) < 2 or abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
        raise MeshViolation("mesh must run from 0 to 1")

    x = np.linspace(0.0, np.pi, fine_grid + 1)
    spacing = np.pi / fine_grid
    f_std = eval_f(x)
    h_std = eval_h(x)
    outside = x > np.pi / 2
    f_clamped = _clamped_f(x)

    def triple1(s):
        return _stage1_triple(s, x, f_std, h_std, outside)

    def triple2(t):
        return _stage2_triple(t, x, f_clamped)

    step1, gnorms = _step_sums(ts, triple1)
    step2, _ = _step_sums(ts, triple2)
    if max(step1, step2) > STEP_BUDGET:
        raise MeshViolation(
            f"mesh step sum {max(step1, step2):.4f} exceeds budget "
            f"{STEP_BUDGET:.4f}"
        )
    del triple1, outside

    def eta(key, vals, parity, dev_fn):
        """One eta: its residual is formed in the buffer its series was
        evaluated in."""

        def certified(coeffs):
            coeffs = np.asarray(coeffs, dtype=float)
            ks = np.arange(len(coeffs)) + (parity == "odd")
            if ks[-1] >= fine_grid:
                raise ValueError(
                    f"degree {ks[-1]} must stay below fine_grid {fine_grid}: "
                    "a grid of fine_grid + 1 points aliases it"
                )
            resid = _eval_half_series(coeffs, parity, fine_grid)
            np.subtract(vals, resid, out=resid)
            m = float(np.sum(ks * np.abs(coeffs)))
            diam = float(resid.max() - resid.min())
            return m * delta + diam + 2 * (dev_fn + m * spacing / 2), resid

        return certified(approximant(key, parity, certified))[0]

    # stage 1: h, h^2 and q = f h are constant along the stage
    eta_h1 = eta("h1", h_std, "even", H_LIPSCHITZ * spacing / 2)
    # the samples of f h and h^2 overwrite those of f and h
    np.multiply(f_std, h_std, out=f_std)
    np.square(h_std, out=h_std)
    eta_h1sq = eta("h1sq", h_std, "even", _HSQ_LIPSCHITZ * spacing / 2)
    eta_q1 = eta("q1", f_std, "odd", _Q_LIPSCHITZ * spacing / 2)
    del f_std, h_std
    stage1_bounds = np.asarray([
        (gnorm + 1) * eta_h1 + 0.25 * eta_h1**2 + 0.5 * eta_h1sq + eta_q1
        for gnorm in gnorms
    ])

    # stage 2: its own approximants at every mesh point
    stage2_bounds = []
    for t in ts:
        ft, _, ht = triple2(t)
        lf_t = (1 - t) * F_LIPSCHITZ + t / np.pi
        l2_t = 2 * lf_t
        dev_sqrt = float(np.sqrt(l2_t * spacing / 2))
        eta_h = eta((float(t), "h"), ht, "even", dev_sqrt)
        # the samples of f_t h_t and 1 - f_t^2 overwrite those of h_t and f_t
        np.multiply(ft, ht, out=ht)
        np.square(ft, out=ft)
        np.subtract(1, ft, out=ft)
        eta_hsq = eta((float(t), "hsq"), ft, "even", l2_t * spacing / 2)
        eta_q = eta((float(t), "q"), ht, "odd", dev_sqrt + lf_t * spacing / 2)
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
