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
triples, optimal approximants are found by linear programming at each mesh
point and the resulting bound must stay below the certification threshold.

The envelope rows and the cosine coefficients of h are fixed constants of the
construction, so they are stored as exact float literals and a process only
reads them.  ``_eta_f_rows`` and ``_eta_h_rows`` re-derive the rows on the
offset grid together with the degree-5 reproduction check, the c_0..c_16
mass cap and the drift gates against the published rows; the test suite runs
them and requires the stored rows to match bit for bit.  scipy.optimize and
scipy.fft are imported by the certification on first use only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bott import F_AMPLITUDES, eval_f, eval_h, standard_triple
from .config import (
    DEFAULT_CERTIFY,
    ENVELOPE_GRID,
    F_LIPSCHITZ,
    H_LIPSCHITZ,
    CertifyConfig,
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

    Only the certification solves LPs, so nothing else pays for importing
    scipy.optimize.  This stays a module attribute, where the benchmark's
    tracer finds it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _lp_line(vals, xs, parity, degree, delta):
    """Best (m, diam) line at given delta: minimize delta * m + diam by LP.

    Variables are the half-range basis coefficients, their absolute-value
    majorants, and the residual's upper/lower envelope levels.
    """
    if parity == "even":
        ks = np.arange(degree + 1)
        basis = np.cos(np.outer(xs, ks))
    else:
        ks = np.arange(1, degree + 1)
        basis = np.sin(np.outer(xs, ks))
    nc = len(ks)
    npt = len(xs)
    cost = np.concatenate([np.zeros(nc), delta * ks, [1.0, -1.0]])
    A = np.vstack(
        [
            np.hstack([-basis, np.zeros((npt, nc)), -np.ones((npt, 1)), np.zeros((npt, 1))]),
            np.hstack([basis, np.zeros((npt, nc)), np.zeros((npt, 1)), np.ones((npt, 1))]),
            np.hstack([np.eye(nc), -np.eye(nc), np.zeros((nc, 2))]),
            np.hstack([-np.eye(nc), -np.eye(nc), np.zeros((nc, 2))]),
        ]
    )
    rhs = np.concatenate([-vals, vals, np.zeros(2 * nc)])
    var_bounds = [(None, None)] * nc + [(0, None)] * nc + [(None, None)] * 2
    res = linprog(cost, A_ub=A, b_ub=rhs, bounds=var_bounds, method="highs")
    if not res.success:
        raise NumericalInconsistency(f"approximant LP failed: {res.message}")
    return res.x[:nc], ks


def _eval_half_series(coeffs, parity, n):
    """Half-range series on the uniform grid x_j = j pi / n, j = 0..n.

    Even parity sums c_k cos(k x) over k = 0..len(coeffs)-1 as one DCT-I of
    the zero-padded coefficients (k >= 1 halved, since the transform doubles
    interior terms); odd parity sums c_k sin(k x) over k = 1..len(coeffs) as
    one DST-I on the n - 1 interior points, and both endpoints are exactly 0.
    The grid has n + 1 points and must resolve every degree: the largest k
    must stay below n, or the transform aliases it onto a lower one.
    """
    from scipy.fft import dct, dst

    coeffs = np.asarray(coeffs, dtype=float)
    if parity == "even":
        padded = np.zeros(n + 1)
        padded[: len(coeffs)] = coeffs
        padded[1:] /= 2
        return dct(padded, type=1)
    padded = np.zeros(n - 1)
    padded[: len(coeffs)] = coeffs / 2
    out = np.zeros(n + 1)
    out[1:-1] = dst(padded, type=1)
    return out


def _eta_opt(fn, fine_x, fine_vals, spacing, parity, delta, dev_fn, cfg):
    """Optimal eta value for one path function at one delta.

    Solves the LP on a cosine-clustered coarse set, then re-solves with the
    fine-grid residual extrema adjoined (a cheap exchange step) and keeps the
    best certified value.
    """
    theta = np.linspace(0.0, np.pi, cfg.coarse_points)
    xs = (np.pi / 2) * (1 - np.cos(theta))
    vs = np.asarray(fn(xs), dtype=float)

    def certified(coeffs, ks):
        resid = fine_vals - _eval_half_series(coeffs, parity, cfg.fine_grid)
        m = float(np.sum(ks * np.abs(coeffs)))
        diam = float(resid.max() - resid.min())
        eta = m * delta + diam + 2 * (dev_fn + m * spacing / 2)
        return eta, resid

    coeffs, ks = _lp_line(vs, xs, parity, cfg.max_degree, delta)
    best, resid = certified(coeffs, ks)
    for _ in range(cfg.exchange_rounds):
        d = np.sign(np.diff(resid))
        ex = np.where(d[:-1] * d[1:] < 0)[0] + 1
        if len(ex) == 0:
            break
        mid = (resid.max() + resid.min()) / 2
        take = ex[np.argsort(-np.abs(resid[ex] - mid))[:64]]
        xs = np.unique(np.concatenate([xs, fine_x[take], [0.0, np.pi]]))
        coeffs, ks = _lp_line(
            np.asarray(fn(xs), dtype=float), xs, parity, cfg.max_degree, delta
        )
        eta, resid = certified(coeffs, ks)
        if eta < best:
            best = eta
    return best


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
    return ft, np.zeros_like(ft), ht


def _step_sums(ts, make_triple):
    worst = 0.0
    prev = None
    for t in ts:
        cur = make_triple(t)
        if prev is not None:
            worst = max(
                worst,
                sum(float(np.max(np.abs(c - p))) for c, p in zip(cur, prev)),
            )
        prev = cur
    return worst


def certify_log_path(
    delta: float,
    mesh: Optional[Sequence[float]] = None,
    config: CertifyConfig = DEFAULT_CERTIFY,
) -> CertificationReport:
    """Certify the two-stage homotopy from the bump triple to the log triple.

    Stage 1 straightens f toward +-1 outside the bump window while g shrinks
    to keep f^2 + g^2 = 1 there; h does not move, so its approximants are
    computed once and only the sup of g varies along the stage.  Stage 2
    interpolates the clamped f to x/pi with h = sqrt(1 - f^2) and g = 0.
    Every mesh point must give a squared-deviation bound below the threshold
    and consecutive triples must obey the step rule; a user-supplied mesh
    that breaks the step rule is rejected, the default mesh refines itself.

    Returns the report on success and raises CertificationFailed (with the
    report attached) when any bound reaches the threshold.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if config.max_degree >= config.fine_grid:
        raise ValueError(
            f"max_degree {config.max_degree} must stay below fine_grid "
            f"{config.fine_grid}: a grid of fine_grid + 1 points aliases it"
        )
    auto = mesh is None
    ts = (
        np.linspace(0.0, 1.0, config.mesh_per_stage)
        if auto
        else np.asarray(sorted(float(t) for t in mesh))
    )
    if len(ts) < 2 or abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
        raise MeshViolation("mesh must run from 0 to 1")

    n_fine = config.fine_grid
    x = np.linspace(0.0, np.pi, n_fine + 1)
    spacing = np.pi / n_fine
    f_std = eval_f(x)
    h_std = eval_h(x)
    outside = x > np.pi / 2
    f_clamped = _clamped_f(x)

    def triple1(s):
        return _stage1_triple(s, x, f_std, h_std, outside)

    def triple2(t):
        return _stage2_triple(t, x, f_clamped)

    while True:
        step1 = _step_sums(ts, triple1)
        step2 = _step_sums(ts, triple2)
        if max(step1, step2) <= config.step_budget:
            break
        if not auto:
            raise MeshViolation(
                f"mesh step sum {max(step1, step2):.4f} exceeds budget "
                f"{config.step_budget:.4f}"
            )
        ts = np.linspace(0.0, 1.0, 2 * len(ts) - 1)

    # stage 1: h, h^2 and q = f h are constant along the stage
    def h1_fn(u):
        return eval_h(u)

    def h1sq_fn(u):
        return eval_h(u) ** 2

    def q1_fn(u):
        return eval_f(u) * eval_h(u)

    eta_h1 = _eta_opt(
        h1_fn, x, h_std, spacing, "even", delta, H_LIPSCHITZ * spacing / 2, config
    )
    eta_h1sq = _eta_opt(
        h1sq_fn, x, h_std**2, spacing, "even", delta,
        _HSQ_LIPSCHITZ * spacing / 2, config,
    )
    eta_q1 = _eta_opt(
        q1_fn, x, f_std * h_std, spacing, "odd", delta,
        _Q_LIPSCHITZ * spacing / 2, config,
    )
    stage1_bounds = []
    for s in ts:
        gnorm = float(triple1(s)[1].max())
        stage1_bounds.append(
            (gnorm + 1) * eta_h1 + 0.25 * eta_h1**2 + 0.5 * eta_h1sq + eta_q1
        )
    stage1_bounds = np.asarray(stage1_bounds)

    # stage 2: fresh approximants at every mesh point
    stage2_bounds = []
    for t in ts:
        ft, _, ht = triple2(t)

        def f_fn(u, t=t):
            return (1 - t) * _clamped_f(u) + t * u / np.pi

        def h_fn(u, t=t):
            return np.sqrt(np.maximum(1 - f_fn(u) ** 2, 0.0))

        def hsq_fn(u, t=t):
            return 1 - f_fn(u) ** 2

        def q_fn(u, t=t):
            return f_fn(u) * h_fn(u)

        lf_t = (1 - t) * F_LIPSCHITZ + t / np.pi
        l2_t = 2 * lf_t
        dev_sqrt = float(np.sqrt(l2_t * spacing / 2))
        eta_h = _eta_opt(h_fn, x, ht, spacing, "even", delta, dev_sqrt, config)
        eta_hsq = _eta_opt(
            hsq_fn, x, 1 - ft**2, spacing, "even", delta,
            l2_t * spacing / 2, config,
        )
        eta_q = _eta_opt(
            q_fn, x, ft * ht, spacing, "odd", delta,
            dev_sqrt + lf_t * spacing / 2, config,
        )
        stage2_bounds.append(eta_h + 0.25 * eta_h**2 + 0.5 * eta_hsq + eta_q)
    stage2_bounds = np.asarray(stage2_bounds)

    max_bound = float(max(stage1_bounds.max(), stage2_bounds.max()))
    passed = max_bound < config.threshold
    report = CertificationReport(
        delta=float(delta),
        threshold=config.threshold,
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
            f"bound reaches {max_bound:.6f} >= {config.threshold} "
            f"at delta = {delta}",
            report=report,
        )
    return report
