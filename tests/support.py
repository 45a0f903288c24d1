"""Shared matrix generators and oracles for the test suite.

These are deliberately independent of the generators module so that tests of
that module have something to check against.  The oracles integrate the
cosine coefficients of h by quadrature, derive the eta envelope rows from
the triple's trigonometric approximants, sum a half-range series by one
full-grid transform, evaluate functions at a unitary by its Schur form or by
Horner accumulation, take the commutator's norm, wind det(W^t) along the
path t -> W^t, take the principal logarithm, check Kramers pairing,
take the block dual K X^T K, assemble B in the standard basis and take
Pfaffians of general complex skew matrices by Householder congruences and by
pivoted LTL^T elimination; the library's request paths use none of them.
``fresh_process`` runs a snippet in a new interpreter, for the tests of
what a cold process imports, and ``Factorizations`` counts the dense
factorizations a call makes, with the BLAS thread counts each one ran on.
"""

import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import acbott
from acbott.bott import (
    _BUMP_PREFACTOR,
    F_AMPLITUDES,
    BottMatrix,
    eval_f,
    eval_h,
    standard_triple,
)
from acbott.bounds import BoundLine
from acbott.config import DEFAULT_TOL, F_LIPSCHITZ, H_LIPSCHITZ
from acbott.errors import (
    AlmostCommutingError,
    InvalidMatrix,
    NotAntiSelfDual,
    NotHermitian,
    NotSelfDual,
    NumericalInconsistency,
)
from acbott.linalg import (
    _check_unitary,
    _openblas_apis,
    _schur_angles,
    as_matrix,
    gate_norm,
    gate_relative,
    operator_norm,
    require_same_dim,
)
from acbott.selfdual import _reversed_transpose, dual
from acbott.winding import _require_gate


def fresh_process(code: str, *args: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this checkout's acbott."""
    src = str(Path(acbott.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# (module, function) of every route the package could take to a spectrum: the
# Schur form, general eigenvalues, hermitian eigenvalues with or without
# vectors, and the self-dual route's real Hessenberg reduction and
# tridiagonal spectrum
FACTORIZATIONS = (
    ("scipy.linalg", "schur"),
    ("scipy.linalg.lapack", "dgehrd"),
    ("scipy.linalg.lapack", "dsterf"),
    ("scipy.linalg", "eigvals"),
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
)


def openblas_threads() -> dict:
    """{library file: thread count} of every OpenBLAS mapped into the
    process now, read afresh from /proc/self/maps."""
    return {os.path.basename(p): get() for p, (_, get) in _openblas_apis().items()}


class Factorizations(Counter):
    """Calls counted by function name; ``threads`` holds, for each call in
    order, the name and the :func:`openblas_threads` it ran on.
    ``clear()`` starts both again."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.threads = []

    def clear(self):
        super().clear()
        self.threads.clear()

    def counted(self, name, fn):
        def call(*args, **kwargs):
            self[name] += 1
            self.threads.append((name, openblas_threads()))
            return fn(*args, **kwargs)

        return call


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    ph = np.diag(R)
    return Q * (ph / np.abs(ph))


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (A + A.conj().T) / 2
    return scale * H / np.linalg.norm(H, 2)


def random_skew(d: int, rng: np.random.Generator, complex_entries: bool = True) -> np.ndarray:
    A = rng.standard_normal((d, d))
    if complex_entries:
        A = A + 1j * rng.standard_normal((d, d))
    return A - A.T


def shift_matrix(n: int) -> np.ndarray:
    U = np.zeros((n, n), dtype=complex)
    for j in range(n):
        U[(j + 1) % n, j] = 1.0
    return U


def pfaffian_cofactor(X: np.ndarray) -> complex:
    """Recursive first-row cofactor expansion; exponential, keep dim <= 10."""
    d = X.shape[0]
    if d % 2:
        raise ValueError("odd dimension")
    if d == 0:
        return 1.0 + 0.0j
    if d == 2:
        return complex(X[0, 1])
    total = 0.0 + 0.0j
    for j in range(1, d):
        keep = [k for k in range(d) if k not in (0, j)]
        minor = X[np.ix_(keep, keep)]
        total += (-1.0) ** (j + 1) * X[0, j] * pfaffian_cofactor(minor)
    return total


# ---------------------------------------------------------------------------
# The cosine coefficients of h by quadrature, the oracle of the stored table
# ---------------------------------------------------------------------------

# the binomial series behind the cosine coefficients of h stops at u^7, where
# its tail is below 1e-6
_SERIES_DEGREE = 7


class AccuracyNotCertified(UserWarning):
    """The series tail of ``fourier_coefficients_h`` exceeds 1e-6."""


def fourier_coefficients_h(max_n: int = 5) -> np.ndarray:
    """Cosine coefficients c_0..c_max_n of the bump function h, 0 <= max_n <= 16.

    Each c_n is computed as a truncated binomial series: the square root in
    the closed form is expanded in powers of u(x) = (96 cos 2x + 9 cos 4x)/407
    up to u^7 and every term is integrated by adaptive quadrature.  The
    truncation tail is certified below 1e-6 (checked, and warned about
    otherwise).
    """
    from scipy.integrate import quad
    from scipy.special import binom

    if not 0 <= max_n <= 16:
        raise ValueError(f"coefficient index capped at 16 and nonnegative, got {max_n}")

    def u(x):
        return (96 * np.cos(2 * x) + 9 * np.cos(4 * x)) / 407.0

    out = np.zeros(max_n + 1)
    for n in range(max_n + 1):
        total = 0.0
        for k in range(_SERIES_DEGREE + 1):
            w = binom(0.5, k)
            val, _ = quad(
                lambda t, n=n, k=k: np.cos(t) ** 3 * u(t) ** k * np.cos(n * t),
                -np.pi / 2,
                np.pi / 2,
                epsabs=1e-9,
                limit=200,
            )
            total += w * val
        out[n] = _BUMP_PREFACTOR * total / (2 * np.pi)

    # worst-case series remainder sits at u = -105/407
    r = 105.0 / 407.0
    partial = sum(binom(0.5, k) * (-r) ** k for k in range(_SERIES_DEGREE + 1))
    tail = abs(np.sqrt(1 - r) - partial) * _BUMP_PREFACTOR * (4.0 / 3.0) / (2 * np.pi)
    if tail > 1e-6:
        warnings.warn(
            f"series tail bound {tail:.2e} exceeds 1e-6", AccuracyNotCertified
        )
    return out


# ---------------------------------------------------------------------------
# Trigonometric polynomials and the eta envelope rows, the oracle of the rows
# stored in acbott.bounds
# ---------------------------------------------------------------------------

# Envelope offsets are measured on a uniform grid of ENVELOPE_GRID spacings
# over one period; the between-sample error is folded into the offset using
# the Lipschitz budgets of acbott.config.
ENVELOPE_GRID = 2 ** 20

# published reference rows (m, b); no recomputed row may drift above one
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


@dataclass(frozen=True)
class TrigPoly:
    """Finite Fourier series  sum_{k=-n..n} a_k e^{ikx}.

    ``coeffs[k + degree]`` holds a_k.  Real-valued series satisfy
    a_{-k} = conj(a_k).
    """

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.degree + 1,):
            raise InvalidMatrix(
                f"need {2 * self.degree + 1} coefficients for degree {self.degree}"
            )
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_sin_series(cls, amplitudes) -> "TrigPoly":
        """Build sum_k amplitudes[k-1] * sin(kx)."""
        amps = np.asarray(amplitudes, dtype=float)
        n = len(amps)
        c = np.zeros(2 * n + 1, dtype=complex)
        for k, a in enumerate(amps, start=1):
            c[n + k] = a / 2j
            c[n - k] = -a / 2j
        return cls(n, c)

    @classmethod
    def from_cos_series(cls, a0: float, amplitudes) -> "TrigPoly":
        """Build a0 + sum_k amplitudes[k-1] * cos(kx)."""
        amps = np.asarray(amplitudes, dtype=float)
        n = len(amps)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = a0
        for k, a in enumerate(amps, start=1):
            c[n + k] = a / 2
            c[n - k] = a / 2
        return cls(n, c)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.degree:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.degree])

    def partial_sums(self, x):
        """Yield the values at x of the truncations at degree 0, 1, ..., degree.

        One array is updated in place from each value to the next, so a
        caller that keeps a value past the next step must copy it.
        """
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.coeffs[self.degree], dtype=complex)
        yield out
        for k in range(1, self.degree + 1):
            e = np.exp(1j * k * x)
            out += self.coeffs[self.degree + k] * e
            out += self.coeffs[self.degree - k] * np.conj(e)
            yield out

    def __call__(self, x):
        for out in self.partial_sums(x):
            pass
        return out

    def real_values(self, x) -> np.ndarray:
        """Evaluate a real-valued series, returning float values."""
        return np.real(self(x))

    def is_real_valued(self) -> bool:
        """a_{-k} = conj(a_k) for every k, to 1e-12."""
        flipped = np.conj(self.coeffs[::-1])
        return bool(np.max(np.abs(self.coeffs - flipped)) <= 1e-12)

    def derivative_l1(self) -> float:
        """sum |k a_k|, the slope constant attached to this polynomial."""
        ks = np.arange(-self.degree, self.degree + 1)
        return float(np.sum(np.abs(ks * self.coeffs)))


def _degree5_approximants():
    c = standard_triple().coefficients16[:6]
    f5 = TrigPoly.from_sin_series(F_AMPLITUDES)
    h5 = TrigPoly.from_cos_series(c[0], [2 * c[k] for k in range(1, 6)])
    # g is h shifted by pi, so its cosine coefficients alternate in sign
    b = [(-1.0) ** k * c[k] for k in range(6)]
    g5 = TrigPoly.from_cos_series(b[0], [2 * b[k] for k in range(1, 6)])
    return f5, g5, h5


# the degree-5 trigonometric approximants of the triple (f, g, h)
f5, g5, h5 = _degree5_approximants()


def eta_lines(fn, series, degrees, fn_lipschitz):
    """Bound lines for fn against the truncations of a real series.

    fn is evaluated once on a uniform grid and one running partial sum of
    ``series`` is walked.  At each requested degree n, in ascending order,
    the slope is the derivative mass of the degree-n truncation and the
    offset is the grid diameter of fn minus that truncation plus a certified
    budget for what the grid can miss: max and min can each be off by the
    deviation over half a spacing, bounded by fn_lipschitz plus the slope.
    """
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


def _drift_gate(rows, reference, label):
    for row, (m_ref, b_ref) in zip(rows, reference):
        assert row.m <= m_ref + 1e-3 and row.b <= b_ref + 1e-3, (
            f"{label} row recomputed as ({row.m:.6f}, {row.b:.6f}) "
            f"drifts above reference ({m_ref}, {b_ref})"
        )


def _eta_f_rows():
    """The rows of ``bounds.eta_envelope_f``, with every check on them."""
    rows = list(eta_lines(eval_f, f5, (0, 1, 3), F_LIPSCHITZ))
    xs = np.linspace(-np.pi, np.pi, 4097)
    deviation = float(np.max(np.abs(eval_f(xs) - f5.real_values(xs))))
    assert deviation <= 1e-12, f"degree-5 polynomial misses f by {deviation:.3e}"
    rows.append(BoundLine(f5.derivative_l1(), 0.0))
    _drift_gate(rows, _REFERENCE_F, "eta_f")
    return tuple(rows)


def _eta_h_rows():
    """The rows of ``bounds.eta_envelope_h``, with every check on them.

    The slope-only row is the reference's, cross checked against the partial
    Fourier masses of c_0..c_16, which may never exceed it.
    """
    rows = list(eta_lines(eval_h, h5, range(6), H_LIPSCHITZ))
    c16 = standard_triple().coefficients16
    mass = 2 * float(np.sum(np.arange(17) * np.abs(c16)))
    assert mass <= _HPRIME_MASS_CAP, (
        f"partial derivative mass {mass:.6f} exceeds cap {_HPRIME_MASS_CAP}"
    )
    rows.append(BoundLine(_REFERENCE_H[-1][0], 0.0, provenance="stored"))
    _drift_gate(rows, _REFERENCE_H, "eta_h")
    return tuple(rows)


def half_series_one_transform(coeffs, parity, n):
    """``bounds._eval_half_series`` as one DCT-I of n + 1 points (odd parity:
    one DST-I on the n - 1 interior ones) of a fresh zero-padded copy of the
    coefficients, k >= 1 halved."""
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


# ---------------------------------------------------------------------------
# The commutator's norm and the determinant-path winding
# ---------------------------------------------------------------------------


class MeshTooCoarse(AlmostCommutingError):
    """Path discretization too coarse to unwrap phases reliably."""


def commutator_norm(U, V) -> float:
    """Operator norm of the commutator UV - VU."""
    A, B = as_matrix(U), as_matrix(V)
    require_same_dim(A, B)
    return operator_norm(A @ B - B @ A)


def winding_via_path(pair) -> int:
    """Winding of t -> det(W^t) by stepwise phase unwrapping.

    Determinants are computed by LU factorization at each step, and W gets
    its own factorization here, not the pair's cached one, so the only
    shared ingredient with ``winding.winding_number`` is the matrix W itself.
    arg det(W^t) moves at rate |sum theta| <= dim * pi, so the path starts
    at the smallest power of two >= 2 dim steps, each within pi/2; the steps
    double until every per-step phase change is below pi/2.  The W^t of up
    to 64 steps are formed as one stack (at most about 8 MB) and go to one
    batched determinant call.
    """
    _require_gate(pair.delta)
    steps = 1 << (2 * pair.dim - 1).bit_length()
    angles, Q = _schur_angles(pair.multiplicative_commutator())
    Qstar = Q.conj().T
    chunk = max(1, min(64, 2**19 // Q.size))
    for _ in range(8):
        ts = np.linspace(0.0, 1.0, steps + 1)
        args = np.empty(steps + 1)
        for i in range(0, steps + 1, chunk):
            phases = np.exp(1j * np.outer(ts[i : i + chunk], angles))
            # the rows of the stacked Q diag(e^{it theta}) times Q*: one product
            Wt = Q * phases[:, None, :]
            Wt = (Wt.reshape(-1, Q.shape[0]) @ Qstar).reshape(Wt.shape)
            args[i : i + chunk] = np.angle(np.linalg.det(Wt))
        jumps = np.angle(np.exp(1j * np.diff(args)))  # wrapped to (-pi, pi]
        if np.max(np.abs(jumps)) < np.pi / 2:
            total = float(np.sum(jumps))
            return int(round(total / (2 * np.pi)))
        steps *= 2
    raise MeshTooCoarse("phase steps stayed >= pi/2 after repeated refinement")


# ---------------------------------------------------------------------------
# Functions of a unitary by the Schur and Horner routes, the principal
# logarithm and the Kramers-pairing check
# ---------------------------------------------------------------------------


def unitary_eig(V):
    """Diagonalize a unitary matrix.

    Returns ``(angles, Q)`` with ``V = Q diag(exp(i*angles)) Q*``, by the
    library's Schur route and its branch rule: angles in (-pi, pi], an
    eigenvalue numerically at -1 maps to +pi.  V must pass the unitarity gate.
    """
    A = as_matrix(V)
    _check_unitary(A)
    return _schur_angles(A)


def apply_periodic(fn, V) -> np.ndarray:
    """Apply a 2pi-periodic scalar function to the eigenangles of unitary V."""
    angles, Q = unitary_eig(V)
    vals = np.asarray(fn(angles), dtype=complex)
    return (Q * vals) @ Q.conj().T


def apply_trigpoly(p, V) -> np.ndarray:
    """Evaluate a trigonometric polynomial at a unitary matrix.

    Horner accumulation in V for the nonnegative powers and in V* for the
    negative ones; no eigendecomposition involved, which makes this an
    independent route to the functional calculus.
    """
    A = as_matrix(V)
    _check_unitary(A)
    d = A.shape[0]
    n = p.degree
    I = np.eye(d, dtype=complex)
    pos = p.coeff(n) * I
    for k in range(n - 1, 0, -1):
        pos = pos @ A
        pos += p.coeff(k) * I
    pos = pos @ A if n >= 1 else np.zeros_like(I)
    Astar = A.conj().T
    neg = p.coeff(-n) * I
    for k in range(n - 1, 0, -1):
        neg = neg @ Astar
        neg += p.coeff(-k) * I
    neg = neg @ Astar if n >= 1 else np.zeros_like(I)
    return pos + neg + p.coeff(0) * I


@dataclass(frozen=True)
class PrincipalLog:
    """Hermitian K = Q diag(angles) Q* with e^{iK} = V, eigenvalues in [-pi, pi]."""

    K: np.ndarray
    branch_margin: float  # distance of the spectrum of V to -1
    angles: np.ndarray
    Q: np.ndarray


def principal_log(V) -> PrincipalLog:
    """Principal logarithm of a unitary: angles taken in (-pi, pi], -1 -> +pi."""
    angles, Q = unitary_eig(V)
    margin = float(np.min(np.abs(np.exp(1j * angles) + 1.0)))
    K = (Q * angles) @ Q.conj().T
    return PrincipalLog((K + K.conj().T) / 2, margin, angles, Q)


def check_kramers(H) -> bool:
    """True when the spectrum is doubly degenerate (Kramers pairing): each
    ascending pair of eigenvalues agrees to 1e-7 * max(1, max |eigenvalue|)."""
    H = as_matrix(H)
    limit = DEFAULT_TOL.hermitian * max(1.0, float(np.max(np.abs(H))))
    if gate_norm(H - H.conj().T, limit) > limit:
        raise NotHermitian("Kramers check needs a hermitian matrix")
    drift, failed = gate_relative(H - dual(H), H, 1e-7)
    if failed:
        raise NotSelfDual(f"self-duality violated by {drift:.3e}")
    # the hermiticity gate above, scaled by max |h_ij| <= ||H||, is stricter
    # than bott.signature's, which is therefore not run again
    eigs = np.linalg.eigvalsh(H)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    gaps = eigs[1::2] - eigs[0::2]
    return bool(np.all(np.abs(gaps) <= 1e-7 * scale))


def standard_basis_B(fV, gV, hV, U) -> np.ndarray:
    """B from the triple's values at V, assembled in the standard basis.

    Diagonal blocks +-(fV + fV*)/2, lower corner gV + (hV U + U hV)/2 and
    upper corner its adjoint; written here so that the oracles share no
    assembly code with the library.
    """
    F = (fV + fV.conj().T) / 2
    lower = gV + (hV @ U + U @ hV) / 2
    return np.block([[F, lower.conj().T], [lower, -F]])


def horner_B(pair) -> BottMatrix:
    """B(U, V) from the degree-5 approximants f5, g5, h5 of the triple.

    Each is evaluated at V by Horner accumulation (``apply_trigpoly``), with
    no eigendecomposition, and assembled by ``standard_basis_B``, so this is
    a route to B independent of ``build_B``'s eigenbasis assembly.
    """
    fV, gV, hV = (apply_trigpoly(p, pair.V) for p in (f5, g5, h5))
    return BottMatrix.of(standard_basis_B(fV, gV, hV, pair.U))


def standard_form(N: int) -> np.ndarray:
    """Dense Z = ((0, I), (-I, 0)) of dimension 2N, the form behind X^# = -Z X^T Z."""
    eye = np.eye(N)
    zero = np.zeros((N, N))
    return np.block([[zero, eye], [-eye, zero]]).astype(complex)


# ---------------------------------------------------------------------------
# Pfaffians of general complex skew matrices, the oracles of the real route
# ---------------------------------------------------------------------------


class OddDimension(AlmostCommutingError):
    """Pfaffian requested for an odd-dimensional matrix."""


class NotSkewSymmetric(AlmostCommutingError):
    """Matrix fails the skew-symmetry tolerance."""


def _check_skew(X) -> np.ndarray:
    dim = X.shape[0]
    if dim % 2 != 0:
        raise OddDimension(f"Pfaffian needs even dimension, got {dim}")
    limit = 1e-8 * max(1.0, float(np.max(np.abs(X))))
    drift = gate_norm(X + X.T, limit)
    if drift > limit:
        raise NotSkewSymmetric(f"skew-symmetry violated by {drift:.3e}")
    return (X - X.T) / 2


def _pfaffian_sign_log(X: np.ndarray):
    """(phase, log magnitude) of the Pfaffian of an exactly skew X.

    Householder congruences P X P^T reduce X to skew tridiagonal form; each
    reflector contributes det = -1 and the Pfaffian of the tridiagonal matrix
    is the product of its odd-position superdiagonal entries.
    """
    T = np.array(X, dtype=complex)
    n = T.shape[0]
    if n == 0:
        return 1.0 + 0j, 0.0
    det_p = 1.0
    for k in range(n - 2):
        col = T[k + 1 :, k]
        nrm = float(np.linalg.norm(col))
        # a zero column is already reduced; it only kills the Pfaffian if the
        # vanishing entry lands at an even superdiagonal position, which the
        # final product detects
        if nrm == 0.0 or float(np.linalg.norm(col[1:])) <= 1e-18 * nrm:
            continue
        # exp(i arg) instead of z/|z|: safe for subnormal entries
        phase = np.exp(1j * np.angle(col[0])) if col[0] != 0 else 1.0
        v = col.copy()
        v[0] += phase * nrm
        v /= np.linalg.norm(v)
        T[k + 1 :, :] -= 2.0 * np.outer(v, v.conj() @ T[k + 1 :, :])
        T[:, k + 1 :] -= 2.0 * np.outer(T[:, k + 1 :] @ v.conj(), v)
        det_p = -det_p
    phase_acc = complex(det_p)
    log_mag = 0.0
    for j in range(0, n - 1, 2):
        b = T[j, j + 1]
        a = abs(b)
        if a == 0.0:
            return 0j, -math.inf
        phase_acc *= np.exp(1j * np.angle(b))
        log_mag += math.log(a)
    return phase_acc, log_mag


def _pfaffian_parlett_reid(X: np.ndarray) -> complex:
    """Pivoted LTL^T elimination, kept as an independent cross-check."""
    T = np.array(X, dtype=complex)
    n = T.shape[0]
    sign = 1.0
    for k in range(n - 2):
        p = k + 1 + int(np.argmax(np.abs(T[k + 1 :, k])))
        if p != k + 1:
            T[[k + 1, p], :] = T[[p, k + 1], :]
            T[:, [k + 1, p]] = T[:, [p, k + 1]]
            sign = -sign
        piv = T[k + 1, k]
        if piv == 0:
            continue
        mu = T[k + 2 :, k] / piv
        T[k + 2 :, :] -= np.outer(mu, T[k + 1, :])
        T[:, k + 2 :] -= np.outer(T[:, k + 1], mu)
    out = complex(sign)
    for j in range(0, n - 1, 2):
        out *= T[j, j + 1]
    return out


def pfaffian(X) -> complex:
    """Pfaffian of a complex skew-symmetric matrix; Pf(X)^2 = det(X).

    Below dimension 65 the Householder value is cross-checked against the
    pivoted LTL^T elimination; disagreement raises NumericalInconsistency.
    """
    X = as_matrix(X)
    S = _check_skew(X)
    phase, log_mag = _pfaffian_sign_log(S)
    if log_mag == -math.inf:
        return 0j
    value = phase * math.exp(log_mag)
    # plain product overflows outside this window; skip the check there
    if S.shape[0] <= 64 and abs(log_mag) < 600.0:
        ref = _pfaffian_parlett_reid(S)
        scale = max(abs(value), abs(ref))
        if scale > 0.0 and abs(value - ref) > 1e-6 * scale:
            raise NumericalInconsistency(
                f"Pfaffian routes disagree: {value:.6e} vs {ref:.6e}"
            )
    return value


_K = np.array([-1.0, 1.0, 1.0, -1.0])  # K = ((0, -Z), (Z, 0)), symmetric


def dual_tensor(X) -> np.ndarray:
    """K X^T K, the blockwise dual ((A,B),(C,D)) -> ((D#,-B#),(-C#,A#)) at dim 4N."""
    return _reversed_transpose(X, _K)


def rotated(X) -> np.ndarray:
    """Q* X_a Q for the anti-self-dual part X_a of X, with Q = (I + iK)/sqrt(2)
    formed densely: the skew part of Q* X Q, since Q^T X^T conj(Q) = Q* X^# Q."""
    N = X.shape[0] // 4
    Z = standard_form(N)
    eye = np.eye(2 * N)
    Q = np.block([[eye, -1j * Z], [1j * Z, eye]]) / np.sqrt(2.0)
    S = Q.conj().T @ X @ Q
    return (S - S.T) / 2


def modified_pfaffian(X) -> complex:
    """Pf(Q* X Q) for anti-self-dual X; squares to det(X).

    X must have dimension 4N and ||X + X^#|| must stay within
    1e-7 * max(1, ||X||), the width of the library's anti-self-duality gate,
    here applied to a general X; the gate and the rotation are this
    module's own.
    """
    X = as_matrix(X)
    err, failed = gate_relative(X + dual_tensor(X), X, 1e-7)
    if failed:
        raise NotAntiSelfDual(f"anti-self-duality violated by {err:.3e}")
    phase, log_mag = _pfaffian_sign_log(rotated(X))
    if log_mag == -math.inf:
        return 0j
    return phase * math.exp(log_mag)
