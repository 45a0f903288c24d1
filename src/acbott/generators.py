"""Deterministic families of almost-commuting pairs.

The clock-and-shift pair is the canonical example with winding number -1 at
commutator norm 2 sin(pi/n); direct sums and swaps reach any integer index.
Randomized commuting pairs and unitarity-preserving perturbations exercise
the distance bounds.  All randomness flows through numpy's seeded Generator,
so equal parameters give bitwise-equal matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import UnitaryPair, make_pair, operator_norm
from .selfdual import SelfDualPair, _hermitian_part, make_selfdual_pair, selfdual_part


def cyclic_shift_pair(n: int) -> UnitaryPair:
    """Shift U and clock V = diag(e^{-2 pi i k / n}); omega = -1.

    V U V* U* = e^{-2 pi i / n} I, so delta = 2 sin(pi / n).
    """
    if n < 2:
        raise DimensionMismatch("cyclic pair needs n >= 2")
    U = np.zeros((n, n), dtype=complex)
    for j in range(n):
        U[(j + 1) % n, j] = 1.0
    phases = np.exp(-2j * np.pi * np.arange(1, n + 1) / n)
    V = np.diag(phases)
    return make_pair(U, V)


def _direct_sum(pairs) -> UnitaryPair:
    n = sum(p.dim for p in pairs)
    U = np.zeros((n, n), dtype=complex)
    V = np.zeros_like(U)
    i = 0
    for p in pairs:
        j = i + p.dim
        U[i:j, i:j] = p.U
        V[i:j, i:j] = p.V
        i = j
    return make_pair(U, V)


def powered_pair(n: int, k: int) -> UnitaryPair:
    """Direct sums of (possibly swapped) cyclic pairs with omega = k.

    The base pair carries -1; swapping U and V flips the sign; direct sums
    add.  delta stays 2 sin(pi / n) throughout.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    base = cyclic_shift_pair(n)
    if k < 0:
        block = base
    else:
        block = make_pair(base.V, base.U)
    return _direct_sum([block] * abs(k)) if abs(k) > 1 else block


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    ph = np.diag(R).copy()
    ph /= np.abs(ph)
    return Q * ph


def commuting_random(d: int, seed: int = 0) -> UnitaryPair:
    """Commuting pair sharing a random eigenvector frame."""
    if d < 1:
        raise DimensionMismatch("dimension must be positive")
    rng = np.random.default_rng(seed)
    W = _haar_unitary(d, rng)
    u = np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    v = np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    U = (W * u) @ W.conj().T
    V = (W * v) @ W.conj().T
    return make_pair(U, V)


def _random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (G + G.conj().T) / 2
    return H / operator_norm(H)


def _unit_rotation(H: np.ndarray, amount: float) -> np.ndarray:
    # e^{i amount H} for unit-norm hermitian H, unitary to machine precision
    lam, W = np.linalg.eigh(H)
    return (W * np.exp(1j * amount * lam)) @ W.conj().T


def perturb(pair: UnitaryPair, r: float, seed: int = 0) -> UnitaryPair:
    """Random unitary perturbation with ||U-U1|| + ||V-V1|| = r.

    Each factor moves by exactly r/2: right-multiplying by e^{iH} with
    ||H|| = 2 arcsin(r/4) changes a unitary by 2 sin(||H||/2) in norm.
    """
    if not 0 <= r < np.inf:
        raise ValueError(f"perturbation size must be finite and nonnegative, got {r!r}")
    if r == 0:
        return pair
    if r > 3.9:
        raise ValueError("perturbation size too large to realize")
    rng = np.random.default_rng(seed)
    amount = 2 * np.arcsin(r / 4)
    U1 = pair.U @ _unit_rotation(_random_hermitian(pair.dim, rng), amount)
    V1 = pair.V @ _unit_rotation(_random_hermitian(pair.dim, rng), amount)
    return make_pair(U1, V1)


def selfdual_doubling(pair: UnitaryPair) -> SelfDualPair:
    """(diag(U, U^T), diag(V, V^T)) is exactly self-dual."""
    d = pair.dim
    Ud = np.zeros((2 * d, 2 * d), dtype=complex)
    Vd = np.zeros_like(Ud)
    Ud[:d, :d] = pair.U
    Ud[d:, d:] = pair.U.T
    Vd[:d, :d] = pair.V
    Vd[d:, d:] = pair.V.T
    return make_selfdual_pair(Ud, Vd)


def _selfdual_hermitian(sd_dim: int, rng: np.random.Generator):
    G = rng.standard_normal((sd_dim, sd_dim)) + 1j * rng.standard_normal(
        (sd_dim, sd_dim)
    )
    H = selfdual_part(_hermitian_part(G))
    return H / operator_norm(H)


def perturb_selfdual(sd: SelfDualPair, r: float, seed: int = 0) -> SelfDualPair:
    """Perturbation staying inside the self-dual class.

    One-sided multiplication by e^{iH} breaks self-duality even for self-dual
    H, since the dual reverses products; the two-sided move
    e^{iH/2} U e^{iH/2} is self-dual whenever H is.  The rotation amount is
    tuned by a few secant steps so the realized distance matches r within 1%;
    a size the steps cannot reach raises ValueError.
    """
    if not 0 <= r < np.inf:
        raise ValueError(f"perturbation size must be finite and nonnegative, got {r!r}")
    if r == 0:
        return sd
    rng = np.random.default_rng(seed)
    dim = sd.dim
    HU = _selfdual_hermitian(dim, rng)
    HV = _selfdual_hermitian(dim, rng)

    def moved(M, H, amount):
        half = _unit_rotation(H, amount / 2)
        return half @ M @ half

    out = []
    for M, H in ((sd.U, HU), (sd.V, HV)):
        target = r / 2
        amount = 2 * np.arcsin(min(target / 4, 1.0))
        for _ in range(25):
            M1 = moved(M, H, amount)
            got = operator_norm(M - M1)
            if abs(got - target) <= 0.005 * target:
                break
            amount = min(amount * target / max(got, 1e-300), np.pi)
        else:
            raise ValueError(
                f"perturbation size {r} not realized: a factor moved by "
                f"{got:.6g}, not {target:.6g}"
            )
        out.append(M1)
    return make_selfdual_pair(out[0], out[1])


@dataclass(frozen=True)
class PairSpec:
    """Deterministic recipe for a pair; equal specs give identical matrices."""

    kind: str  # cyclic_shift | commuting_random | perturbed | direct_sum | selfdual_doubling
    n: int
    seed: int = 0
    noise: float = 0.0
    k: int = -1  # multiplicity/sign for direct_sum


# the optional PairSpec fields that each kind reads; every kind reads n
_READS = {
    "cyclic_shift": (),
    "commuting_random": ("seed",),
    "perturbed": ("seed", "noise"),
    "direct_sum": ("k",),
    "selfdual_doubling": ("seed", "noise"),
}


def build_pair(spec: PairSpec) -> UnitaryPair:
    """The pair ``spec`` describes.

    A field that the kind never reads must keep its default: ValueError,
    naming the kind and the field, is raised before any matrix is made.
    """
    reads = _READS.get(spec.kind)
    if reads is None:
        raise ValueError(f"unknown pair kind {spec.kind!r}")
    for name in ("seed", "noise", "k"):
        value = getattr(spec, name)
        if name not in reads and value != getattr(PairSpec, name):
            raise ValueError(f"kind {spec.kind} does not read {name}, got {name} = {value}")
    if spec.kind == "cyclic_shift":
        return cyclic_shift_pair(spec.n)
    if spec.kind == "commuting_random":
        return commuting_random(spec.n, spec.seed)
    if spec.kind == "perturbed":
        return perturb(cyclic_shift_pair(spec.n), spec.noise, spec.seed)
    if spec.kind == "direct_sum":
        return powered_pair(spec.n, spec.k)
    sd = selfdual_doubling(cyclic_shift_pair(spec.n))
    return perturb_selfdual(sd, spec.noise, spec.seed)

