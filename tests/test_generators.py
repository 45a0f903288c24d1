"""Pair generators: canonical families, perturbations, deterministic specs."""

import numpy as np
import pytest

from acbott import generators
from acbott.errors import DimensionMismatch
from acbott.generators import (
    PairSpec,
    build_pair,
    commuting_random,
    cyclic_shift_pair,
    perturb,
    perturb_selfdual,
    powered_pair,
    selfdual_doubling,
)
from acbott.linalg import make_pair, operator_norm
from acbott.selfdual import SelfDualPair, dual
from acbott.winding import winding_number
from support import commutator_norm, fresh_process


def test_cyclic_pair_matrices():
    pair = cyclic_shift_pair(5)
    # shift convention: U e_j = e_{j+1}
    assert pair.U[1, 0] == 1.0
    assert pair.U[0, 4] == 1.0
    assert pair.V[0, 0] == pytest.approx(np.exp(-2j * np.pi / 5))
    assert pair.V[4, 4] == pytest.approx(1.0)
    assert pair.delta == pytest.approx(2 * np.sin(np.pi / 5), abs=1e-12)
    W = pair.V @ pair.U @ pair.V.conj().T @ pair.U.conj().T
    assert np.allclose(W, np.exp(-2j * np.pi / 5) * np.eye(5), atol=1e-12)


def test_cyclic_pair_needs_two_dimensions():
    with pytest.raises(DimensionMismatch):
        cyclic_shift_pair(1)


def test_commuting_random_needs_a_positive_dimension():
    with pytest.raises(DimensionMismatch, match="dimension must be positive"):
        commuting_random(0)


def test_powered_pair_windings():
    assert winding_number(powered_pair(31, -1)).omega == -1
    assert winding_number(powered_pair(31, 2)).omega == 2
    p = powered_pair(31, -3)
    assert p.dim == 93
    assert p.delta == pytest.approx(2 * np.sin(np.pi / 31), abs=1e-12)
    with pytest.raises(ValueError):
        powered_pair(31, 0)


def test_powered_pair_sign_via_swap():
    base = cyclic_shift_pair(8)
    swapped = powered_pair(8, 1)
    assert np.array_equal(swapped.U, base.V)
    assert np.array_equal(swapped.V, base.U)


def test_commuting_random_commutes():
    pair = commuting_random(12, seed=5)
    assert pair.delta <= 1e-12
    assert pair.delta == commutator_norm(pair.U, pair.V)


def test_commuting_random_deterministic():
    a = commuting_random(9, seed=2)
    b = commuting_random(9, seed=2)
    c = commuting_random(9, seed=3)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
    assert not np.array_equal(a.U, c.U)


def test_perturb_moves_each_factor_by_half():
    pair = cyclic_shift_pair(16)
    r = 0.3
    moved = perturb(pair, r, seed=7)
    assert operator_norm(pair.U - moved.U) == pytest.approx(r / 2, abs=1e-9)
    assert operator_norm(pair.V - moved.V) == pytest.approx(r / 2, abs=1e-9)


def test_perturb_edge_cases():
    pair = cyclic_shift_pair(6)
    assert perturb(pair, 0.0) is pair
    with pytest.raises(ValueError):
        perturb(pair, -0.1)
    with pytest.raises(ValueError):
        perturb(pair, 4.0)
    a = perturb(pair, 0.2, seed=1)
    b = perturb(pair, 0.2, seed=1)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)


@pytest.mark.parametrize("r", [np.inf, np.nan])
def test_perturbations_refuse_a_non_finite_size_before_any_matrix(monkeypatch, r):
    # inf once passed perturb_selfdual's secant test, since inf <= inf
    pair = cyclic_shift_pair(8)
    sd = selfdual_doubling(pair)

    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was made")

    for maker in ("_random_hermitian", "_selfdual_hermitian", "_unit_rotation"):
        monkeypatch.setattr(generators, maker, no_matrix)
    with pytest.raises(ValueError, match="must be finite"):
        perturb(pair, r)
    with pytest.raises(ValueError, match="must be finite"):
        perturb_selfdual(sd, r)
    with pytest.raises(ValueError, match="must be finite"):
        build_pair(PairSpec("selfdual_doubling", 8, noise=r))


@pytest.mark.parametrize("k", [-3, -2, 2, 3])
def test_direct_sum_is_block_diag_bit_for_bit(k):
    from scipy.linalg import block_diag

    base = cyclic_shift_pair(8)
    block = base if k < 0 else make_pair(base.V, base.U)
    summed = powered_pair(8, k)
    for got, part in ((summed.U, block.U), (summed.V, block.V)):
        expected = block_diag(*[part] * abs(k)).astype(complex)
        # the bytes, so that the sign of every zero counts
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


_DIRECT_SUM = """
import sys
from acbott.generators import PairSpec, build_pair

build_pair(PairSpec("direct_sum", 8, k=2))
print("scipy loaded:", sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_direct_sum_imports_no_scipy():
    assert fresh_process(_DIRECT_SUM).splitlines()[-1] == "scipy loaded: []"


def test_selfdual_doubling_blocks():
    base = cyclic_shift_pair(7)
    sd = selfdual_doubling(base)
    d = base.dim
    assert np.array_equal(sd.U[:d, :d], base.U)
    assert np.array_equal(sd.U[d:, d:], base.U.T)
    assert np.array_equal(sd.V[:d, :d], base.V)
    assert np.array_equal(sd.V[d:, d:], base.V.T)
    assert sd.delta == pytest.approx(base.delta, abs=1e-12)
    for M in (sd.U, sd.V):
        assert operator_norm(M - dual(M)) <= 1e-14


def test_perturb_selfdual_stays_selfdual_at_distance():
    sd = selfdual_doubling(cyclic_shift_pair(16))
    r = 0.1
    moved = perturb_selfdual(sd, r, seed=3)
    for before, after in ((sd.U, moved.U), (sd.V, moved.V)):
        got = operator_norm(before - after)
        assert abs(got - r / 2) <= 0.005 * (r / 2)
        assert operator_norm(after - dual(after)) <= 1e-9
    assert perturb_selfdual(sd, 0.0) is sd
    with pytest.raises(ValueError):
        perturb_selfdual(sd, -1.0)


def test_perturb_selfdual_factorizes_each_generator_once(monkeypatch):
    # at the benchmark's R = 0.004 each factor takes two secant steps, and
    # both rotate by the one eigh of the factor's generator
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    sd = selfdual_doubling(cyclic_shift_pair(56))
    monkeypatch.setattr(np.linalg, "eigh", counted)
    perturb_selfdual(sd, 0.004, seed=1)
    assert len(calls) == 2


def test_perturb_selfdual_refuses_a_distance_it_cannot_reach():
    # the secant steps stall at 3.3862 on this pair; 3.0 is still reached
    sd = selfdual_doubling(cyclic_shift_pair(8))
    moved = perturb_selfdual(sd, 3.0, seed=0)
    got = operator_norm(sd.U - moved.U) + operator_norm(sd.V - moved.V)
    assert abs(got - 3.0) <= 0.01 * 3.0
    with pytest.raises(ValueError, match="not realized"):
        perturb_selfdual(sd, 3.9, seed=0)


def test_build_pair_dispatch():
    cyc = build_pair(PairSpec("cyclic_shift", 9))
    assert cyc.delta == pytest.approx(2 * np.sin(np.pi / 9))
    com = build_pair(PairSpec("commuting_random", 6, seed=1))
    assert com.delta <= 1e-12
    per = build_pair(PairSpec("perturbed", 16, seed=4, noise=0.1))
    per2 = build_pair(PairSpec("perturbed", 16, seed=4, noise=0.1))
    assert np.array_equal(per.U, per2.U) and np.array_equal(per.V, per2.V)
    summed = build_pair(PairSpec("direct_sum", 31, k=2))
    assert summed.dim == 62
    sd = build_pair(PairSpec("selfdual_doubling", 8, seed=2, noise=0.05))
    assert isinstance(sd, SelfDualPair)
    with pytest.raises(ValueError):
        build_pair(PairSpec("unknown", 4))


_UNREAD = [
    ("cyclic_shift", "seed", 3),
    ("cyclic_shift", "noise", 0.5),
    ("cyclic_shift", "k", 4),
    ("commuting_random", "noise", 0.1),
    ("commuting_random", "k", 2),
    ("perturbed", "k", 2),
    ("direct_sum", "seed", 1),
    ("direct_sum", "noise", 0.1),
    ("selfdual_doubling", "k", 3),
]


@pytest.mark.parametrize("kind, name, value", _UNREAD)
def test_build_pair_rejects_a_field_its_kind_never_reads(monkeypatch, kind, name, value):
    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was made")

    for maker in ("cyclic_shift_pair", "commuting_random", "powered_pair"):
        monkeypatch.setattr(generators, maker, no_matrix)
    spec = PairSpec(kind, 8, **{name: value})
    with pytest.raises(ValueError, match=f"kind {kind} does not read {name}"):
        build_pair(spec)
