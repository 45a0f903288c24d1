"""Pair generators: canonical families, perturbations, deterministic specs."""

import numpy as np
import pytest

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
from acbott.linalg import commutator_norm, operator_norm
from acbott.selfdual import SelfDualPair, dual
from acbott.winding import winding_number


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
