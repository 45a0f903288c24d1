"""Winding invariant: both computation routes plus the distance bounds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import block_diag

from acbott.errors import InvariantUndefined, NoObstruction
from acbott.generators import commuting_random, cyclic_shift_pair, powered_pair
from acbott.linalg import make_pair
from acbott.winding import (
    distance_bound_commuting,
    distance_bound_index_change,
    winding_number,
    winding_via_path,
)
from support import haar_unitary


# at n = 100 winding_via_path stacks 52 path steps per determinant call
@pytest.mark.parametrize("n", [3, 8, 31, 64, 100])
def test_cyclic_family_is_minus_one(n):
    pair = cyclic_shift_pair(n)
    res = winding_number(pair)
    assert res.omega == -1
    assert abs(res.raw - (-1.0)) < 1e-9
    assert res.min_angle_gap_at_pi > 0.5
    assert winding_via_path(pair) == -1
    # delta of this family is |exp(-2 pi i / n) - 1|
    assert res.delta == pytest.approx(2 * np.sin(np.pi / n), abs=1e-12)


@pytest.mark.parametrize("k", [-3, -1, 1, 2, 3])
def test_powered_pairs_wind_k_times(k):
    pair = powered_pair(16, k)
    assert winding_number(pair).omega == k
    assert winding_via_path(pair) == k


def test_commuting_pair_has_zero_winding(rng):
    pair = commuting_random(12, seed=4)
    assert winding_number(pair).omega == 0
    assert winding_via_path(pair) == 0
    with pytest.raises(NoObstruction):
        distance_bound_commuting(pair)


def test_direct_sum_adds_invariants():
    a = cyclic_shift_pair(31)
    pair = make_pair(block_diag(a.U, a.U), block_diag(a.V, a.V))
    assert winding_number(pair).omega == -2
    assert winding_via_path(pair) == -2


def test_distance_bound_to_commuting_value():
    pair = cyclic_shift_pair(31)
    expected = 1.0 + np.sqrt(1.0 - pair.delta**2 / 4.0)
    assert distance_bound_commuting(pair) == pytest.approx(expected)
    assert distance_bound_commuting(pair) > 1.99


def test_distance_bound_between_different_indices():
    a = cyclic_shift_pair(31)
    b = commuting_random(31, seed=0)
    got = distance_bound_index_change(a, b)
    expected = np.sqrt(1 - a.delta**2 / 4) + np.sqrt(1 - b.delta**2 / 4)
    assert got == pytest.approx(expected)
    with pytest.raises(NoObstruction):
        distance_bound_index_change(a, a)


def test_delta_two_is_out_of_range():
    # reflection pair with ||[U,V]|| = 2 exactly
    U = np.diag([1.0, -1.0]).astype(complex)
    V = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pair = make_pair(U, V)
    assert pair.delta == pytest.approx(2.0)
    with pytest.raises(InvariantUndefined, match="gate 1.999999999"):
        winding_number(pair)
    with pytest.raises(InvariantUndefined):
        winding_via_path(pair)


@given(seed=st.integers(0, 10_000))
def test_winding_invariant_under_joint_conjugation(seed):
    pair = cyclic_shift_pair(8)
    W = haar_unitary(8, np.random.default_rng(seed))
    conj = make_pair(W @ pair.U @ W.conj().T, W @ pair.V @ W.conj().T)
    assert winding_number(conj).omega == -1
