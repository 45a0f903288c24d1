"""Winding invariant: both computation routes plus the distance bounds."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from acbott.errors import (
    DimensionMismatch,
    InvariantUndefined,
    NoObstruction,
    NotSelfDual,
)
from acbott.generators import (
    commuting_random,
    cyclic_shift_pair,
    perturb,
    perturb_selfdual,
    powered_pair,
    selfdual_doubling,
)
from acbott.linalg import make_pair
from acbott.selfdual import SelfDualPair, dual, make_selfdual_pair
from acbott.winding import (
    DELTA_GATE,
    SELFDUAL_DELTA_MAX,
    WindingResult,
    distance_bound_commuting,
    distance_bound_index_change,
    winding_number,
)
from support import haar_unitary, random_hermitian, winding_via_path


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


def test_path_steps_start_from_the_dimension(monkeypatch):
    # arg det(W^t) moves at rate |sum theta| <= n pi, so 2n steps keep each
    # phase change within pi/2: the n = 64 path takes 128 steps, not 1024
    dets = []

    def counted(a):
        dets.append(int(np.prod(np.shape(a)[:-2])))
        return det(a)

    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", counted)
    assert winding_via_path(cyclic_shift_pair(64)) == -1
    assert sum(dets) == 129


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


def test_distance_bound_refuses_pairs_of_different_dims():
    # ||U_A - U_B|| is undefined across dims: refused before W is factorized
    a = cyclic_shift_pair(31)
    b = commuting_random(5, seed=0)
    for first, second in ((a, b), (b, a)):
        with pytest.raises(DimensionMismatch):
            distance_bound_index_change(first, second)
    assert "w_angles" not in vars(a) and "w_angles" not in vars(b)


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


def _schur_route(pair):
    """(omega, margin, raw) from the pair's Schur eigenangles of W."""
    angles = pair.w_angles
    raw = float(np.sum(angles) / (2 * np.pi))
    return round(raw), float(np.min(np.abs(np.exp(1j * angles) + 1.0))), raw


@pytest.mark.parametrize("make", [
    lambda: cyclic_shift_pair(12),
    lambda: cyclic_shift_pair(31),
    lambda: perturb(cyclic_shift_pair(64), 0.004, seed=3),
    lambda: commuting_random(12, seed=4),
    lambda: powered_pair(16, 2),
    lambda: powered_pair(16, -2),
], ids=["cyclic12", "cyclic31", "perturbed64", "commuting", "powered+2", "powered-2"])
def test_margin_at_minus_one_is_read_from_delta(make):
    # W is normal with ||W - I|| = delta, so min |lambda + 1| = sqrt(4 - delta^2)
    pair = make()
    res = winding_number(pair)
    assert res.min_angle_gap_at_pi == pytest.approx(np.sqrt(4 - pair.delta**2), abs=1e-12)


def _split_pair_at_minus_one():
    a = 2e-10
    return make_selfdual_pair(np.eye(2), np.diag(np.exp(1j * np.array([np.pi - a, np.pi + a]))))


def _nudged_doubling_at_minus_one():
    # V of a doubled cyclic pair of even n has a Kramers pair at -1
    base = selfdual_doubling(cyclic_shift_pair(8))
    H = random_hermitian(base.dim, np.random.default_rng(0))
    return make_selfdual_pair(base.U, base.V @ expm(1e-10j * H / np.linalg.norm(H, 2)))


@pytest.mark.parametrize("make", [
    lambda: selfdual_doubling(cyclic_shift_pair(31)),
    lambda: selfdual_doubling(cyclic_shift_pair(64)),
    lambda: perturb_selfdual(selfdual_doubling(cyclic_shift_pair(32)), 0.02, seed=1),
    lambda: selfdual_doubling(commuting_random(6, seed=0)),
    lambda: selfdual_doubling(cyclic_shift_pair(8)),
    _split_pair_at_minus_one,
    _nudged_doubling_at_minus_one,
], ids=["doubled31", "doubled64", "perturbed_doubling", "doubled_commuting",
        "doubled8_at_minus_one", "split_at_minus_one", "nudged_at_minus_one"])
def test_selfdual_winding_matches_the_schur_route(make):
    sd = make()
    res = winding_number(sd)
    assert "w_angles" not in vars(sd)
    omega, margin, raw = _schur_route(sd)
    assert res.omega == omega == 0
    assert res.min_angle_gap_at_pi == pytest.approx(margin, abs=1e-12)
    assert abs(raw) <= 1e-12 and res.raw == 0.0
    assert winding_via_path(sd) == 0


def test_selfdual_winding_takes_no_factorization(factorizations):
    sd = selfdual_doubling(cyclic_shift_pair(64))
    factorizations.clear()
    res = winding_number(sd)
    assert factorizations == Counter()
    assert res == WindingResult(0, sd.delta, np.sqrt(4 - sd.delta**2), 0.0)


def test_hand_built_selfdual_pair_is_refused_before_its_zero():
    # a SelfDualPair made without make_selfdual_pair's gates: U is off
    # self-duality by about 1e-6, so no omega is read from the symmetry
    base = selfdual_doubling(cyclic_shift_pair(32))
    U = base.U @ expm(1e-6j * random_hermitian(base.dim, np.random.default_rng(3)))
    assert 5e-7 <= np.linalg.norm(U - dual(U), 2) <= 5e-6
    pair = make_pair(U, base.V)
    sd = SelfDualPair(pair.U, pair.V, pair.delta)
    with pytest.raises(NotSelfDual, match="U fails self-duality"):
        winding_number(sd)


def test_selfdual_pair_near_delta_two_takes_the_schur_route(factorizations):
    # delta = 2 cos(5e-5), about 2 - 2.5e-9: inside the winding gate, but
    # above 2 - 1e-7, where the gates no longer bound the path away from -1
    U = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    V = np.diag([1.0, np.exp(1j * (np.pi - 1e-4))])
    sd = selfdual_doubling(make_pair(U, V))
    assert SELFDUAL_DELTA_MAX < sd.delta <= DELTA_GATE
    assert sd.delta == pytest.approx(2 * np.cos(5e-5), abs=1e-15)
    factorizations.clear()
    res = winding_number(sd)
    assert factorizations == Counter(schur=1)
    omega, margin, raw = _schur_route(sd)
    assert (res.omega, res.min_angle_gap_at_pi, res.raw) == (omega, margin, raw)
