"""Unit tests for the dense matrix kernel."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acbott.analysis import analyze
from acbott.config import DEFAULT_TOL
from acbott.errors import (
    DimensionMismatch,
    GapClosed,
    InvalidMatrix,
    NotHermitian,
    NotUnitary,
    SingularMatrix,
)
from acbott.bott import bott_index, signature, standard_triple
from acbott.linalg import (
    UnitaryPair,
    _cayley_angles,
    _schur_angles,
    as_matrix,
    gate_norm,
    make_pair,
    operator_norm,
    unitary_part,
)
from acbott.generators import (
    cyclic_shift_pair,
    perturb,
    perturb_selfdual,
    selfdual_doubling,
)
from acbott.logmethod import kappa2_log
from acbott.selfdual import (
    dual,
    make_selfdual_pair,
    pfaffian_bott_index,
)
from acbott.winding import distance_bound_commuting, winding_number
from support import (
    TrigPoly,
    apply_periodic,
    apply_trigpoly,
    check_kramers,
    commutator_norm,
    haar_unitary,
    pfaffian,
    random_hermitian,
    random_skew,
    shift_matrix,
    unitary_eig,
    winding_via_path,
)


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(InvalidMatrix):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_empty():
    with pytest.raises(InvalidMatrix):
        as_matrix(np.zeros((0, 0)))


def test_as_matrix_rejects_nonfinite():
    A = np.eye(3, dtype=complex)
    A[1, 2] = np.nan
    with pytest.raises(InvalidMatrix):
        as_matrix(A)
    A[1, 2] = 1j * np.inf
    with pytest.raises(InvalidMatrix):
        as_matrix(A)


def test_operator_norm_matches_svd(rng):
    for d in (1, 3, 17, 40):
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)


def test_operator_norm_large_power_iteration(rng):
    # a large input still gets the exact dense-SVD norm
    d = 600
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-6)


def test_operator_norm_exact_where_power_iteration_reads_low():
    # the top singular vector u is orthogonal to the start vector of a power
    # iteration seeded with default_rng(0), which would stall at 1e-9
    d = 600
    rng = np.random.default_rng(0)
    start = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    u = np.ones(d, dtype=complex)
    u -= (start.conj() @ u) / (start.conj() @ start) * start
    u /= np.linalg.norm(u)
    A = 2e-8 * np.outer(u, u.conj()) + 1e-9 * np.eye(d)
    assert operator_norm(A) == pytest.approx(2.1e-8, rel=1e-9)
    # ||H - H*|| = 4.2e-8 is above the 1e-8 hermiticity gate
    with pytest.raises(NotHermitian):
        signature(np.eye(d) + 1j * A)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_commutator_norm(rng):
    D1 = np.diag(rng.standard_normal(5)).astype(complex)
    D2 = np.diag(rng.standard_normal(5)).astype(complex)
    assert commutator_norm(D1, D2) == 0.0
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert commutator_norm(A, B) == pytest.approx(np.linalg.norm(A @ B - B @ A, 2))
    with pytest.raises(DimensionMismatch):
        commutator_norm(A, np.eye(4))


@given(d=st.integers(2, 10), seed=st.integers(0, 10_000))
def test_unitary_eig_reconstructs(d, seed):
    V = haar_unitary(d, np.random.default_rng(seed))
    angles, Q = unitary_eig(V)
    back = (Q * np.exp(1j * angles)) @ Q.conj().T
    assert np.linalg.norm(back - V, 2) < 1e-10
    assert np.all(angles > -np.pi) and np.all(angles <= np.pi)


def test_unitary_eig_branch_at_minus_one():
    angles, _ = unitary_eig(-np.eye(3, dtype=complex))
    assert np.allclose(angles, np.pi)
    angles2, _ = unitary_eig(np.diag([-1.0, 1.0, 1j]))
    assert np.isclose(sorted(angles2)[-1], np.pi)


def test_unitary_eig_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        unitary_eig(2 * np.eye(3))


def test_apply_periodic_identity_function(rng):
    V = haar_unitary(6, rng)
    back = apply_periodic(lambda t: np.exp(1j * t), V)
    assert np.linalg.norm(back - V, 2) < 1e-10


def test_apply_periodic_real_function_is_hermitian(rng):
    V = haar_unitary(7, rng)
    M = apply_periodic(np.cos, V)
    assert np.linalg.norm(M - M.conj().T, 2) < 1e-12


def test_apply_trigpoly_matches_periodic_calculus(rng):
    # Horner route vs eigendecomposition route
    p = TrigPoly.from_sin_series([1.0, 0.0, 0.25])
    q = TrigPoly.from_cos_series(0.3, [0.5, 0.125])
    V = haar_unitary(9, rng)
    for poly in (p, q):
        a = apply_trigpoly(poly, V)
        b = apply_periodic(lambda t, poly=poly: poly(t), V)
        assert np.linalg.norm(a - b, 2) < 1e-10


def test_unitary_part_recovers_polar_factor(rng):
    U = haar_unitary(8, rng)
    P = np.eye(8) + 0.3 * random_hermitian(8, rng)
    W = unitary_part(U @ P)
    assert np.linalg.norm(W - U, 2) < 1e-10


def test_unitary_part_singular_gate():
    A = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(SingularMatrix):
        unitary_part(A)


def test_signature_gate(rng):
    H = random_hermitian(5, rng)
    eigs = np.linalg.eigvalsh(H)
    assert signature(H) == np.sum(eigs > 0) - np.sum(eigs < 0)
    with pytest.raises(NotHermitian):
        signature(H + 0.01j * np.eye(5))


def test_structure_gates_take_an_svd_only_when_the_bounds_do_not_decide(
    rng, monkeypatch
):
    # ||A|| = ||A||_F = 32 but max |a_ij| = 2; a defect 2e I has operator norm
    # 2e and Frobenius norm 8e
    d = 16
    A = 2.0 * np.ones((d, d), dtype=complex)
    svds = _count_svds(monkeypatch)
    H = random_hermitian(d, rng)
    eigs = np.linalg.eigvalsh(H)
    assert signature(H) == np.sum(eigs > 0) - np.sum(eigs < 0)
    K = (H + dual(H)) / 2
    assert check_kramers((K + K.conj().T) / 2)
    pfaffian(random_skew(d, rng))
    assert svds == []  # the parent took 2, 5 and 1
    # 1e-7 is above 1e-8 * max|a_ij| but not above 1e-8 * ||A||: passes, and
    # A's null space then closes the gap
    with pytest.raises(GapClosed):
        signature(A + 5e-8j * np.eye(d))
    assert len(svds) == 2  # the exact defect, then ||A||
    svds.clear()
    # 4e-7 is above 1e-8 * ||A||_F: fails without an SVD of A
    with pytest.raises(NotHermitian, match="4.000e-07"):
        signature(A + 2e-7j * np.eye(d))
    assert len(svds) == 1


amps = st.lists(
    st.floats(-2, 2, allow_nan=False, allow_infinity=False), min_size=1, max_size=6
)


@given(a=amps)
def test_trigpoly_sin_series_values(a):
    p = TrigPoly.from_sin_series(a)
    x = np.linspace(-np.pi, np.pi, 101)
    direct = sum(ak * np.sin((k + 1) * x) for k, ak in enumerate(a))
    assert np.max(np.abs(p.real_values(x) - direct)) < 1e-12
    assert p.is_real_valued()


@given(a0=st.floats(-2, 2, allow_nan=False), a=amps)
def test_trigpoly_cos_series_values(a0, a):
    p = TrigPoly.from_cos_series(a0, a)
    x = np.linspace(-np.pi, np.pi, 101)
    direct = a0 + sum(ak * np.cos((k + 1) * x) for k, ak in enumerate(a))
    assert np.max(np.abs(p.real_values(x) - direct)) < 1e-12


def test_trigpoly_partial_sums_are_the_truncations(rng):
    n = 4
    p = TrigPoly(n, rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1))
    x = np.linspace(-np.pi, np.pi, 257)
    for k, value in enumerate(p.partial_sums(x)):
        truncated = TrigPoly(k, p.coeffs[n - k : n + k + 1])
        assert np.array_equal(value, truncated(x))
    assert k == n
    assert np.array_equal(value, p(x))


def test_trigpoly_derivative_l1_exact():
    # dyadic amplitudes make this equality exact in floating point
    f5 = TrigPoly.from_sin_series([150 / 128, 0.0, 25 / 128, 0.0, 3 / 128])
    assert f5.derivative_l1() == 1.875


def test_trigpoly_coeff_out_of_range():
    p = TrigPoly.from_sin_series([1.0])
    assert p.coeff(5) == 0j
    assert p.coeff(1) == pytest.approx(1 / 2j)


def test_trigpoly_bad_coefficient_count():
    with pytest.raises(InvalidMatrix):
        TrigPoly(2, np.zeros(3))


def test_make_pair_validates(rng):
    U = haar_unitary(5, rng)
    V = haar_unitary(5, rng)
    pair = make_pair(U, V)
    assert pair.dim == 5
    assert pair.delta == pytest.approx(commutator_norm(U, V))
    with pytest.raises(DimensionMismatch):
        make_pair(U, haar_unitary(4, rng))
    with pytest.raises(NotUnitary):
        make_pair(1.1 * U, V)


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_valid_request_takes_one_svd(monkeypatch):
    # the unitarity and self-duality gates clear on the Frobenius bound, so
    # the only SVD of a request is the one delta needs
    plain = perturb(cyclic_shift_pair(24), 0.01, seed=3)
    sd = selfdual_doubling(cyclic_shift_pair(12))
    svds = _count_svds(monkeypatch)
    for method in ("trig", "log"):
        analyze(make_pair(plain.U, plain.V), method=method)
        assert len(svds) == 1
        svds.clear()
        made = make_selfdual_pair(sd.U, sd.V)
        assert analyze(made, method=method).kappa2 == -1
        assert len(svds) == 1
        svds.clear()


@pytest.mark.parametrize("self_dual", [False, True])
@pytest.mark.parametrize("method", ["trig", "log"])
def test_request_checks_each_unitarity_once(monkeypatch, self_dual, method):
    # make_pair checks U and V and W is checked where it is factorized; the
    # pair's factorization of V does not check V again
    import acbott.linalg as linalg

    base = selfdual_doubling(cyclic_shift_pair(12))
    checked = []
    check = linalg._check_unitary

    def counted(A, tol):
        checked.append(A.shape)
        check(A, tol)

    monkeypatch.setattr(linalg, "_check_unitary", counted)
    if self_dual:
        pair = make_selfdual_pair(base.U, base.V)
    else:
        pair = make_pair(base.U, base.V)
    analyze(pair, method=method)
    assert len(checked) == 3


def test_unitarity_gate_decides_by_the_exact_norm(rng, monkeypatch):
    # (1 + e) U has defect ((1 + e)^2 - 1) I: operator norm about 2e, but
    # Frobenius norm 4 times that at d = 16
    U = haar_unitary(16, rng)
    assert DEFAULT_TOL.unitary == 1e-8
    svds = _count_svds(monkeypatch)
    pair = make_pair(U, (1 + 0.25e-8) * U)
    assert pair.dim == 16
    assert len(svds) == 2  # the exact norm of the defect, then delta
    with pytest.raises(NotUnitary, match="1.500e-08"):
        make_pair(U, (1 + 0.75e-8) * U)


def test_gate_norm_is_exact_unless_frobenius_clears(rng):
    X = random_hermitian(12, rng)
    exact = operator_norm(X)
    frobenius = float(np.linalg.norm(X))
    assert gate_norm(X, frobenius) == frobenius
    assert gate_norm(X, 0.5 * (exact + frobenius)) == exact
    assert gate_norm(X, 0.5 * exact) == exact


# ---------------------------------------------------------------------------
# factorizations cached on the pair
# ---------------------------------------------------------------------------


def test_plain_calls_share_one_factorization_per_matrix(factorizations):
    base = perturb(cyclic_shift_pair(40), 0.002, seed=5)
    pair = make_pair(base.U, base.V)
    factorizations.clear()
    calls = (winding_number, bott_index, distance_bound_commuting)
    results = [call(pair) for call in calls]
    # one Schur of W; V by the eigvalsh that places its cut and one eigh of
    # its Cayley transform; one hermitian spectrum of B
    assert factorizations == Counter(schur=1, eigh=1, eigvalsh=2)
    assert results[0] == winding_number(pair) and results[0].omega == -1
    assert factorizations["schur"] == 1
    for call, result in zip(calls, results):
        assert call(make_pair(base.U, base.V)) == result


def test_selfdual_calls_share_one_factorization_per_matrix(factorizations):
    base = selfdual_doubling(cyclic_shift_pair(64))
    sd = make_selfdual_pair(base.U, base.V)
    factorizations.clear()
    calls = (
        winding_number,
        pfaffian_bott_index,
        kappa2_log,
    )
    results = [call(sd) for call in calls]
    assert results[1:] == [-1, -1]
    # one Schur of W; V's cut eigvalsh and Cayley eigh, shared by B and B_L;
    # one real reduction each of B and B_L, with its tridiagonal spectrum
    assert factorizations == Counter(schur=1, eigh=1, eigvalsh=1, dgehrd=2, dsterf=2)
    for call, result in zip(calls, results):
        assert call(make_selfdual_pair(base.U, base.V)) == result


def test_v_eig_falls_back_to_the_schur_form(factorizations, monkeypatch):
    # eigenvectors handed back in the wrong order leave a residual of order 1,
    # so the pair takes V's Schur form and every answer stays right
    base = perturb(cyclic_shift_pair(40), 0.002, seed=5)
    expected = analyze(make_pair(base.U, base.V))
    eigh = np.linalg.eigh

    def misordered(H):
        lam, Q = eigh(H)
        return lam, Q[:, ::-1]

    monkeypatch.setattr(np.linalg, "eigh", misordered)
    pair = make_pair(base.U, base.V)
    factorizations.clear()
    assert bott_index(pair) == winding_number(pair).omega == -1
    assert factorizations == Counter(schur=2, eigh=1, eigvalsh=2)
    angles, Q = _schur_angles(pair.V)
    assert np.array_equal(pair.v_eig[0], angles)
    assert np.array_equal(pair.v_eig[1], Q)
    report = vars(analyze(pair))
    assert report.pop("gap_measured") == pytest.approx(expected.gap_measured, abs=1e-12)
    assert report == {k: v for k, v in vars(expected).items() if k != "gap_measured"}


def _kramers_v():
    sd = selfdual_doubling(cyclic_shift_pair(12))
    return perturb_selfdual(sd, 0.004, seed=2).V


def _v_at_minus_one():
    V = np.diag(np.exp(1j * np.array([0.3, -2.0, 1.0, 2.5, -0.7, 0.0])))
    V[1, 1] = -1.0
    R = haar_unitary(6, np.random.default_rng(4))
    return R @ V @ R.conj().T


@pytest.mark.parametrize(
    "make_v",
    [
        lambda: np.eye(8, dtype=complex),
        lambda: -np.eye(8, dtype=complex),
        lambda: np.diag([1.0, -1.0, 1j, -1j]).astype(complex),
        _v_at_minus_one,
        _kramers_v,
        lambda: perturb(cyclic_shift_pair(256), 0.004, seed=7).V,
    ],
    ids=["identity", "minus_identity", "exactly_minus_one", "rotated_minus_one",
         "kramers_selfdual", "perturbed_cyclic_256"],
)
def test_cayley_and_schur_routes_agree(factorizations, make_v):
    V = make_v()
    angles, Q = _cayley_angles(V)
    assert factorizations["schur"] == 0  # the residual cleared
    ref_angles, ref_Q = _schur_angles(V)
    assert np.max(np.abs(np.sort(angles) - np.sort(ref_angles))) <= 1e-12
    assert np.sum(angles == np.pi) == np.sum(ref_angles == np.pi)
    t = standard_triple()
    for fn in (t.f, t.g, t.h):
        fV = (Q * fn(angles)) @ Q.conj().T
        ref = (ref_Q * fn(ref_angles)) @ ref_Q.conj().T
        assert np.max(np.abs(fV - ref)) <= 1e-12


def test_cayley_residual_bound_scales_with_the_dimension(factorizations):
    # V scaled by 1 + 4.9e-9 has a unitarity defect of 9.8e-9, inside the
    # gate at 1e-8, and a Frobenius residual of about 4e-8 at n = 64: above
    # the gate's own width, but within its sqrt(n) scaling, so V keeps the
    # Cayley route and no Schur form is made
    base = perturb(cyclic_shift_pair(64), 0.004, seed=1)
    pair = make_pair(base.U, base.V * (1 + 4.9e-9))
    factorizations.clear()
    angles, Q = pair.v_eig
    assert factorizations == Counter(eigh=1, eigvalsh=1)
    residual = np.linalg.norm(pair.V @ Q - Q * np.exp(1j * angles))
    assert DEFAULT_TOL.unitary < residual <= DEFAULT_TOL.unitary * np.sqrt(pair.dim)
    ref_angles, _ = _schur_angles(pair.V)
    assert np.max(np.abs(np.sort(angles) - np.sort(ref_angles))) <= 1e-12


def test_cached_factorizations_are_read_only():
    pair = cyclic_shift_pair(8)
    angles, Q = pair.v_eig
    for a in (angles, Q, pair.w_angles):
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("rotate", [False, True])
def test_w_angles_follow_the_branch_rule_at_minus_one(rotate):
    # V = diag(d), U the cyclic shift: W = VUV*U* = diag(d_j conj(d_{j-1})),
    # which here is exactly -1, within 1e-13 of -1, then three times -i and
    # once exp(-i(pi/2 + eps)).  Both values at the cut count as +pi, so the
    # angles sum to -eps and omega is 0; -pi for the near one would give -1.
    eps = 5e-14
    phases = np.array(
        [0.0, np.pi, eps, eps - 0.5 * np.pi, eps - np.pi, eps - 1.5 * np.pi]
    )
    V = np.diag(np.exp(1j * phases))
    V[1, 1] = -1.0
    U = shift_matrix(6)
    if rotate:
        R = haar_unitary(6, np.random.default_rng(11))
        U, V = R @ U @ R.conj().T, R @ V @ R.conj().T
    # every W with -1 in its spectrum has delta = 2; the delta is understated
    # so the winding gate lets both routes meet at the cut
    pair = UnitaryPair(U, V, delta=1.0)
    W = V @ U @ V.conj().T @ U.conj().T
    assert np.abs(np.linalg.eigvals(W) + 1).min() <= (1e-14 if rotate else 0.0)
    reference, _ = unitary_eig(W)
    assert np.allclose(np.sort(pair.w_angles), np.sort(reference), rtol=0, atol=1e-12)
    assert np.sum(pair.w_angles == np.pi) == 2
    result = winding_number(pair)
    assert result.omega == winding_via_path(pair) == 0
    assert result.min_angle_gap_at_pi <= 1e-13
