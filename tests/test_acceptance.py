"""Acceptance gate: one test per release criterion, each a single pass/fail.

Criteria 4 and 5 share one generated sample of 200+ certified pairs; the
fixture records per-pair data so both tests stay within the stated runtime.
Criterion 10 drives the command line end to end at the real fine grid.
"""

import time

import numpy as np
import pytest

from acbott.bott import bott_index, build_B, standard_triple
from acbott.bounds import beta, beta_root, coarse_gap, eta_envelope_f, eta_envelope_h
from acbott.cli import main
from acbott.config import KAPPA_THRESHOLD, LOG_THRESHOLD
from acbott.generators import (
    commuting_random,
    cyclic_shift_pair,
    perturb,
    perturb_selfdual,
    powered_pair,
    selfdual_doubling,
)
from acbott.linalg import apply_periodic, make_pair, operator_norm
from acbott.logmethod import build_BL, kappa2_log, principal_log
from acbott.selfdual import (
    check_kramers,
    dual,
    make_selfdual_pair,
    modified_pfaffian,
    pfaffian,
    pfaffian_bott_index,
)
from acbott.winding import winding_number, winding_via_path

from support import haar_unitary, pfaffian_cofactor, random_hermitian


# ---------------------------------------------------------------------------
# shared sample for criteria 4 and 5
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def certified_sample():
    """200+ pairs with delta <= 0.206007 and dim <= 128.

    Returns (records, elapsed_seconds) where each record is the tuple
    (delta, omega, kappa, gap).
    """
    t0 = time.perf_counter()
    pairs = []
    for n in range(31, 65):
        pairs.append(cyclic_shift_pair(n))
    for i, n in enumerate(range(31, 51)):
        base = cyclic_shift_pair(n)
        for seed in (2 * i, 2 * i + 1):
            W = haar_unitary(n, np.random.default_rng(seed))
            pairs.append(make_pair(W @ base.U @ W.conj().T, W @ base.V @ W.conj().T))
    for n in range(48, 65, 2):
        base = cyclic_shift_pair(n)
        for seed in range(4):
            pairs.append(perturb(base, 0.03, seed=seed))
    for n in (31, 41, 51, 61):
        for k in (-2, 2):
            pairs.append(powered_pair(n, k))
    for n in (41, 42):
        for k in (-3, 3):
            pairs.append(powered_pair(n, k))
    for seed in range(50):
        pairs.append(commuting_random(4 + (seed % 13), seed=seed))
    for n in range(31, 64, 2):
        pairs.append(selfdual_doubling(cyclic_shift_pair(n)))
    for seed in range(20):
        sd = selfdual_doubling(commuting_random(8 + 4 * (seed % 3), seed=seed))
        pairs.append(perturb_selfdual(sd, 0.05, seed=seed))

    records = []
    for pair in pairs:
        if pair.delta > KAPPA_THRESHOLD:
            continue
        assert pair.dim <= 128
        omega = winding_number(pair).omega
        kappa = bott_index(pair)
        gap = build_B(pair).gap
        records.append((pair.delta, omega, kappa, gap))
    return records, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_winding_of_cyclic_pairs():
    t0 = time.perf_counter()
    for n in (3, 8, 31, 64):
        pair = cyclic_shift_pair(n)
        assert winding_number(pair).omega == -1
        assert winding_via_path(pair) == -1
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_fourier_table(capsys):
    t0 = time.perf_counter()
    assert main(["fourier"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,a_imag,b,c"
    stated = (0.202047, 0.179940, 0.125655, 0.066010, 0.023445, 0.003886)
    for n, line in enumerate(lines[1:]):
        _, _, b, c = line.split(",")
        assert abs(float(c) - stated[n]) <= 1e-6
        assert float(b) == pytest.approx((-1) ** n * float(c), abs=1e-12)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_threshold_consistency():
    env_f = eta_envelope_f()
    assert [ln.m for ln in env_f.lines] == [0.0, 1.171875, 1.7578125, 1.875]
    env_h = eta_envelope_h()
    stated_slopes = (0.0, 0.359880, 0.862500, 1.258560, 1.446120, 1.48498)
    for line, m in zip(env_h.lines[:6], stated_slopes):
        assert abs(line.m - m) <= 1e-4
    assert env_h.lines[6].m == 2.99208
    assert env_h.lines[6].provenance == "stored"
    # recomputed envelope root; the published threshold rounds to 0.206007
    root = beta_root()
    assert 0.2060 <= root <= 0.2061


def test_criterion_04_kappa_equals_omega(certified_sample):
    records, elapsed = certified_sample
    assert len(records) >= 200
    for delta, omega, kappa, _ in records:
        assert kappa == omega, f"kappa {kappa} != omega {omega} at delta {delta:.4f}"
    assert elapsed < 120.0


def test_criterion_05_gap_theorem(certified_sample):
    records, _ = certified_sample
    for delta, _, _, gap in records:
        b = beta(delta)
        assert b < 1.0
        assert gap >= np.sqrt(1.0 - b) - 1e-12
        if delta <= 0.2:
            assert gap >= coarse_gap(delta) - 1e-12


def test_criterion_06_square_defect_lemmas(rng):
    triple = standard_triple()
    for trial in range(100):
        d = 4 + (trial % 9)
        pair = make_pair(haar_unitary(d, rng), haar_unitary(d, rng))
        fV = apply_periodic(triple.f, pair.V)
        hV = apply_periodic(triple.h, pair.V)

        def cnorm(X):
            return operator_norm(X @ pair.U - pair.U @ X)

        bm = build_B(pair)
        lhs = operator_norm(bm.B @ bm.B - np.eye(2 * d))
        assert lhs <= 2.0 * cnorm(hV) + cnorm(fV) + 1e-10

    for trial in range(100):
        d = 4 + (trial % 7)
        pair = make_pair(haar_unitary(d, rng), haar_unitary(d, rng))
        lam, W = np.linalg.eigh(principal_log(pair.V).K)
        x = np.clip(lam / np.pi, -1.0, 1.0)
        hvals = np.sqrt(1.0 - x**2)

        def call(vals):
            return (W * vals) @ W.conj().T

        def cnorm(X):
            return operator_norm(X @ pair.U - pair.U @ X)

        ch = cnorm(call(hvals))
        four_term = (
            ch + 0.25 * ch**2 + 0.5 * cnorm(call(hvals**2)) + cnorm(call(x * hvals))
        )
        bm = build_BL(pair)
        lhs = operator_norm(bm.B @ bm.B - np.eye(2 * d))
        assert lhs <= four_term + 1e-10


def test_criterion_07_pfaffian_suite(rng):
    for a in (2.5, -3.0 + 1.0j, 1e-3j, 0.0):
        assert pfaffian(np.array([[0.0, a], [-a, 0.0]])) == pytest.approx(a, abs=1e-14)
    for trial in range(500):
        d = 2 * (1 + trial % 8)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        X = A - A.T
        pf = pfaffian(X)
        det = np.linalg.det(X)
        assert pf**2 == pytest.approx(det, rel=1e-8)
        Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert pfaffian(Y @ X @ Y.T) == pytest.approx(
            np.linalg.det(Y) * pf, rel=1e-8
        )
        if d <= 8:
            assert pf == pytest.approx(pfaffian_cofactor(X), rel=1e-8)
    # conjugating the hermitian corner matrix of a commuting pair gives
    # diag(iZ, -iZ), whose Pfaffian is i^n (-i)^n = 1 in every dimension
    for N in (1, 2, 3):
        I = np.eye(2 * N)
        O = np.zeros((2 * N, 2 * N))
        assert modified_pfaffian(np.block([[O, I], [I, O]])) == pytest.approx(
            1.0, rel=1e-10
        )


def test_criterion_08_kappa2_properties(rng):
    for seed in range(50):
        sd = selfdual_doubling(commuting_random(4 + 2 * (seed % 5), seed=seed))
        assert pfaffian_bott_index(sd) == 1
    # perturbations far below the sign-change distance bound (~0.39 per pair)
    # cannot flip the index
    base = selfdual_doubling(cyclic_shift_pair(64))
    assert pfaffian_bott_index(base) == -1
    for seed in range(10):
        assert pfaffian_bott_index(perturb_selfdual(base, 0.05, seed=seed)) == -1
    trivial = selfdual_doubling(commuting_random(16, seed=3))
    for seed in range(10):
        assert pfaffian_bott_index(perturb_selfdual(trivial, 0.05, seed=seed)) == 1
    for trial in range(25):
        N = 2 + trial % 5
        H0 = random_hermitian(2 * N, rng)
        H = (H0 + dual(H0)) / 2
        assert check_kramers(H)


def test_criterion_09_log_method_agreement():
    candidates = [
        selfdual_doubling(cyclic_shift_pair(n)) for n in range(64, 81, 2)
    ]
    base = candidates[0]
    for seed in range(30):
        r = 0.01 if seed % 2 == 0 else 0.02
        candidates.append(perturb_selfdual(base, r, seed=seed))
    trivial = selfdual_doubling(commuting_random(16, seed=7))
    for seed in range(12):
        candidates.append(perturb_selfdual(trivial, 0.05, seed=seed))
    sample = [sd for sd in candidates if sd.delta <= LOG_THRESHOLD]
    assert len(sample) >= 50
    for sd in sample:
        assert kappa2_log(sd) == pfaffian_bott_index(sd)


def test_criterion_10_homotopy_certification(tmp_path, capsys):
    t0 = time.perf_counter()
    ok_csv = str(tmp_path / "ok.csv")
    rc = main(["certify-log", "--delta", "0.125", "--out", ok_csv])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    rows = [ln.split(",") for ln in open(ok_csv).read().strip().splitlines()[1:]]
    bounds = [float(r[2]) for r in rows]
    assert max(bounds) < 0.95
    assert max(bounds) == pytest.approx(0.836412, abs=0.01)
    steps = [ln for ln in out.splitlines() if ln.startswith("step_sums")][0]
    for part in steps.split()[1:]:
        assert float(part.split("=")[1]) <= 0.2236

    fail_csv = str(tmp_path / "fail.csv")
    rc = main(["certify-log", "--delta", "0.2", "--out", fail_csv])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out
    rows = [ln.split(",") for ln in open(fail_csv).read().strip().splitlines()[1:]]
    stage2 = [float(r[2]) for r in rows if r[0] == "2"]
    assert stage2[-1] >= 0.95
    assert time.perf_counter() - t0 < 300.0
