"""End-to-end command line tests: round trips, formats, exit codes."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import acbott
from acbott.cli import main
from acbott.generators import cyclic_shift_pair, selfdual_doubling
from acbott.linalg import make_pair
from acbott.matrixio import write_matrix
from acbott.winding import DELTA_GATE


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_generate_index_roundtrip(tmp_path, capsys):
    prefix = str(tmp_path / "c31")
    rc, out, _ = run(capsys, "generate", "--kind", "cyclic_shift", "--n", "31",
                     "--out", prefix)
    assert rc == 0
    delta_line = [ln for ln in out.splitlines() if ln.startswith("delta = ")][0]
    assert float(delta_line.split("=")[1]) == pytest.approx(2 * np.sin(np.pi / 31))
    rc, out, _ = run(capsys, "index", f"{prefix}_U.txt", f"{prefix}_V.txt")
    assert rc == 0
    assert "omega = -1" in out
    assert "kappa = -1 (certified)" in out
    assert "distance_to_commuting >= 1.99486" in out


def test_index_formats(tmp_path, capsys):
    prefix = str(tmp_path / "c31")
    run(capsys, "generate", "--kind", "cyclic_shift", "--n", "31", "--out", prefix)
    rc, out, _ = run(capsys, "index", f"{prefix}_U.txt", f"{prefix}_V.txt",
                     "--format", "kv")
    assert rc == 0
    assert "omega=-1" in out.splitlines()
    rc, out, _ = run(capsys, "index", f"{prefix}_U.txt", f"{prefix}_V.txt",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "kappa,-1" in lines


def test_index_uncertified_exit_code(tmp_path, capsys):
    prefix = str(tmp_path / "c8")
    run(capsys, "generate", "--kind", "cyclic_shift", "--n", "8", "--out", prefix)
    rc, out, _ = run(capsys, "index", f"{prefix}_U.txt", f"{prefix}_V.txt")
    assert rc == 2
    assert "omega = -1" in out
    assert "kappa = -1 (NOT certified)" in out


def test_index_selfdual_both_methods(tmp_path, capsys):
    prefix = str(tmp_path / "d64")
    rc, out, _ = run(capsys, "generate", "--kind", "selfdual_doubling", "--n", "64",
                     "--out", prefix)
    assert rc == 0
    assert f"wrote {prefix}_N.txt" in out
    args = ("index", f"{prefix}_U.txt", f"{prefix}_V.txt", "--self-dual",
            "--header", f"{prefix}_N.txt")
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    assert "kappa2 = -1 (certified)" in out
    rc, out, _ = run(capsys, *args, "--method", "log")
    assert rc == 0
    assert "kappa2 = -1 (certified)" in out


def test_index_selfdual_log_uncertified_above_eighth(tmp_path, capsys):
    # delta ~ 0.2023 sits between the log and trig thresholds
    prefix = str(tmp_path / "d31")
    run(capsys, "generate", "--kind", "selfdual_doubling", "--n", "31",
        "--out", prefix)
    rc, out, _ = run(capsys, "index", f"{prefix}_U.txt", f"{prefix}_V.txt",
                     "--self-dual", "--method", "log")
    assert rc == 2
    assert "kappa = 0 (NOT certified)" in out
    assert "kappa2 = -1 (NOT certified)" in out


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("cyclic_shift", ()),
        ("selfdual_doubling", ("--self-dual",)),
        ("commuting_random", ("--method", "log")),
    ],
)
def test_index_factorizes_V_and_W_once(tmp_path, capsys, factorizations, kind, flags):
    prefix = str(tmp_path / "p31")
    run(capsys, "generate", "--kind", kind, "--n", "31", "--out", prefix)
    factorizations.clear()
    rc, _, _ = run(capsys, "index", f"{prefix}_U.txt", f"{prefix}_V.txt",
                   "--method", "trig", *flags)
    assert rc == 0
    # one Schur of W = VUV*U*; V by the eigvalsh that places its cut and one
    # eigh of its Cayley transform; one hermitian spectrum of B or B_L
    assert factorizations == Counter(schur=1, eigh=1, eigvalsh=2)


def test_index_answers_split_kramers_pair_on_the_log_route(tmp_path, capsys):
    # V's Kramers pair e^{i(pi -+ a)} lies in the branch cluster at -1, so
    # both angles go to +pi and the log route answers as the trig route does
    a = 2e-10
    write_matrix(str(tmp_path / "U.txt"), np.eye(2, dtype=complex))
    write_matrix(str(tmp_path / "V.txt"),
                 np.diag(np.exp(1j * np.array([np.pi - a, np.pi + a]))))
    args = ("index", str(tmp_path / "U.txt"), str(tmp_path / "V.txt"),
            "--self-dual")
    for method in ("log", "trig"):
        rc, out, err = run(capsys, *args, "--method", method)
        assert rc == 0, err
        assert "kappa2 = +1 (certified)" in out


_REJECTED = {
    "mesh-negative": (("certify-log", "--delta", "0.125", "--mesh", "-3"),
                      "error: Number of samples"),
    "mesh-zero": (("certify-log", "--delta", "0.125", "--mesh", "0"),
                  "error: MeshViolation:"),
    "points-negative": (("bounds", "--curve", "beta", "--points", "-1"),
                        "error: Number of samples"),
    "noise-too-large": (("generate", "--kind", "perturbed", "--n", "8", "--noise", "5"),
                        "error: perturbation size too large"),
    "k-zero": (("generate", "--kind", "direct_sum", "--n", "8", "--k", "0"),
               "error: k must be nonzero"),
    "max-n-17": (("fourier", "--max-n", "17"), "error: coefficient index capped at 16"),
}


@pytest.mark.parametrize("argv, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_argument_prints_an_error_line(tmp_path, capsys, argv, message):
    if argv[0] == "generate":
        argv += ("--out", str(tmp_path / "p"))
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert err.startswith(message), err
    assert list(tmp_path.iterdir()) == []


def test_index_reports_just_below_delta_two(tmp_path, capsys):
    # delta = 1.999999999775 lies between the winding gate 2 - 1e-9 and 2:
    # omega is undefined there, but the report must still come out
    U = np.diag([1.0, np.exp(1j * (np.pi - 3e-5))])
    V = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    write_matrix(str(tmp_path / "U.txt"), U)
    write_matrix(str(tmp_path / "V.txt"), V)
    rc, out, err = run(capsys, "index", str(tmp_path / "U.txt"),
                       str(tmp_path / "V.txt"), "--format", "kv")
    assert rc != 1, err
    assert DELTA_GATE < make_pair(U, V).delta < 2.0
    lines = out.splitlines()
    assert "omega_valid=false" in lines
    assert "omega=" in lines


def test_index_header_mismatch(tmp_path, capsys):
    prefix = str(tmp_path / "d31")
    run(capsys, "generate", "--kind", "selfdual_doubling", "--n", "31",
        "--out", prefix)
    bad = tmp_path / "bad_N.txt"
    bad.write_text("7\n")
    rc, _, err = run(capsys, "index", f"{prefix}_U.txt", f"{prefix}_V.txt",
                     "--self-dual", "--header", str(bad))
    assert rc == 1
    assert "NumericalInconsistency" in err


def test_index_polar_preprocessing(tmp_path, capsys):
    pair = cyclic_shift_pair(31)
    u_file = str(tmp_path / "U.txt")
    v_file = str(tmp_path / "V.txt")
    write_matrix(u_file, 1.0001 * pair.U)
    write_matrix(v_file, pair.V)
    rc, _, err = run(capsys, "index", u_file, v_file)
    assert rc == 1
    assert "NotUnitary" in err
    rc, out, _ = run(capsys, "index", u_file, v_file, "--polar")
    assert rc == 0
    assert "omega = -1" in out


def test_generate_direct_sum(tmp_path, capsys):
    prefix = str(tmp_path / "sum")
    rc, out, _ = run(capsys, "generate", "--kind", "direct_sum", "--n", "31",
                     "--k", "2", "--out", prefix)
    assert rc == 0
    with open(f"{prefix}_U.txt") as fh:
        assert fh.readline().strip() == "62"


def test_bounds_beta_csv(tmp_path, capsys):
    csv = str(tmp_path / "beta.csv")
    rc, out, _ = run(capsys, "bounds", "--curve", "beta", "--from", "0",
                     "--to", "0.2", "--points", "5", "--out", csv)
    assert rc == 0
    with open(csv) as fh:
        lines = [ln.strip() for ln in fh]
    assert lines[0] == "delta,beta,gap_guaranteed,gap_coarse"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == 0.0
    assert float(first[2]) == 1.0
    assert float(first[3]) == pytest.approx(0.95)


def test_bounds_gap_csv_is_beta_csv_without_beta(capsys):
    # the range runs past both blank-cell cutoffs (beta >= 1, delta > 0.2)
    span = ("--from", "0", "--to", "0.25", "--points", "6")
    rc, beta_out, _ = run(capsys, "bounds", "--curve", "beta", *span)
    assert rc == 0
    rc, gap_out, _ = run(capsys, "bounds", "--curve", "gap", *span)
    assert rc == 0
    rows = [ln.split(",") for ln in beta_out.splitlines()]
    assert gap_out.splitlines() == [",".join(r[:1] + r[2:]) for r in rows]
    assert rows[-1][2] == ""


def test_bounds_envelope_csv(capsys):
    rc, out, _ = run(capsys, "bounds", "--curve", "eta-f", "--points", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,line0,line1,line2,line3,envelope"
    for ln in lines[1:]:
        vals = [float(x) for x in ln.split(",")[1:]]
        assert vals[-1] == pytest.approx(min(vals[:-1]))


def test_fourier_table(capsys):
    rc, out, _ = run(capsys, "fourier")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a_imag,b,c"
    assert len(lines) == 7
    rows = [ln.split(",") for ln in lines[1:]]
    want_c = (0.202047, 0.179940, 0.125655, 0.066010, 0.023445, 0.003886)
    for n, row in enumerate(rows):
        assert int(row[0]) == n
        assert float(row[3]) == pytest.approx(want_c[n], abs=1e-6)
        assert float(row[1]) == pytest.approx(
            -(150 / 256, 0, 25 / 256, 0, 3 / 256)[n - 1] if 1 <= n <= 5 else 0.0
        )
        assert float(row[2]) == pytest.approx((-1) ** n * float(row[3]))


def test_certify_log_mesh_violations(capsys):
    rc, _, err = run(capsys, "certify-log", "--delta", "0.02", "--mesh", "3")
    assert rc == 1
    assert "MeshViolation" in err
    rc, _, err = run(capsys, "certify-log", "--delta", "0.02", "--mesh", "1")
    assert rc == 1
    assert "MeshViolation" in err


@pytest.mark.parametrize("delta", ["-0.1", "nan"])
def test_certify_log_rejects_bad_delta(delta, capsys):
    rc, out, err = run(capsys, "certify-log", f"--delta={delta}")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "delta" in err


def test_missing_input_file(tmp_path, capsys):
    rc, _, err = run(capsys, "index", str(tmp_path / "no_U.txt"),
                     str(tmp_path / "no_V.txt"))
    assert rc == 1
    assert "error" in err


_GUARD = """
import sys
import acbott.cli
import acbott.bounds

plain, selfdual = sys.argv[1], sys.argv[2]
assert acbott.cli.main(["index", plain + "_U.txt", plain + "_V.txt"]) == 0
assert acbott.cli.main(
    ["index", selfdual + "_U.txt", selfdual + "_V.txt", "--self-dual"]
) == 0
heavy = ("scipy.optimize", "scipy.fft", "scipy.integrate", "scipy.special")
print("loaded:", [name for name in heavy if name in sys.modules])
print("linprog attribute:", callable(vars(acbott.bounds).get("linprog")))
print("stored certificate loaded:", "acbott.log_certificate" in sys.modules)
"""


def test_index_process_never_imports_the_certification_stack(tmp_path):
    # a cold index reads stored tables: no quadrature, LP, root finder or FFT
    for name, pair in (
        ("plain", cyclic_shift_pair(31)),
        ("selfdual", selfdual_doubling(cyclic_shift_pair(31))),
    ):
        write_matrix(str(tmp_path / f"{name}_U.txt"), pair.U)
        write_matrix(str(tmp_path / f"{name}_V.txt"), pair.V)
    src = str(Path(acbott.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _GUARD, str(tmp_path / "plain"), str(tmp_path / "selfdual")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "loaded: []" in done.stdout
    assert "linprog attribute: True" in done.stdout
    assert "stored certificate loaded: False" in done.stdout
