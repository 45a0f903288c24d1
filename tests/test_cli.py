"""End-to-end command line tests: round trips, formats, exit codes."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import acbott
from acbott.bounds import beta_root
from acbott.cli import main
from acbott.generators import cyclic_shift_pair, selfdual_doubling
from acbott.linalg import make_pair
from acbott.matrixio import write_matrix
from acbott.winding import DELTA_GATE
from support import fresh_process


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("index", "U.txt", "V.txt", "--format", "xml"),
        ("index", "U.txt", "V.txt", "--bogus"),
        ("certify-log", "--delta", "abc"),
        ("index", "U.txt", "V.txt", "--unitary-tol", "0.05"),
        ("certify-log", "--delta", "0.125", "--mesh", "65"),
        ("bounds", "--curve", "gap"),
    ],
    ids=["bad-choice", "unknown-option", "bad-float", "retired-option",
         "retired-mesh", "retired-curve"],
)
def test_usage_error_exits_one(capsys, argv):
    # 2 means "computed but not certified", so a usage error must not exit 2
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: acbott")
    assert err.splitlines()[-1].startswith("error: ")


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
    # one Schur of W = VUV*U*, except for a self-dual pair, whose omega is
    # read from delta; V by the eigvalsh that places its cut and one eigh of
    # its Cayley transform; one hermitian spectrum of B or B_L, or for a
    # self-dual B one real reduction and its tridiagonal spectrum
    if "--self-dual" in flags:
        assert factorizations == Counter(eigh=1, eigvalsh=1, dgehrd=1, dsterf=1)
    else:
        assert factorizations == Counter(schur=1, eigh=1, eigvalsh=2)
    # a pair of dim 31 runs each on one thread in every OpenBLAS
    assert {n for _, seen in factorizations.threads for n in seen.values()} <= {1}


_ONE_THREAD = """
import builtins
import sys

sys.path.insert(0, sys.argv[1])
import acbott.cli
from support import FACTORIZATIONS, Factorizations, openblas_threads

# argv: the tests directory, then the request as Python code.  scipy is
# first imported inside the request; each route is counted as soon
# as its module has loaded, so that scipy's own OpenBLAS is seen from its
# first factorization on
counts, patched = Factorizations(), set()


def patch_loaded():
    for modname, name in FACTORIZATIONS:
        fn = getattr(sys.modules.get(modname), name, None)
        if fn is not None and (modname, name) not in patched:
            patched.add((modname, name))
            setattr(sys.modules[modname], name, counts.counted(name, fn))


real_import = builtins.__import__


def importing(*args, **kwargs):
    module = real_import(*args, **kwargs)
    patch_loaded()
    return module


before = openblas_threads()
print("scipy loaded:", "scipy" in sys.modules)
patch_loaded()
builtins.__import__ = importing
exec(sys.argv[2])
builtins.__import__ = real_import
print("scipy.linalg loaded:", "scipy.linalg" in sys.modules)
after = openblas_threads()
print("restored:", all(after[lib] == count for lib, count in before.items()))
print("libraries:", len(after))
print("threads:", sorted({(name, count) for name, seen in counts.threads
                          for count in seen.values()}))
"""


def _one_thread(call, names, scipy_linalg):
    """Run ``call`` in a fresh process through ``_ONE_THREAD``: it imports
    ``scipy.linalg`` exactly when ``scipy_linalg`` is true, calls every route
    in ``names`` and runs each factorization on one thread in every
    OpenBLAS, and afterwards each count is back."""
    tests = str(Path(__file__).resolve().parent)
    out = fresh_process(_ONE_THREAD, tests, call).splitlines()
    assert "scipy loaded: False" in out
    assert f"scipy.linalg loaded: {scipy_linalg}" in out
    libraries = int(out[-2].split(": ")[1])
    if libraries == 0:
        pytest.skip("no OpenBLAS thread API in this process")
    assert out[-3] == "restored: True"
    seen = ast.literal_eval(out[-1].split(": ", 1)[1])
    assert {name for name, _ in seen} >= names
    assert {count for _, count in seen} == {1}


@pytest.mark.parametrize("kind, flags", [("cyclic_shift", ()),
                                         ("selfdual_doubling", ("--self-dual",))])
def test_index_factorizes_on_one_blas_thread(tmp_path, capsys, kind, flags):
    # a cold request below the cutoff runs every factorization on one thread
    # in every OpenBLAS, scipy's too, though scipy is first imported inside
    # the request, for W's Schur form or, on a self-dual pair, whose omega
    # takes no Schur form, for the sign's reduction; afterwards each count
    # is restored
    prefix = str(tmp_path / "p31")
    run(capsys, "generate", "--kind", kind, "--n", "31", "--out", prefix)
    argv = ["index", f"{prefix}_U.txt", f"{prefix}_V.txt", "--format", "kv", *flags]
    if "--self-dual" in flags:
        names = {"dgehrd", "dsterf", "eigh", "eigvalsh"}
    else:
        names = {"schur", "eigh", "eigvalsh"}
    _one_thread(f"assert acbott.cli.main({argv!r}) == 0", names, True)


@pytest.mark.parametrize("call, names, scipy_linalg", [
    ("acbott.pfaffian_bott_index(acbott.selfdual_doubling(acbott.cyclic_shift_pair(160)))",
     {"dgehrd", "dsterf", "eigh", "eigvalsh"}, True),
    ("acbott.bott_index(acbott.cyclic_shift_pair(320))", {"eigh", "eigvalsh"}, False),
], ids=["pfaffian_bott_index-dim320", "bott_index-dim320"])
def test_first_call_factorizes_on_one_blas_thread(call, names, scipy_linalg):
    # as the first call of a process, on a pair of dim 320: V's Cayley
    # kernel and B's spectrum use numpy alone, so bott_index never imports
    # scipy.linalg.  The self-dual sign first imports it in its reduction,
    # whose scope opens after that import; R has dim 640, and the scope,
    # sized by the pair's dim 320, still holds every library on one thread
    _one_thread(call, names, scipy_linalg)


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
    "points-zero": (("bounds", "--curve", "beta", "--points", "0"),
                    "error: --points must be at least 1, got 0"),
    "points-negative": (("bounds", "--curve", "beta", "--points", "-1"),
                        "error: --points must be at least 1, got -1"),
    "noise-too-large": (("generate", "--kind", "perturbed", "--n", "8", "--noise", "5"),
                        "error: perturbation size too large"),
    "selfdual-noise-unreached": (("generate", "--kind", "selfdual_doubling", "--n", "8",
                                  "--noise", "3.9"),
                                 "error: perturbation size 3.9 not realized"),
    "noise-inf": (("generate", "--kind", "perturbed", "--n", "8", "--noise", "inf"),
                  "error: perturbation size must be finite and nonnegative, got inf"),
    "noise-nan": (("generate", "--kind", "perturbed", "--n", "8", "--noise", "nan"),
                  "error: perturbation size must be finite and nonnegative, got nan"),
    "selfdual-noise-inf": (("generate", "--kind", "selfdual_doubling", "--n", "8",
                            "--noise", "inf"),
                           "error: perturbation size must be finite and nonnegative, got inf"),
    "selfdual-noise-nan": (("generate", "--kind", "selfdual_doubling", "--n", "8",
                            "--noise", "nan"),
                           "error: perturbation size must be finite and nonnegative, got nan"),
    "selfdual-noise-negative": (("generate", "--kind", "selfdual_doubling", "--n", "8",
                                 "--noise=-0.5"),
                                "error: perturbation size must be finite and nonnegative"),
    "k-zero": (("generate", "--kind", "direct_sum", "--n", "8", "--k", "0"),
               "error: k must be nonzero"),
    "unread-field": (("generate", "--kind", "cyclic_shift", "--n", "8", "--noise", "0.5",
                      "--seed", "3", "--k", "4"),
                     "error: kind cyclic_shift does not read"),
    "max-n-17": (("fourier", "--max-n", "17"), "error: coefficient index capped at 16"),
    "max-n-negative": (("fourier", "--max-n", "-1"),
                       "error: coefficient index capped at 16"),
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
    assert "DimensionMismatch" in err


@pytest.mark.parametrize("text", ["N=7\n", "0\n"])
def test_index_header_that_names_no_n_is_refused(tmp_path, capsys, text):
    prefix = str(tmp_path / "d31")
    run(capsys, "generate", "--kind", "selfdual_doubling", "--n", "31",
        "--out", prefix)
    bad = tmp_path / "bad_N.txt"
    bad.write_text(text)
    rc, out, err = run(capsys, "index", f"{prefix}_U.txt", f"{prefix}_V.txt",
                       "--self-dual", "--header", str(bad))
    assert (rc, out) == (1, "")
    assert "InvalidMatrix" in err


@pytest.mark.parametrize("header", ["N999", "missing"])
def test_index_header_without_self_dual_is_a_usage_error(tmp_path, capsys, header):
    pair = cyclic_shift_pair(4)
    u_file, v_file = str(tmp_path / "U.txt"), str(tmp_path / "V.txt")
    write_matrix(u_file, pair.U)
    write_matrix(v_file, pair.V)
    path = tmp_path / f"{header}.txt"
    if header == "N999":
        path.write_text("999\n")
    with pytest.raises(SystemExit) as exc:
        main(["index", u_file, v_file, "--header", str(path)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: --header needs --self-dual"


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


def test_nearly_unitary_pair_is_certified_only_by_its_polar_parts(tmp_path, capsys):
    # V scaled by 0.985: the computed delta 0.205921 is below the threshold
    # 0.206007, but the polar parts' delta 0.209057 is above it, so no gate
    # wide enough to admit V may certify the pair
    pair = cyclic_shift_pair(30)
    u_file, v_file = str(tmp_path / "U.txt"), str(tmp_path / "V.txt")
    write_matrix(u_file, pair.U)
    write_matrix(v_file, 0.985 * pair.V)
    rc, _, err = run(capsys, "index", u_file, v_file)
    assert rc == 1
    assert "NotUnitary" in err
    rc, out, _ = run(capsys, "index", u_file, v_file, "--polar", "--format", "kv")
    assert rc == 2
    assert {"delta=0.209056927", "kappa_certified=false"} <= set(out.splitlines())
    with pytest.raises(SystemExit) as exc:
        main(["index", u_file, v_file, "--unitary-tol", "0.05"])
    assert exc.value.code == 1


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


def test_bounds_beta_past_its_root_leaves_cells_empty(capsys):
    # gap_guaranteed holds up to beta_root() = 0.20469759 and gap_coarse up
    # to 0.2; past them the cells are empty and no row is dropped
    rc, out, _ = run(capsys, "bounds", "--curve", "beta", "--from", "0.2",
                     "--to", "0.21", "--points", "3")
    assert rc == 0
    assert 0.2 < beta_root() < 0.205
    assert out.splitlines()[1:] == [
        "0.2,0.977240432,0.150862746,0",
        "0.205,1.00146516,,",
        "0.21,1.02568989,,",
    ]


@pytest.mark.parametrize("bound", ["--from=nan", "--from=-0.1", "--to=inf"])
def test_bounds_rejects_a_range_before_writing(tmp_path, capsys, bound):
    # the range is checked before the output opens: no header on stdout,
    # and no file at all
    rc, out, err = run(capsys, "bounds", "--curve", "beta", bound)
    assert (rc, out) == (1, "")
    assert err.startswith("error: delta must be")
    csv = tmp_path / "f.csv"
    rc, out, _ = run(capsys, "bounds", "--curve", "beta", bound, "--out", str(csv))
    assert (rc, out) == (1, "")
    assert not csv.exists()


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
    out = fresh_process(_GUARD, str(tmp_path / "plain"), str(tmp_path / "selfdual"))
    assert "loaded: []" in out
    assert "linprog attribute: True" in out
    assert "stored certificate loaded: False" in out


_FOURIER = """
import sys
import acbott.cli

assert acbott.cli.main(["fourier", "--max-n", "16"]) == 0
print("quadrature loaded:", "scipy.integrate" in sys.modules)
"""


def test_fourier_prints_the_stored_table_without_quadrature():
    out = fresh_process(_FOURIER)
    assert out.splitlines()[-1] == "quadrature loaded: False"
    c16 = acbott.standard_triple().coefficients16
    rows = [line.split(",") for line in out.splitlines()[1:-1]]
    assert [row[3] for row in rows] == [f"{c:.9g}" for c in c16]
