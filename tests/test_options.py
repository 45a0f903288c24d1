"""Each public call has one path: no option that no caller sets comes back.

The indices' thresholds, the certification's threshold and step budget,
the gate tolerances and the Fourier series length are fixed constants, and
no library call or command line option takes a tolerance.  The keyword
names below were once parameters of these functions and are not any more;
the certification takes only its delta and its mesh.
Whether a pair is self-dual is its type's to say: ``analyze`` takes the
self-dual route for a ``SelfDualPair``, which only ``make_selfdual_pair``
makes.
"""

import argparse
import inspect
from dataclasses import fields

import pytest

import acbott
import support
from acbott import (
    analysis,
    bott,
    bounds,
    cli,
    config,
    errors,
    generators,
    linalg,
    logmethod,
    selfdual,
    winding,
)

RETIRED = [
    (bott.build_B, {"use_trigpoly"}),
    (bott.bott_index, {"use_trigpoly", "allow_uncertified"}),
    (bott.require_certified, {"allow_uncertified"}),
    (bott.signature, {"gap_tol", "tol"}),  # once hermitian_eig's
    (bott._count_signature, {"gap_tol"}),
    (bott._in_standard_basis, {"h_part"}),
    (support.fourier_coefficients_h, {"series_K"}),
    (selfdual.pfaffian_bott_index, {"use_trigpoly", "allow_uncertified"}),
    (selfdual.selfdual_distance_bounds, {"kappa2_a", "kappa2_b"}),
    (selfdual.make_selfdual_pair, {"selfdual_tol", "unitary_tol"}),
    (selfdual._kramers_basis, {"tol"}),
    (selfdual._pfaffian_sign, {"tol"}),
    (support.pfaffian, {"tol"}),  # test oracles now, as they moved
    (support.modified_pfaffian, {"tol"}),
    (support.check_kramers, {"pair_tol"}),
    (logmethod.kappa2_log, {"allow_uncertified"}),
    (support.principal_log, {"tol", "self_dual"}),
    (logmethod.build_BL, {"self_dual"}),
    (linalg.make_pair, {"unitary_tol"}),
    (support.unitary_eig, {"tol"}),
    (linalg._cayley_angles, {"tol"}),
    (linalg.unitary_part, {"singular_tol"}),
    (support.apply_periodic, {"tol"}),
    (support.apply_trigpoly, {"tol"}),
    (support.TrigPoly.is_real_valued, {"tol"}),
    (support.winding_via_path, {"steps"}),
    (analysis.analyze, {"self_dual"}),
    (bounds.certify_log_path, {"config", "fine_grid"}),
    (bounds._certify, {"fine_grid"}),
]


@pytest.mark.parametrize(
    "fn, names", RETIRED, ids=[fn.__qualname__ for fn, _ in RETIRED]
)
def test_retired_keyword_is_not_a_parameter(fn, names):
    assert not names & set(inspect.signature(fn).parameters)


# routes only the tests call: oracles in tests/support.py, not the package's
TEST_ONLY = {
    bott: ("fourier_coefficients_h",),
    linalg: (
        "unitary_eig",
        "apply_periodic",
        "apply_trigpoly",
        "TrigPoly",
        "commutator_norm",
    ),
    logmethod: ("principal_log", "PrincipalLog"),
    selfdual: ("check_kramers", "dual_tensor"),
    winding: ("winding_via_path",),
    bounds: (
        "eta_lines",
        "_eta_f_rows",
        "_eta_h_rows",
        "_drift_gate",
        "_REFERENCE_F",
        "_REFERENCE_H",
        "_HPRIME_MASS_CAP",
    ),
    errors: (
        "OddDimension",
        "NotSkewSymmetric",
        "AccuracyNotCertified",
        "MeshTooCoarse",
    ),
    config: ("ENVELOPE_GRID",),
}


def test_test_only_routes_live_in_the_tests():
    for module, names in TEST_ONLY.items():
        for name in names:
            assert not hasattr(acbott, name), name
            assert not hasattr(module, name), name
            assert hasattr(support, name), name
    # only the envelope oracle's guards raised these; they are assertions now
    for name in ("TableDrift", "InvalidPolynomial"):
        assert not hasattr(acbott, name) and not hasattr(errors, name), name
        assert not hasattr(support, name), name
    # wrappers folded into their one caller: signature gates its matrix
    # itself, _eigenbasis_B returns its spectrum, the pair kinds live in KINDS
    for module, name in (
        (acbott, "hermitian_eig"),
        (linalg, "hermitian_eig"),
        (bott, "_spectrum_in_eigenbasis"),
        (selfdual, "_hermitian_part"),
        (generators, "_READS"),
    ):
        assert not hasattr(module, name) and not hasattr(support, name), name
    # the degree-5 approximants are the oracle's, not the standard triple's
    assert [f.name for f in fields(bott.StandardTriple)] == ["f", "g", "h", "coefficients16"]


def test_the_command_line_offers_the_generator_kinds():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (kind,) = [a for a in commands.choices["generate"]._actions if a.dest == "kind"]
    assert kind.choices == tuple(generators.KINDS)


def test_certify_config_holds_only_the_search_sizes():
    # the certification verifies stored vectors, so it has no search sizes
    parameters = tuple(inspect.signature(bounds.certify_log_path).parameters)
    assert parameters == ("delta", "mesh")


def _exported_callables():
    for name in dir(acbott):
        obj = getattr(acbott, name)
        if name.startswith("_") or not callable(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_exported_callable_takes_a_tolerance():
    takes = [
        name
        for name, fn in _exported_callables()
        if any("tol" in p for p in inspect.signature(fn).parameters)
    ]
    assert takes == []
    assert [f.name for f in fields(linalg.UnitaryPair)] == ["U", "V", "delta"]
    assert tuple(inspect.signature(support.fourier_coefficients_h).parameters) == ("max_n",)


def test_no_command_line_option_sets_a_tolerance_or_a_series():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = [
        option
        for sub in commands.choices.values()
        for action in sub._actions
        for option in action.option_strings
    ]
    assert "--polar" in options
    assert [o for o in options if "tol" in o or "series" in o] == []


def test_each_command_line_answer_has_one_route():
    # certify_log_path takes any mesh from Python; the command line runs the
    # stored one, and the gap columns come only with --curve beta
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    certify = commands.choices["certify-log"]
    assert "--mesh" not in [o for a in certify._actions for o in a.option_strings]
    (curve,) = [a for a in commands.choices["bounds"]._actions if a.dest == "curve"]
    assert "gap" not in curve.choices
