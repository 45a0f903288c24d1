"""Each public call has one path: no option that no caller sets comes back.

The indices' thresholds, the certification's threshold and step budget and
the gate tolerances are fixed constants.  The keyword names below were once
parameters of these functions and are not any more; the certification
takes only its delta, its mesh and its fine grid.  Whether a pair is
self-dual is its type's to say: ``analyze`` takes the self-dual route for a
``SelfDualPair``, which only ``make_selfdual_pair`` makes.
"""

import inspect

import pytest

from acbott import analysis, bott, bounds, linalg, logmethod, selfdual, winding

RETIRED = [
    (bott.build_B, {"use_trigpoly"}),
    (bott.bott_index, {"use_trigpoly", "allow_uncertified"}),
    (bott.require_certified, {"allow_uncertified"}),
    (bott.signature, {"gap_tol"}),
    (bott._count_signature, {"gap_tol"}),
    (bott._in_standard_basis, {"h_part"}),
    (selfdual.pfaffian_bott_index, {"use_trigpoly", "allow_uncertified"}),
    (selfdual.selfdual_distance_bounds, {"kappa2_a", "kappa2_b"}),
    (selfdual.make_selfdual_pair, {"selfdual_tol"}),
    (selfdual.pfaffian, {"tol"}),
    (selfdual.modified_pfaffian, {"tol"}),
    (selfdual.check_kramers, {"pair_tol"}),
    (selfdual._hermitian_part, {"self_dual"}),
    (logmethod.kappa2_log, {"allow_uncertified"}),
    (logmethod.principal_log, {"tol", "self_dual"}),
    (logmethod.build_BL, {"self_dual"}),
    (linalg.unitary_part, {"singular_tol"}),
    (linalg.hermitian_eig, {"tol"}),
    (linalg.apply_periodic, {"tol"}),
    (linalg.apply_trigpoly, {"tol"}),
    (linalg.TrigPoly.is_real_valued, {"tol"}),
    (winding.winding_via_path, {"steps"}),
    (analysis.analyze, {"self_dual"}),
    (bounds.certify_log_path, {"config"}),
]


@pytest.mark.parametrize(
    "fn, names", RETIRED, ids=[fn.__qualname__ for fn, _ in RETIRED]
)
def test_retired_keyword_is_not_a_parameter(fn, names):
    assert not names & set(inspect.signature(fn).parameters)


def test_certify_config_holds_only_the_search_sizes():
    # the certification verifies stored vectors, so it has no search sizes
    parameters = tuple(inspect.signature(bounds.certify_log_path).parameters)
    assert parameters == ("delta", "mesh", "fine_grid")

