"""Each public call has one path: no option that no caller sets comes back.

The indices' thresholds, the certification's threshold and step budget and
the gate tolerances are fixed constants.  The keyword names below were once
parameters of these functions and are not any more; a ``CertifyConfig``
holds only the certification's mesh and search sizes.
"""

import dataclasses
import inspect

import pytest

from acbott import bott, linalg, logmethod, selfdual, winding
from acbott.config import CertifyConfig

RETIRED = [
    (bott.build_B, {"use_trigpoly"}),
    (bott.bott_index, {"use_trigpoly", "allow_uncertified"}),
    (bott.require_certified, {"allow_uncertified"}),
    (bott.signature, {"gap_tol"}),
    (bott._count_signature, {"gap_tol"}),
    (selfdual.pfaffian_bott_index, {"use_trigpoly", "allow_uncertified"}),
    (selfdual.selfdual_distance_bounds, {"kappa2_a", "kappa2_b"}),
    (selfdual.make_selfdual_pair, {"selfdual_tol"}),
    (selfdual.pfaffian, {"tol"}),
    (selfdual.modified_pfaffian, {"tol"}),
    (selfdual.check_kramers, {"pair_tol"}),
    (logmethod.kappa2_log, {"allow_uncertified"}),
    (logmethod.principal_log, {"tol", "self_dual"}),
    (logmethod.build_BL, {"self_dual"}),
    (linalg.unitary_part, {"singular_tol"}),
    (linalg.hermitian_eig, {"tol"}),
    (linalg.apply_periodic, {"tol"}),
    (linalg.apply_trigpoly, {"tol"}),
    (linalg.TrigPoly.is_real_valued, {"tol"}),
    (winding.winding_via_path, {"steps"}),
]


@pytest.mark.parametrize(
    "fn, names", RETIRED, ids=[fn.__qualname__ for fn, _ in RETIRED]
)
def test_retired_keyword_is_not_a_parameter(fn, names):
    assert not names & set(inspect.signature(fn).parameters)


def test_certify_config_holds_only_the_search_sizes():
    fields = tuple(f.name for f in dataclasses.fields(CertifyConfig))
    assert fields == ("mesh_per_stage", "max_degree", "fine_grid", "coarse_points")

