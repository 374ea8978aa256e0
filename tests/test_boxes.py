"""The one [lo, hi] box reader and the aperture range of ``jensen_suite``.

Every entry that takes a box reads it as the catalog reads a ``domain``: finite
numbers only, so a string is misuse that names the box.
"""

import pytest

import laxhopf as lh
from laxhopf.errors import MisuseError, ParameterError

CFG = lh.SolverConfig(n_steps=2, multi_starts=0, max_iter=2)
QUAD = lh.make_cost("quadratic")
STRINGS = [["-1", "1"]]

# each entry that reads a box: the name of its box, and a call that reads ``box``
ENTRIES = {
    "OuterGrid.build": ("upsilon_box", lambda box: lh.OuterGrid.build(1.0, 1, box, 2)),
    "DPGrids.build": ("state_box", lambda box: lh.DPGrids.build(0.0, 1.0, 2, box, 0.5, [[-1, 1]], 1.0)),
    "check_marchaud": ("x_box", lambda box: lh.check_marchaud(QUAD, 1.0, (0.0, 1.0), box, 1)),
    "jensen_suite": ("upsilon_box", lambda box: lh.jensen_suite(QUAD, 1, (0.5, 1.0), box, CFG)),
    "CostField": ("domain_box", lambda box: lh.CostField(batch_evaluator=lambda t, X, U: U[:, 0], domain_box=box)),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_box_of_strings_is_misuse(entry):
    name, call = ENTRIES[entry]
    with pytest.raises(MisuseError, match=rf"^{name} needs"):
        call(STRINGS)


@pytest.mark.parametrize("box", [STRINGS, [[1, -1]], [-1, 1], [[-1, 1, 0]], [], "x", [[True, False]]])
def test_catalog_domain_is_a_parameter_error(box):
    # the catalog reads its domain through the same reader and keeps its own error
    with pytest.raises(ParameterError, match=r"expected \[lo, hi\] pairs") as err:
        lh.make_cost("quadratic", domain=box)
    assert err.value.param == "domain"


@pytest.mark.parametrize("omega_range", [(-1.0, -0.5), (0.0, 1.0), (0.9, 0.2), (0.2, 0.6, 0.9), (0.5,), 0.5,
                                         ("0.2", "0.6")])
def test_jensen_suite_names_omega_range(omega_range):
    with pytest.raises(MisuseError, match="^omega_range needs two finite numbers 0 < lo <= hi"):
        lh.jensen_suite(QUAD, 2, omega_range, [[-1, 1]], CFG)
