"""The outer search's cell rule: two probes are one cell when every coordinate
agrees after ``round(., 12)``.

A query whose search reads such a merged cell pins the rule's effect on its
value (``gen1d_tenths`` in ``tests/test_golden.py``); here the reads are
counted, and a lattice far from the origin keeps its cells apart.
"""

import warnings

import numpy as np
import pytest

from laxhopf import OuterGrid, laxhopf_core
from laxhopf.laxhopf_core import _outer_minimize
from test_golden import queries


def key(om, ups):
    return round(om, 12), tuple(round(u, 12) for u in ups)


def merged_reads(monkeypatch, query):
    """Reads, by the walk or a look-ahead, of a cell that was not priced itself
    but whose key was priced at another exact point."""
    priced, merged = {}, []
    search, outer = laxhopf_core._search, laxhopf_core._outer_minimize

    def recording_search(read, *args):
        def record(cell, state):
            if cell not in priced.get(key(*cell), {cell}):
                merged.append(cell)
            return read(cell, state)
        return search(record, *args)

    def recording_outer(grid, cells_fn, omega_max):
        def price(cells):
            for cell in cells:
                priced.setdefault(key(*cell), set()).add(cell)
            return cells_fn(cells)
        return outer(grid, price, omega_max)

    monkeypatch.setattr(laxhopf_core, "_search", recording_search)
    monkeypatch.setattr(laxhopf_core, "_outer_minimize", recording_outer)
    assert query().value.is_finite
    return len(merged)


@pytest.mark.parametrize("name, reads", [
    ("classic1d", 0),
    ("gen1d", 0),
    ("gen1d_negative", 0),
    ("gen2d", 0),
    ("quickstart", 0),
    ("velocity_rate", 0),
    ("gen1d_tenths", 12),
])
def test_merged_reads(monkeypatch, name, reads):
    assert merged_reads(monkeypatch, queries()[name]) == reads


def test_far_lattice_cells_stay_apart():
    # rounding a coordinate this large must neither overflow nor merge two cells
    batches = []

    def cells_fn(cells):
        batches.append(cells)
        return [(2.0 if om == 0.0 else ups[0] / 1e300, None) for om, ups in cells]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, omega, ups, _ = _outer_minimize(OuterGrid([1.0], [[2e300], [1e300]], max_rounds=0), cells_fn, 1.0)
    assert batches == [[(0.0, (0.0,)), (1.0, (2e300,)), (1.0, (1e300,))]]
    assert (value, omega) == (1.0, 1.0) and np.array_equal(ups, [1e300])
