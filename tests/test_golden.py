"""Differential test against the golden traces in ``golden_traces.npz``.

The goldens were recorded with the five separate search functions that
preceded the single grid-walk kernel. Two differences are expected:

- in the general domain regime every row makes one prox evaluation
  fewer, because the domain walk's prox point is the first trial of the
  search that follows it;
- a run that ended at the fixed-point tolerance may differ in its
  terminal row: the searches no longer accept the first grid point
  untested when ||y - x||_W is within the tolerance.

Everything else, the termination and the iteration count of every run
included, must be bitwise equal.
"""

from pathlib import Path

import numpy as np
import pytest

from golden import BATCHES, COLUMNS, head_digest, record

GOLDEN = np.load(Path(__file__).with_name("golden_traces.npz"))


@pytest.mark.parametrize("batch", list(BATCHES))
def test_golden_traces(batch):
    old = {name.split("/", 1)[1]: GOLDEN[name] for name in GOLDEN.files
           if name.startswith(batch + "/")}
    new = {name.split("/", 1)[1]: value for name, value in record(batch).items()}

    for name in ("rows", "termination", "dims", "general", "F_head"):
        assert np.array_equal(new[name], old[name]), name

    rows = old["rows"]
    # the terminal row is pinned unless the run ended at the tolerance
    last_pinned = old["termination"] != "fixed_point"
    if batch == "b02":
        assert last_pinned.all()
    pinned = np.ones(rows.sum(), dtype=bool)
    pinned[np.cumsum(rows) - 1] = last_pinned
    general_rows = np.repeat(old["general"], rows)
    for name in COLUMNS:
        want = old[name] - general_rows if name == "prox_evals" else old[name]
        assert np.array_equal(new[name][pinned], want[pinned]), name
    assert np.array_equal(new["F_last"][last_pinned], old["F_last"][last_pinned])
    x_pinned = np.repeat(last_pinned, old["dims"])
    assert np.array_equal(new["x_final"][x_pinned], old["x_final"][x_pinned])


def test_head_digest_sees_one_bit():
    col = np.array([1.0, 2.0, 3.0])
    flipped = col.copy()
    flipped[0] = np.nextafter(1.0, 2.0)
    assert head_digest(col) != head_digest(flipped)
    assert head_digest(col) == head_digest(np.array([1.0, 2.0, -7.0]))
