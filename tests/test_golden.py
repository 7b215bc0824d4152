"""Differential test against the golden traces in ``golden_traces.npz``.

Every array the recording holds, the trace columns, the row count,
termination, dimension and final iterate of each run, and the digest
and last value of its F column, must be bitwise equal for all 600 runs.
"""

from pathlib import Path

import numpy as np
import pytest

from golden import BATCHES, head_digest, record

GOLDEN = np.load(Path(__file__).with_name("golden_traces.npz"))


@pytest.mark.parametrize("batch", list(BATCHES))
def test_golden_traces(batch):
    old = {name.split("/", 1)[1]: GOLDEN[name] for name in GOLDEN.files
           if name.startswith(batch + "/")}
    new = {name.split("/", 1)[1]: value for name, value in record(batch).items()}
    assert sorted(new) == sorted(old)
    for name, want in old.items():
        got = new[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_head_digest_sees_one_bit():
    col = np.array([1.0, 2.0, 3.0])
    flipped = col.copy()
    flipped[0] = np.nextafter(1.0, 2.0)
    assert head_digest(col) != head_digest(flipped)
    assert head_digest(col) == head_digest(np.array([1.0, 2.0, -7.0]))
