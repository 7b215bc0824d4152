"""Differential test against the golden traces in ``golden_traces.npz``.

Every array the recording holds, the trace columns, the row count,
termination, dimension and final iterate of each run, and the digest
and last value of its F column, must be bitwise equal for all 600 runs.
"""

from pathlib import Path

import numpy as np
import pytest

from golden import BATCHES, batch_run, head_digest, head_digests, record

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


def test_digest_ending_in_nul_reads_back_per_run():
    # run 162 of b02 has the one digest of the file that ends in 0x00: it
    # must read back with all 16 bytes, per run, as recorded and as new
    _, res = batch_run(162, **BATCHES["b02"])
    digest = head_digest(res.trace.F)
    assert len(digest) == 16 and digest[-1] == 0
    assert GOLDEN["b02/F_head"][162].tobytes() == digest
    assert head_digests([res.trace.F])[0].tobytes() == digest
