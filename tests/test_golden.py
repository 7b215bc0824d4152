"""Differential test against the golden traces in ``golden_traces.npz``.

Every array the recording holds for the eight batches of ``golden.py``,
the trace columns (or the digest and last value of F), the row count,
termination, dimension and final iterate of each run and the recorded
states, must be bitwise equal (NaN entries included, at the same places).
A batch whose bytes differ names the numpy, OpenBLAS and OpenBLAS core
the file was recorded with and those of the running process.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

import vmfbs
from golden import BATCHES, environment, head_digest, head_digests, record, runs

GOLDEN = np.load(Path(__file__).with_name("golden_traces.npz"))


def _environments() -> str:
    """The recorded and the running environment, side by side."""
    return "; ".join(
        f"{name[5:]} recorded {GOLDEN[name] if name in GOLDEN.files else 'nothing'}, running {now}"
        for name, now in environment().items()
    )


@pytest.mark.parametrize("batch", BATCHES)
def test_golden_traces(batch):
    old = {name.split("/", 1)[1]: GOLDEN[name] for name in GOLDEN.files
           if name.startswith(batch + "/")}
    new = {name.split("/", 1)[1]: value for name, value in record(batch).items()}
    assert sorted(new) == sorted(old)
    for name, want in old.items():
        got = new[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), f"{name} ({_environments()})"


def test_golden_file_names_its_environment():
    for name in environment():
        assert name in GOLDEN.files and str(GOLDEN[name]), name


def test_golden_paths_reach_their_paths():
    terminations = {b: set(GOLDEN[f"{b}/termination"].tolist()) for b in BATCHES}
    assert terminations["table"] == {"objective_stall"}
    assert terminations["failure"] == {"search_failure"}
    assert not np.isnan(GOLDEN["bb/domain_gamma"]).all()
    for batch in ("bb", "states", "failure"):
        assert f"{batch}/states_weights" in GOLDEN.files


def test_head_digest_sees_one_bit():
    col = np.array([1.0, 2.0, 3.0])
    flipped = col.copy()
    flipped[0] = np.nextafter(1.0, 2.0)
    assert head_digest(col) != head_digest(flipped)
    assert head_digest(col) == head_digest(np.array([1.0, 2.0, -7.0]))


def test_digest_ending_in_nul_reads_back_per_run():
    # run 162 of b02 has the one digest of the file that ends in 0x00: it
    # must read back with all 16 bytes, per run, as recorded and as new
    problem, x0, config = next(itertools.islice(runs("b02"), 162, None))
    F = vmfbs.solve(problem, x0, config).trace.F
    digest = head_digest(F)
    assert len(digest) == 16 and digest[-1] == 0
    assert GOLDEN["b02/F_head"][162].tobytes() == digest
    assert head_digests([F])[0].tobytes() == digest
