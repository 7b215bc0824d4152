"""Differential test against the golden traces in ``golden_paths.npz``.

Every array the recording holds, the fifteen trace columns, the final
iterates, the terminations and the recorded states, must be bitwise
equal (NaN entries included, at the same places).
"""

from pathlib import Path

import numpy as np
import pytest

from golden_paths import BATCHES, record

GOLDEN = np.load(Path(__file__).with_name("golden_paths.npz"))


@pytest.mark.parametrize("batch", BATCHES)
def test_golden_paths(batch):
    old = {name.split("/", 1)[1]: GOLDEN[name] for name in GOLDEN.files
           if name.startswith(batch + "/")}
    new = {name.split("/", 1)[1]: value for name, value in record(batch).items()}
    assert sorted(new) == sorted(old)
    for name, want in old.items():
        got = new[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_golden_paths_reach_their_paths():
    terminations = {b: set(GOLDEN[f"{b}/termination"].tolist()) for b in BATCHES}
    assert terminations["table"] == {"objective_stall"}
    assert terminations["failure"] == {"search_failure"}
    assert np.isnan(GOLDEN["custom/check_max_residual"]).all()
    assert not np.isnan(GOLDEN["bb/domain_gamma"]).all()
    for batch in ("bb", "states", "failure"):
        assert f"{batch}/states_weights" in GOLDEN.files
