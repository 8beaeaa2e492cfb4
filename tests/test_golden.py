"""Cross-version determinism: `thagg run` reproduces checked-in artifacts.

The files under tests/data were written by `thagg run` on the configs there
(n = 1024, q above 2^64). A fixed root seed must keep giving the same
transcript and aggregate bytes as the code changes underneath. `mbfv_bigt`
has t = 2^70 and 66 fixed-point bits, so its encoded values, its BFV
rounding and its cleartext oracle all leave int64.
"""

from pathlib import Path

import pytest

from thagg import cli

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("scheme", ["mbfv", "mckks", "mbfv_bigt"])
def test_run_reproduces_golden_artifacts(scheme, tmp_path, capsys):
    out = tmp_path / scheme
    assert cli.main(["run", "-c", str(DATA / f"golden_{scheme}.ini"),
                     "-o", str(out)]) == 0
    capsys.readouterr()
    for name, golden in (("transcript.txt", f"golden_{scheme}_transcript.txt"),
                         ("aggregate.npy", f"golden_{scheme}_aggregate.npy")):
        assert (out / name).read_bytes() == (DATA / golden).read_bytes(), name
