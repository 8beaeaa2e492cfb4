"""Cross-version determinism: `thagg run` reproduces checked-in artifacts.

The files under tests/data were written by `thagg run` on the two configs
there (n = 1024, L = 3, q above 2^64). A fixed root seed must keep giving
the same transcript and aggregate bytes as the code changes underneath.
"""

from pathlib import Path

import pytest

from thagg import cli

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("scheme", ["mbfv", "mckks"])
def test_run_reproduces_golden_artifacts(scheme, tmp_path, capsys):
    out = tmp_path / scheme
    assert cli.main(["run", "-c", str(DATA / f"golden_{scheme}.ini"),
                     "-o", str(out)]) == 0
    capsys.readouterr()
    for name, golden in (("transcript.txt", f"golden_{scheme}_transcript.txt"),
                         ("aggregate.npy", f"golden_{scheme}_aggregate.npy")):
        assert (out / name).read_bytes() == (DATA / golden).read_bytes(), name
