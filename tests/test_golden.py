"""Pinned CLI output, compared byte for byte.

`golden/separation.csv` is the `separation` CSV of rows (0,2..6), (1,2..3)
and (2,3), with the header once.  Row (1,3) hits the matching search's
node cap (`nu_k=10,nu_exact=False`), so it pins the search's node order.
"""

import os

from cnfkc.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_separation_golden_rows(capsys):
    lines = []
    for k, hs in (("0", "2:6"), ("1", "2:3"), ("2", "3")):
        assert main(["separation", "--k-range", k, "--h-range", hs]) == 0
        out = capsys.readouterr().out.splitlines(keepends=True)
        if lines:
            assert out[0] == lines[0]
            out = out[1:]
        lines += out
    with open(os.path.join(GOLDEN, "separation.csv"), newline="") as fh:
        assert "".join(lines) == fh.read()
