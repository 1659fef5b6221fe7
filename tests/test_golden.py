"""Pinned CLI output, compared byte for byte.

`golden/separation.csv` is the `separation` CSV of rows (0,2..6), (1,2..3)
and (2,3), with the header once.  Row (1,3) hits the matching search's
node cap (`nu_k=10,nu_exact=False`), so it pins the search's node order.

`golden/<input>.txt` holds, for one input of a small corpus, the stdout of
`kbase` (DIMACS plus sidecar), `measure`, `primes` (DIMACS plus sidecar)
and `trigger`, and `report_to_json(hardness_report(f))`, which pins the
critical primes.  Each section starts with a `$ ` line naming what made
it.  The doped tree at (k=2, h=3) pins only `kbase --k 2`, `measure`,
`primes` and the report (about 0.1 s): its `kbase --k 0/1` and
`trigger --k 1` take seconds to tens of seconds.

Three more inputs pin `mps` (direct route) and `measure --measures
hd,phd`: g_4; the doped tree at (k=0, h=3), which is satisfiable with
hd 1 and phd 2; and an unsatisfiable random 3-CNF with hd 3, whose
level-3 propagation runs level 2 and so the unit-propagation kernel.

`golden/query-<input>.txt` holds, for every corpus input f, the stdout
of `query` at k = whd(f), which its first line names: CO, MC, ME (but
not on the doped tree at (k=2, h=3), whose 16384 models would fill
megabytes), SE and EQ against f's prime implicates, and EQ against f
without its first clause in canonical order.  Two inputs pin more: MC
below whd, which exits 4 and names its witness on stderr, and MC past a
small model cap, before and at the level where the walk meets an
integrity error too.
"""

import os
import random

from cnfkc.cli import (build_extremal_doped, build_g_n, build_horn_chain,
                       main)
from cnfkc.compile import answer_query
from cnfkc.core import clause, emit_dimacs, sorted_clauses, unpack_set
from cnfkc.errors import CnfError
from cnfkc.hardness import hardness_report, report_to_json, whd
from cnfkc.primes import prime_implicates

import pytest

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


def random_cnf(seed, n, m, min_width=2):
    """m distinct clauses of `min_width` to 3 literals over variables
    1..n."""
    rng = random.Random(seed)
    out = set()
    while len(out) < m:
        vs = rng.sample(range(1, n + 1), rng.randint(min_width, 3))
        out.add(clause(v * rng.choice((1, -1)) for v in vs))
    return frozenset(out)


COMMANDS = (("kbase", "--k", "0"), ("kbase", "--k", "1"),
            ("kbase", "--k", "2"),
            ("measure", "--measures", "hd,whd,wid,primes"),
            ("primes",), ("trigger", "--k", "1"))
MPS = ("mps", "--route", "direct")
HD_PHD = ("measure", "--measures", "hd,phd")

# input name -> (clause-set, commands, whether the report is pinned)
CORPUS = {
    "horn-h2": (build_horn_chain(2).doped, COMMANDS, True),
    "horn-h3": (build_horn_chain(3).doped, COMMANDS, True),
    "horn-h4": (build_horn_chain(4).doped, COMMANDS, True),
    "doped-k0-h2": (build_extremal_doped(0, 2)[1].doped, COMMANDS, True),
    "doped-k1-h2": (build_extremal_doped(1, 2)[1].doped, COMMANDS, True),
    "doped-k2-h3": (build_extremal_doped(2, 3)[1].doped,
                    (COMMANDS[2], COMMANDS[3], COMMANDS[4]), True),
    "random-s1-n6": (random_cnf(1, 6, 8), COMMANDS, True),
    "random-s3-n7": (random_cnf(3, 7, 10), COMMANDS, True),
    "g-4": (build_g_n(4), (MPS,), False),
    "doped-k0-h3": (build_extremal_doped(0, 3)[1].doped, (MPS, HD_PHD),
                    False),
    "random3-s2-n8": (random_cnf(2, 8, 30, min_width=3), (HD_PHD,), False),
}


def render(name, tmp_path, capsys):
    """The golden text of one corpus input under the current code."""
    f, commands, with_report = CORPUS[name]
    path = tmp_path / (name + ".cnf")
    path.write_text(emit_dimacs(f))
    parts = []
    for argv in commands:
        assert main([argv[0], str(path)] + list(argv[1:])) == 0
        parts.append("$ cnfkc %s\n" % " ".join(argv))
        parts.append(capsys.readouterr().out)
    if with_report:
        parts.append("$ report_to_json(hardness_report(f))\n")
        parts.append(report_to_json(hardness_report(f)) + "\n")
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_command_goldens(name, tmp_path, capsys):
    with open(os.path.join(GOLDEN, name + ".txt"), newline="") as fh:
        assert render(name, tmp_path, capsys) == fh.read()


# input name -> extra runs: CLI argv with "IN" for the input, or a
# (kind, k, cap_models) call of `answer_query`
QUERY_EXTRAS = {
    # the walk meets its integrity error before the cap
    "random-s1-n6": [("query", "--kind", "MC", "--k", "0", "IN"),
                     ("MC", 0, 5)],
    # the cap is met before the walk's integrity error at k = 0
    "random-s3-n7": [("query", "--kind", "MC", "--k", "0", "IN"),
                     ("MC", 0, 5), ("MC", 1, 5)],
}


def render_queries(name, tmp_path, capsys):
    """The query golden text of one corpus input under the current code."""
    f = CORPUS[name][0]
    k = str(whd(f))
    paths = {}
    for label, g in (("IN", f), ("PRIMES", unpack_set(prime_implicates(f))),
                     ("REST", frozenset(sorted_clauses(f)[1:]))):
        paths[label] = tmp_path / (label + ".cnf")
        paths[label].write_text(emit_dimacs(g))
    kinds = [("CO",), ("MC",), ("ME",), ("SE", "--other", "PRIMES"),
             ("EQ", "--other", "PRIMES"), ("EQ", "--other", "REST")]
    if name == "doped-k2-h3":
        kinds.remove(("ME",))
    runs = [("query", "--kind", kind[0], "--k", k, "IN") + kind[1:]
            for kind in kinds] + QUERY_EXTRAS.get(name, [])
    parts = []
    for run in runs:
        if run[0] != "query":
            kind, level, cap = run
            parts.append("$ answer_query(%r, f, %d, cap_models=%d)\n"
                         % run)
            try:
                parts.append("%r\n" % answer_query(kind, f, level,
                                                    cap_models=cap))
            except CnfError as err:
                parts.append("%s: %s\nwitness: %r\n"
                             % (type(err).__name__, err,
                                getattr(err, "witness", None)))
            continue
        parts.append("$ cnfkc %s\n" % " ".join(run))
        code = main([str(paths[a]) if a in paths else a for a in run])
        captured = capsys.readouterr()
        parts.append(captured.out)
        if code:
            parts.append("exit %d\n%s" % (code, captured.err))
        else:
            assert captured.err == ""
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_query_goldens(name, tmp_path, capsys):
    with open(os.path.join(GOLDEN, "query-%s.txt" % name),
              newline="") as fh:
        assert render_queries(name, tmp_path, capsys) == fh.read()
