import csv
import dataclasses
import io
import json
import os
import subprocess
import sys

import cnfkc
from cnfkc import trigger
from cnfkc.cli import (build_g_n, build_horn_chain, build_parser, main,
                       separation_row)
from cnfkc.core import (clause, emit_dimacs, measures,
                        parse_dimacs_document)

import pytest


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


DIFF = cs([2, 3, 4], [-4, 2], [-2, 1, 5], [-5, -2], [-3, 1, 6], [-6, -3],
          [7, 8, 9], [-9, 7], [-7, -1, 10], [-10, -7], [-8, -1, 11],
          [-11, -8])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_extremal_doped(capsys):
    code, out = run(capsys, "generate", "--family", "extremal_doped",
                    "--k", "1", "--h", "3")
    assert code == 0
    f = parse_dimacs_document(out).clauses
    assert len(f) == 7
    assert len(measures(f).__dict__) and measures(f).c == 7


def test_generate_horn_chain(capsys):
    code, out = run(capsys, "generate", "--family", "horn_chain",
                    "--h", "3")
    assert code == 0
    m = measures(parse_dimacs_document(out).clauses)
    assert m.n == 7 and m.c == 4


def test_generate_g_n(capsys):
    code, out = run(capsys, "generate", "--family", "g_n", "--n", "3")
    assert code == 0
    assert parse_dimacs_document(out).clauses == build_g_n(3)
    assert len(parse_dimacs_document(out).clauses) == 4


def test_generate_writes_metadata(tmp_path, capsys):
    target = tmp_path / "f.cnf"
    code, _ = run(capsys, "generate", "--family", "extremal_doped",
                  "--k", "1", "--h", "2", "--out", str(target))
    assert code == 0
    meta = json.loads((tmp_path / "f.cnf.json").read_text())
    assert meta["family"] == "extremal_doped"
    assert meta["tree"].startswith("(")
    assert len(meta["doping_map"]) == 4


def test_generate_rerun_byte_identical(capsys):
    _, first = run(capsys, "generate", "--family", "extremal_doped",
                   "--k", "2", "--h", "3")
    _, second = run(capsys, "generate", "--family", "extremal_doped",
                    "--k", "2", "--h", "3")
    assert first == second


def test_measure_hardness_example(tmp_path, capsys):
    path = tmp_path / "diff.cnf"
    path.write_text(emit_dimacs(DIFF))
    code, out = run(capsys, "measure", str(path),
                    "--measures", "n,c,hd,whd")
    assert code == 0
    report = json.loads(out)
    assert report["hd"] == 3 and report["whd"] == 2
    assert report["n"] == 11 and report["c"] == 12


def test_measure_horn_chain(tmp_path, capsys):
    for h in (2, 3):
        path = tmp_path / ("f%d.cnf" % h)
        path.write_text(emit_dimacs(build_horn_chain(h).doped))
        code, out = run(capsys, "measure", str(path),
                        "--measures", "hd,primes,mps")
        assert code == 0
        report = json.loads(out)
        assert report["hd"] == 1
        assert report["primes"] == 2 ** (h + 1) - 1
        assert report["mps"] == 2 ** (h + 1) - 1


def test_measure_empty_clause_set(tmp_path, capsys):
    path = tmp_path / "top.cnf"
    path.write_text("p cnf 0 0\n")
    code, out = run(capsys, "measure", str(path),
                    "--measures", "n,c,ell,hd,whd,phd")
    assert code == 0
    report = json.loads(out)
    assert all(report[k] == 0 for k in ("n", "c", "ell", "hd", "whd", "phd"))


def test_measure_reports_caps_per_measure(tmp_path, capsys):
    # 25 variables: over the satisfiability oracle's default cap of 24
    path = tmp_path / "wide.cnf"
    f = frozenset(clause([v]) for v in range(1, 26))
    path.write_text(emit_dimacs(f))
    code, out = run(capsys, "measure", str(path),
                    "--measures", "n,phd")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 25
    assert report["phd"] is None
    assert report["cap_exceeded"][0]["measure"] == "phd"


def test_measure_phd_beyond_twelve_variables(tmp_path, capsys):
    from cnfkc.cli import build_extremal_doped
    path = tmp_path / "doped.cnf"
    f = build_extremal_doped(1, 3)[1].doped
    path.write_text(emit_dimacs(f))
    code, out = run(capsys, "measure", str(path), "--measures", "n,phd")
    assert code == 0
    assert json.loads(out) == {"n": 13, "phd": 3}


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 -1 0\n")
    code, _ = run(capsys, "measure", str(path))
    assert code == 2


def test_satlib_percent_trailer_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "satlib.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n%\n0\n\n")
    assert main(["measure", str(path)]) == 2
    assert "bad token '%'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (("query", "--kind", "CE", "--k", "1", "--clause", "1 a", "IN"), None),
    (("query", "--kind", "IM", "--k", "1", "--assignment", "1=x", "IN"),
     None),
    (("separation", "--k-range", "a", "--h-range", "2"), None),
    (("separation", "--k-range", "1", "--h-range", "2"), "cap_primes = x\n"),
    (("generate", "--family", "file"), None),
])
def test_malformed_arguments_are_parse_errors(argv, config, tmp_path,
                                              capsys):
    # a malformed integer or a missing input is a ParseError: exit 2 and
    # one error line, not a traceback
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    argv = [str(path) if a == "IN" else a for a in argv]
    if config is not None:
        cfg = tmp_path / "cnfkc.cfg"
        cfg.write_text(config)
        argv = ["--config", str(cfg)] + argv
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, config, message", [
    # the answer would depend on which entry came last
    (("query", "--kind", "IM", "--k", "1", "--assignment", "1=1,1=0", "IN"),
     None, "variable 1 assigned twice"),
    # a reversed range would print only the header
    (("separation", "--k-range", "3:1", "--h-range", "2"), None,
     "range '3:1' is reversed"),
    (("separation", "--k-range", "1", "--h-range", "4:2"), None,
     "range '4:2' is reversed"),
    # an unknown format would print CSV
    (("separation", "--k-range", "1", "--h-range", "2"), "format = xml\n",
     "format must be one of csv, json, table, got 'xml'"),
    # a misspelt key would be ignored
    (("measure", "IN"), "cap_var = 4\n", "unknown config key 'cap_var'"),
    # no row has h >= k + 1, so only the header would print
    (("separation", "--k-range", "3", "--h-range", "2"), None,
     "no (k, h) pair of the ranges has h >= k + 1"),
    # variable 0 occurs in no clause-set, so IM would answer false
    (("query", "--kind", "IM", "--k", "1", "--assignment", "0=1", "IN"),
     None, "assignment variable must be at least 1, got 0"),
    # no level or size is negative: these would answer, print or fail
    # in a traceback
    (("kbase", "--k", "-1", "IN"), None, "--k must be at least 0, got -1"),
    (("trigger", "--k", "-1", "IN"), None, "--k must be at least 0, got -1"),
    (("query", "--kind", "MC", "--k", "-1", "IN"), None,
     "--k must be at least 0, got -1"),
    (("query", "--kind", "CE", "--k", "-2", "--clause=1", "IN"), None,
     "--k must be at least 0, got -2"),
    (("generate", "--family", "horn_chain", "--h", "-2"), None,
     "--h must be at least 0, got -2"),
    (("generate", "--family", "g_n", "--n", "-3"), None,
     "--n must be at least 0, got -3"),
    # a negative cap would flag every answer capped, or exit 3
    (("measure", "--cap-vars", "-1", "IN"), None,
     "--cap-vars must be at least 0, got -1"),
    (("primes", "--cap-vars", "-1", "IN"), None,
     "--cap-vars must be at least 0, got -1"),
    (("separation", "--k-range", "1", "--h-range", "2", "--cap-primes",
      "-1"), None, "--cap-primes must be at least 0, got -1"),
    (("measure", "IN"), "cap_vars = -3\n",
     "config key cap_vars must be at least 0, got -3"),
    (("separation", "--k-range", "1", "--h-range", "2"),
     "cap_primes = -1\n", "config key cap_primes must be at least 0, got -1"),
    # a negative level has no extremal tree, which named no flag
    (("generate", "--family", "extremal_doped", "--k", "-1"), None,
     "--k must be at least 0, got -1"),
    (("separation", "--k-range", "-1", "--h-range", "2"), None,
     "--k-range must be at least 0, got -1"),
])
def test_ambiguous_or_unknown_settings_are_parse_errors(argv, config, message,
                                                        tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    argv = [str(path) if a == "IN" else a for a in argv]
    if config is not None:
        cfg = tmp_path / "cnfkc.cfg"
        cfg.write_text(config)
        argv = ["--config", str(cfg)] + argv
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_config_accepts_each_known_key(tmp_path, capsys):
    cfg = tmp_path / "cnfkc.cfg"
    cfg.write_text("cap_vars = 24\ncap_primes = 18\nformat = json\n")
    code, out = run(capsys, "--config", str(cfg), "separation",
                    "--k-range", "1", "--h-range", "2")
    assert code == 0 and [r["k"] for r in json.loads(out)] == [1]


def test_cap_exceeded_exit_code(tmp_path, capsys):
    path = tmp_path / "many.cnf"
    f = frozenset(clause([v]) for v in range(1, 19))
    path.write_text(emit_dimacs(f))
    code, _ = run(capsys, "mps", str(path))
    assert code == 3


@pytest.mark.parametrize("units, route, message", [
    (17, (), "minimal premise enumeration capped at 16 clauses"),
    (13, ("--route", "doping"), "doped prime route capped at 24 variables"),
])
def test_mps_caps_exit_code_and_message(tmp_path, capsys, units, route,
                                        message):
    # 17 clauses is one past the subset scan's cap; 13 doped units hold
    # 26 variables, two past the doped route's
    path = tmp_path / "units.cnf"
    path.write_text(emit_dimacs(frozenset(clause([v])
                                          for v in range(1, units + 1))))
    code = main(["mps", str(path), *route])
    assert code == 3
    assert message in capsys.readouterr().err


def test_mps_doping_route_at_its_cap(tmp_path, capsys):
    path = tmp_path / "units.cnf"
    path.write_text(emit_dimacs(frozenset(clause([v]) for v in range(1, 13))))
    code, out = run(capsys, "mps", str(path), "--route", "doping")
    assert code == 0 and json.loads(out)["count"] == 12


@pytest.mark.parametrize("kind", ["MC", "ME"])
def test_model_queries_past_the_recursion_limit_exit_3(kind, tmp_path,
                                                       capsys):
    # the model walk recurses once per split, and n units split n times
    # on the one branch that is not refuted
    path = tmp_path / "units.cnf"
    path.write_text(emit_dimacs(frozenset(clause([v])
                                          for v in range(1, 1201))))
    assert main(["query", "--kind", kind, "--k", "1", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: model search exceeded Python's recursion limit\n")
    path.write_text(emit_dimacs(frozenset(clause([v])
                                          for v in range(1, 901))))
    code, out = run(capsys, "query", "--kind", kind, "--k", "1", str(path))
    assert code == 0
    if kind == "MC":
        assert json.loads(out) == {"kind": "MC", "answer": 1}
    else:
        assert json.loads(out)["models"] == [
            {str(v): 1 for v in range(1, 901)}]


def test_kbase_beyond_oracle_cap_exit_code(tmp_path, capsys):
    # deciding whether a unit prime is essential leaves the other 25
    # variables to the SAT oracle, one above its cap
    path = tmp_path / "units.cnf"
    path.write_text(emit_dimacs(frozenset(clause([v])
                                          for v in range(1, 27))))
    code, _ = run(capsys, "kbase", "--k", "1", str(path))
    assert code == 3


def test_integrity_error_exit_code(tmp_path, capsys):
    path = tmp_path / "square.cnf"
    path.write_text(emit_dimacs(cs([1, 2], [1, -2], [-1, 2], [-1, -2])))
    code, _ = run(capsys, "query", "--kind", "MC", "--k", "0", str(path))
    assert code == 4


def test_integrity_error_prints_its_witness(tmp_path, capsys):
    path = tmp_path / "square.cnf"
    path.write_text(emit_dimacs(cs([1, 2], [1, -2], [-1, 2], [-1, -2])))
    assert main(["query", "--kind", "MC", "--k", "0", str(path)]) == 4
    err = capsys.readouterr().err
    assert "level-0 resolution missed an unsatisfiable branch" in err
    assert 'witness: {"1": 0}' in err


def _count_closures(monkeypatch):
    import cnfkc.cli
    import cnfkc.hardness
    calls = []
    real = cnfkc.cli.prime_implicates

    def counted(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    for module in (cnfkc.cli, cnfkc.hardness):
        monkeypatch.setattr(module, "prime_implicates", counted)
    return calls


def test_measure_computes_one_closure_and_only_when_needed(
        tmp_path, capsys, monkeypatch):
    from cnfkc.cli import build_extremal_doped
    import cnfkc.propagation
    calls = _count_closures(monkeypatch)
    dpll = []
    real_sat = cnfkc.propagation.sat_packed

    def counted_sat(*args, **kwargs):
        dpll.append(args[0])
        return real_sat(*args, **kwargs)

    monkeypatch.setattr(cnfkc.propagation, "sat_packed", counted_sat)
    doped = tmp_path / "doped.cnf"
    doped.write_text(emit_dimacs(build_extremal_doped(1, 2)[1].doped))
    code, out = run(capsys, "measure", str(doped),
                    "--measures", "hd,whd,wid,phd,primes")
    assert code == 0 and len(calls) == 1 and len(dpll) == 1
    assert json.loads(out) == {"hd": 2, "whd": 2, "wid": 2, "phd": 2,
                               "primes": 15}
    unsat = tmp_path / "diff.cnf"
    unsat.write_text(emit_dimacs(DIFF))
    code, out = run(capsys, "measure", str(unsat),
                    "--measures", "hd,whd,wid,phd")
    assert code == 0 and len(calls) == 1 and len(dpll) == 2
    assert json.loads(out)["hd"] == 3
    # one satisfiability decision per input, shared by all four measures
    g6 = tmp_path / "g6.cnf"
    g6.write_text(emit_dimacs(build_g_n(6)))
    code, out = run(capsys, "measure", str(g6),
                    "--measures", "hd,whd,wid,phd")
    assert code == 0 and len(calls) == 1 and len(dpll) == 3
    assert json.loads(out) == {"hd": 1, "whd": 1, "wid": 6, "phd": 1}


def test_primes_command(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(cs([1, 2], [-1, 2])))
    code, out = run(capsys, "primes", str(path))
    assert code == 0
    assert "2 0" in out
    sidecar = json.loads(out[out.index("{"):])
    assert sidecar["count"] == 1
    assert sidecar["primes"][0]["clause"] == [2]


def test_primes_answers_under_a_zero_cap_when_no_prime_needs_the_dpll(
        tmp_path, capsys):
    # unit propagation shows all 6 primes replaceable, so the variable
    # cap is never checked and the command answers instead of exiting 3
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(cs([-1, -3], [1, 2, -3], [-1, -2, 3],
                                   [-2, 3], [1, 2])))
    code, out = run(capsys, "primes", "--cap-vars", "0", str(path))
    assert code == 0
    sidecar = json.loads(out[out.index("{"):])
    assert (sidecar["count"], sidecar["essential_count"]) == (6, 0)


def test_dope_command(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(build_g_n(2)))
    target = tmp_path / "doped.cnf"
    code, _ = run(capsys, "dope", str(path), "--out", str(target))
    assert code == 0
    m = measures(parse_dimacs_document(target.read_text()).clauses)
    assert m.n == 5 and m.c == 3
    meta = json.loads((tmp_path / "doped.cnf.json").read_text())
    assert len(meta["doping_map"]) == 3


def test_mps_routes_agree(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(build_g_n(3)))
    _, direct = run(capsys, "mps", str(path), "--route", "direct")
    _, doping = run(capsys, "mps", str(path), "--route", "doping")
    assert direct == doping
    assert json.loads(direct)["count"] == 2 ** 3 + 3


def test_trigger_command(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(build_horn_chain(2).doped))
    code, out = run(capsys, "trigger", "--k", "0", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] == {"value": 7, "exact": True}
    assert doc["nu"] == {"value": 7, "exact": True}
    assert all(len(e) == 1 for e in doc["edges"])


def test_kbase_command(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(build_horn_chain(3).doped))
    code, out = run(capsys, "kbase", "--k", "1", str(path))
    assert code == 0
    meta = json.loads(out[out.index("{"):])
    assert meta["size"] == 4 and meta["minimal"]
    doc = parse_dimacs_document(out[:out.index("{")])
    assert doc.clauses == build_horn_chain(3).doped


def test_query_command(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(cs([1, 2], [-1, 2])))
    code, out = run(capsys, "query", "--kind", "CE", "--k", "1",
                    "--clause", "2", str(path))
    assert code == 0
    assert json.loads(out) == {"kind": "CE", "answer": True}
    code, out = run(capsys, "query", "--kind", "MC", "--k", "1", str(path))
    assert json.loads(out) == {"kind": "MC", "answer": 2}
    code, out = run(capsys, "query", "--kind", "ME", "--k", "1", str(path))
    models = json.loads(out)["models"]
    assert {"1": 0, "2": 1} in models and {"1": 1, "2": 1} in models
    assert len(models) == 2


def test_separation_command_csv(capsys):
    code, out = run(capsys, "separation", "--k-range", "1",
                    "--h-range", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["primes"] == "15" and row["hd"] == "2"
    assert row["tau_k"] == "4" and row["min_equiv"] == "5"
    assert row["sperner_bound"] == "2"
    assert row["min_equiv_exact"] == "True"


def test_separation_cap_primes_zero_bounds_only_the_searched_row(capsys):
    """Under --cap-primes 0 only a row whose answer is a single candidate
    (the essential primes, or every prime when the transversal number
    forces them all) stays exact: row (1,2) reports the floor, 4,
    flagged inexact, where the golden row has 5.  The other rows keep
    their golden bytes."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "separation.csv")
    with open(golden) as fh:
        lines = fh.read().splitlines()
    want = [lines[0]] + [line for line in lines[1:]
                         if line.split(",")[:2] in (["0", "2"], ["0", "3"],
                                                    ["1", "2"], ["1", "3"])]
    want[3] = want[3].rsplit(",", 2)[0] + ",4,False"
    assert want[3].endswith(",2,4,False")
    code, out = run(capsys, "separation", "--k-range", "0:1",
                    "--h-range", "2:3", "--cap-primes", "0")
    assert code == 0
    assert out.splitlines() == want


def test_separation_row_chain():
    row = separation_row(0, 3)
    assert row.c == 4 and row.primes == 15 and row.hd == 1
    assert row.sperner_bound == 6
    assert row.sperner_bound <= row.nu_k <= row.tau_k <= row.min_equiv


def test_separation_row_builds_the_edge_index_once(monkeypatch):
    # τ, ν and min_equivalent_size read one index of the hypergraph
    built = []
    real = trigger._edge_index

    def counted(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(trigger, "_edge_index", counted)
    row = separation_row(1, 3)
    assert (row.tau_k, row.nu_k, row.min_equiv) == (11, 10, 11)
    assert len(built) == 1


def test_separation_row_holds_min_equiv_to_a_capped_taus_lower_bound(
        monkeypatch):
    # a capped tau prints its upper bound, which may exceed an exact
    # min_equiv; the chain check must compare tau's lower bound instead
    real = cnfkc.cli.transversal_number

    def capped(g):
        tau = real(g)
        return dataclasses.replace(tau, value=tau.value + 2, exact=False,
                                   upper_bound=tau.value + 2)

    monkeypatch.setattr(cnfkc.cli, "transversal_number", capped)
    row = separation_row(1, 2)
    assert (row.tau_k, row.tau_exact) == (6, False)
    assert (row.nu_k, row.min_equiv, row.min_equiv_exact) == (3, 5, True)


def test_separation_skips_disallowed_pairs(capsys):
    code, out = run(capsys, "separation", "--k-range", "1:2",
                    "--h-range", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["k"] for r in doc] == [1]


def test_config_flags_override(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    f = frozenset(clause([v]) for v in range(1, 15))
    path.write_text(emit_dimacs(f))
    cfg = tmp_path / "cnfkc.cfg"
    cfg.write_text("# caps\ncap_vars = 4\n")
    code, out = run(capsys, "--config", str(cfg), "measure", str(path),
                    "--measures", "hd")
    assert code == 0 and json.loads(out)["hd"] is None
    code, out = run(capsys, "--config", str(cfg), "measure", str(path),
                    "--measures", "hd", "--cap-vars", "20")
    assert code == 0 and json.loads(out)["hd"] == 0


@pytest.mark.parametrize("argv", [
    ("kbase", "--k", "1", "--cap-vars", "5"),
    ("measure", "--seed", "1"),
    ("measure", "--format", "json"),
    ("primes", "--cap-primes", "3"),
    ("selftest", "--out", "x"),
])
def test_flags_outside_their_commands_are_parse_errors(argv, capsys):
    # each subcommand takes only the flags and caps it reads
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call; no value may carry over to the next
    assert build_parser() is build_parser()
    path = tmp_path / "wide.cnf"
    path.write_text(emit_dimacs(frozenset(clause([v])
                                          for v in range(1, 15))))
    cfg = tmp_path / "cnfkc.cfg"
    cfg.write_text("cap_vars = 4\n")

    def hd_of(*argv):
        code, out = run(capsys, *argv, "--measures", "hd")
        assert code == 0
        return json.loads(out)["hd"]

    assert hd_of("--config", str(cfg), "measure", str(path),
                 "--cap-vars", "20") == 0
    assert hd_of("--config", str(cfg), "measure", str(path)) is None
    assert hd_of("measure", str(path)) == 0
    _, out = run(capsys, "generate", "--family", "g_n", "--n", "3")
    assert parse_dimacs_document(out).clauses == build_g_n(3)
    _, out = run(capsys, "generate", "--family", "g_n", "--h", "2")
    assert parse_dimacs_document(out).clauses == build_g_n(2)
    _, out = run(capsys, "separation", "--k-range", "1", "--h-range", "2",
                 "--format", "json")
    assert json.loads(out)[0]["primes"] == 15
    _, out = run(capsys, "separation", "--k-range", "1", "--h-range", "2")
    assert out.startswith("k,h,n,")
    code, out = run(capsys, "selftest")
    assert code == 0 and "FAIL" not in out


def test_python_m_cnfkc_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cnfkc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "cnfkc", "selftest"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "PASS" in done.stdout and "FAIL" not in done.stdout
