"""Command-line driver: generators, measurements, queries, and the
separation-experiment harness."""

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, fields

from . import compile as kc
from .core import (clause, clause_key, emit_dimacs, measures, pack,
                   parse_dimacs_document, sorted_clauses, unpack,
                   unpack_set)
from .errors import CapExceededError, CnfError, IntegrityError, ParseError
from .hardness import hd, phd, whd, wid
from .mpsdope import dope, mps_enumerate, mps_via_doping, pure_clause
from .primes import prime_implicates, prime_report
from .propagation import sat_oracle
from .trees import (doped_clause_of_leafset, extremal_tree, tree_stats,
                    tree_to_clauses, tree_to_term)
from .trigger import (extremal_sperner_bound, hypergraph_to_json,
                      matching_number, min_equivalent_size, sperner_witness,
                      transversal_number, trigger_hypergraph)


def build_extremal_doped(k, h):
    """Doped tree clause-set at hardness level k+1 and height h."""
    t = extremal_tree(k + 1, h)
    return t, dope(tree_to_clauses(t))


def build_horn_chain(h):
    """Doped Horn chain: unit head, widening implications, full negative."""
    base = set()
    base.add(clause([1]))
    for i in range(2, h + 1):
        base.add(clause([-j for j in range(1, i)] + [i]))
    base.add(clause([-j for j in range(1, h + 1)]))
    return dope(frozenset(base))


def build_g_n(n):
    """n unit clauses plus the full negative clause (minimally unsat,
    not saturated)."""
    cls = [clause([i]) for i in range(1, n + 1)]
    cls.append(clause([-i for i in range(1, n + 1)]))
    return frozenset(cls)


# the keys a config file may set, and the output formats of `separation`
_CONFIG_KEYS = ("cap_vars", "cap_primes", "format")
_FORMATS = ("csv", "json", "table")


def _load_config(path):
    cfg = {}
    if path is None:
        return cfg
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("bad config line: %r" % line)
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ParseError("unknown config key %r (known: %s)"
                                 % (key, ", ".join(_CONFIG_KEYS)))
            cfg[key] = value.strip()
    return cfg


def _int(text, what):
    """`text` as an int, else a ParseError naming `what`."""
    try:
        return int(text)
    except ValueError:
        raise ParseError("%s must be an integer, got %r" % (what, text))


def _at_least_zero(args, *names):
    """A ParseError for the first of the flags `names` set below 0."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise ParseError("--%s must be at least 0, got %d"
                             % (name, value))


def _setting(args, cfg, name, default):
    """The flag `name` when given, else its config key, else `default`;
    a value below 0 is a ParseError naming the flag or the key."""
    value = getattr(args, name, None)
    where = "--" + name.replace("_", "-")
    if value is None:
        if name not in cfg:
            return default
        value, where = _int(cfg[name], name), "config key " + name
    if value < 0:
        raise ParseError("%s must be at least 0, got %d" % (where, value))
    return value


def _read_clause_set(path):
    if path == "-":
        return parse_dimacs_document(sys.stdin.read()).clauses
    with open(path) as fh:
        return parse_dimacs_document(fh.read()).clauses


def _parse_clause_arg(text):
    return clause(_int(tok, "clause literal") for tok in text.split())


def _parse_assignment_arg(text):
    phi = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError("assignment entries look like var=bit")
        v, b = part.split("=", 1)
        v, b = _int(v, "assignment variable"), _int(b, "assignment bit")
        if v < 1:
            raise ParseError("assignment variable must be at least 1, got %d"
                             % v)
        if b not in (0, 1):
            raise ParseError("assignment bit must be 0 or 1")
        if v in phi:
            raise ParseError("variable %d assigned twice" % v)
        phi[v] = b
    return phi


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_sidecar(args, doc):
    """`doc` as JSON to the `--out` path plus ".json", else to stdout."""
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if getattr(args, "out", None):
        with open(args.out + ".json", "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _clauses_json(f):
    return [list(clause_key(c)) for c in sorted_clauses(f)]


def _doping_map_json(d):
    return {str(u): list(clause_key(c)) for u, c in d.doping_map.items()}


def cmd_generate(args, cfg):
    _at_least_zero(args, "n", "h", "k")
    family = args.family
    meta = {"family": family}
    if family == "extremal_doped":
        t, d = build_extremal_doped(args.k, args.h)
        f = d.doped
        meta["tree"] = tree_to_term(t)
        meta["doping_map"] = _doping_map_json(d)
        meta["k"] = args.k
        meta["h"] = args.h
    elif family == "horn_chain":
        d = build_horn_chain(args.h)
        f = d.doped
        meta["doping_map"] = _doping_map_json(d)
        meta["h"] = args.h
    elif family == "g_n":
        n = args.n if args.n is not None else args.h
        f = build_g_n(n)
        meta["n"] = n
    elif family == "file":
        if args.input is None:
            raise ParseError("--family file needs --input")
        f = _read_clause_set(args.input)
    else:
        raise ParseError("unknown family %r" % family)
    text = emit_dimacs(f, comments=["family: %s" % family])
    _emit(args, text)
    if args.out:
        _emit_sidecar(args, meta)
    return 0


def cmd_measure(args, cfg):
    f = _read_clause_set(args.input)
    wanted = (args.measures.split(",") if args.measures
              else ["n", "c", "ell", "deficiency", "hd", "whd", "wid",
                    "phd", "primes", "mps"])
    cap_vars = _setting(args, cfg, "cap_vars", 24)
    # one closure for hd, whd, wid, phd and primes, computed on first use;
    # hd, whd, wid and phd need none for unsatisfiable f, whose prime
    # table is (0,)
    closure = functools.cache(lambda: prime_implicates(f))
    satisfiable = functools.cache(lambda: sat_oracle(f, cap_vars)[0])
    report = {}
    m = measures(f)
    base = {"n": m.n, "c": m.c, "ell": m.ell, "deficiency": m.deficiency}
    worst_case = {"hd": hd, "whd": whd, "wid": wid, "phd": phd}
    for name in wanted:
        try:
            if name in base:
                report[name] = base[name]
            elif name in worst_case:
                report[name] = worst_case[name](
                    f, primes=closure() if satisfiable() else (0,))
            elif name == "primes":
                report[name] = len(closure())
            elif name == "mps":
                report[name] = len(mps_enumerate(f).members)
            else:
                raise ParseError("unknown measure %r" % name)
        except CapExceededError as e:
            report[name] = None
            report.setdefault("cap_exceeded", []).append(
                {"measure": name, "detail": str(e)})
    _emit(args, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_primes(args, cfg):
    f = _read_clause_set(args.input)
    cap_vars = _setting(args, cfg, "cap_vars", 24)
    rep = prime_report(f, cap_vars=cap_vars)
    sidecar = {
        "count": len(rep.primes),
        "essential_count": len(rep.essential),
        "primes": [{"clause": list(clause_key(unpack(c))),
                    "essential": c in rep.essential}
                   for c in rep.primes],
    }
    text = emit_dimacs(unpack_set(rep.primes), comments=["prime implicates"])
    _emit(args, text)
    _emit_sidecar(args, sidecar)
    return 0


def cmd_mps(args, cfg):
    f = _read_clause_set(args.input)
    via = (mps_via_doping if args.route == "doping" else mps_enumerate)
    fam = via(f)
    order = sorted_clauses(f)
    index = {c: i for i, c in enumerate(order)}
    members = []
    for member in sorted(fam.members, key=lambda m: (len(m), sorted(
            clause_key(c) for c in m))):
        members.append({
            "clauses": sorted(index[c] for c in member),
            "pure": list(clause_key(fam.members[member])),
        })
    doc = {"clause_order": _clauses_json(f), "members": members,
           "count": len(members)}
    _emit(args, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_dope(args, cfg):
    f = _read_clause_set(args.input)
    d = dope(f)
    text = emit_dimacs(d.doped, comments=["doped"])
    _emit(args, text)
    meta = {"doping_map": _doping_map_json(d)}
    if getattr(args, "out", None):
        _emit_sidecar(args, meta)
    return 0


def cmd_trigger(args, cfg):
    _at_least_zero(args, "k")
    f = _read_clause_set(args.input)
    g = trigger_hypergraph(prime_implicates(f), args.k)
    tau = transversal_number(g)
    nu = matching_number(g)
    if nu.value > tau.value and nu.exact and tau.exact:
        raise IntegrityError("matching number exceeds transversal number")
    doc = json.loads(hypergraph_to_json(g))
    doc["tau"] = {"value": tau.value, "exact": tau.exact}
    doc["nu"] = {"value": nu.value, "exact": nu.exact}
    _emit(args, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_kbase(args, cfg):
    _at_least_zero(args, "k")
    f = _read_clause_set(args.input)
    base = kc.k_base(prime_implicates(f), args.k)
    text = emit_dimacs(base.clauses, comments=["%d-base" % args.k])
    _emit(args, text)
    meta = {
        "level": base.level,
        "minimal": True,
        "added": _clauses_json(frozenset(base.added)),
        "removed": _clauses_json(frozenset(base.removed)),
        "size": len(base.clauses),
    }
    _emit_sidecar(args, meta)
    return 0


def cmd_query(args, cfg):
    _at_least_zero(args, "k")
    f = _read_clause_set(args.input)
    extra = {}
    if args.clause is not None:
        extra["clause"] = _parse_clause_arg(args.clause)
    if args.assignment is not None:
        extra["assignment"] = _parse_assignment_arg(args.assignment)
    if args.other is not None:
        extra["other"] = _read_clause_set(args.other)
    answer = kc.answer_query(args.kind, f, args.k, **extra)
    if args.kind == "ME":
        doc = {"kind": "ME", "models": [
            {str(v): b for v, b in sorted(m.items())} for m in answer]}
    else:
        doc = {"kind": args.kind, "answer": answer}
    _emit(args, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0


@dataclass(frozen=True)
class SeparationRow:
    k: int
    h: int
    n: int
    c: int
    ell: int
    primes: int
    hd: int
    whd: int
    tau_k: int
    tau_exact: bool
    nu_k: int
    nu_exact: bool
    sperner_bound: int
    min_equiv: int
    min_equiv_exact: bool


ROW_FIELDS = [field.name for field in fields(SeparationRow)]


def separation_row(k, h, cap_primes=18):
    """One experiment row for the doped extremal tree at (k, h)."""
    t, d = build_extremal_doped(k, h)
    f = d.doped
    m = measures(f)
    rep = prime_report(f)
    primes = rep.primes
    row_hd = hd(f, primes=primes)
    if row_hd != k + 1:
        raise IntegrityError(
            "hardness %d at (k=%d,h=%d), expected %d"
            % (row_hd, k, h, k + 1))
    row_whd = whd(f, primes=primes)
    g = trigger_hypergraph(primes, k)
    tau = transversal_number(g)
    nu = matching_number(g)
    bound = extremal_sperner_bound(t, k)
    witness = sperner_witness(t, k)
    edges = []
    for leafset in witness:
        cv = doped_clause_of_leafset(t, d, sorted(leafset))
        edges.append(g.edges[g.vertices.index(pack(cv))])
    for i in range(len(edges)):
        for j in range(i):
            if edges[i] & edges[j]:
                raise IntegrityError(
                    "witness edges %d and %d overlap at (k=%d,h=%d)"
                    % (j, i, k, h))
    nu_value = nu.value
    nu_exact = nu.exact
    if len(edges) > nu_value:
        if nu_exact:
            raise IntegrityError(
                "matching search missed the witness at (k=%d,h=%d)" % (k, h))
        nu_value = len(edges)
    if bound > nu_value:
        raise IntegrityError(
            "matching below guaranteed floor at (k=%d,h=%d)" % (k, h))
    me = min_equivalent_size(g, rep.essential, tau, cap_primes=cap_primes)
    # a capped tau.value is only an upper bound on tau: min_equiv is
    # held to tau's lower bound
    if me.exact:
        if not (nu_value <= tau.value and tau.lower_bound <= me.size):
            raise IntegrityError(
                "chain nu <= tau <= min_equiv broken at (k=%d,h=%d)"
                % (k, h))
    return SeparationRow(
        k=k, h=h, n=m.n, c=m.c, ell=m.ell, primes=len(primes),
        hd=row_hd, whd=row_whd,
        tau_k=tau.value, tau_exact=tau.exact,
        nu_k=nu_value, nu_exact=nu_exact,
        sperner_bound=bound,
        min_equiv=me.size, min_equiv_exact=me.exact)


def _parse_range(text):
    if ":" in text:
        a, b = text.split(":", 1)
        a, b = _int(a, "range start"), _int(b, "range end")
        if a > b:
            raise ParseError("range %r is reversed: %d > %d" % (text, a, b))
        return list(range(a, b + 1))
    return [_int(text, "range")]


def cmd_separation(args, cfg):
    cap_primes = _setting(args, cfg, "cap_primes", 18)
    fmt = args.format or cfg.get("format", "csv")
    if fmt not in _FORMATS:
        raise ParseError("format must be one of %s, got %r"
                         % (", ".join(_FORMATS), fmt))
    ks, hs = _parse_range(args.k_range), _parse_range(args.h_range)
    if ks[0] < 0:
        raise ParseError("--k-range must be at least 0, got %d" % ks[0])
    pairs = [(k, h) for k in ks for h in hs if h >= k + 1]
    if not pairs:
        raise ParseError("no (k, h) pair of the ranges has h >= k + 1")
    rows = [separation_row(k, h, cap_primes=cap_primes) for k, h in pairs]
    if fmt == "json":
        doc = [dict(zip(ROW_FIELDS, [getattr(r, f) for f in ROW_FIELDS]))
               for r in rows]
        _emit(args, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    elif fmt == "table":
        widths = [max(len(f), 5) for f in ROW_FIELDS]
        lines = ["  ".join(f.ljust(w) for f, w in zip(ROW_FIELDS, widths))]
        for r in rows:
            lines.append("  ".join(
                str(getattr(r, f)).ljust(w)
                for f, w in zip(ROW_FIELDS, widths)))
        _emit(args, "\n".join(lines) + "\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for r in rows:
            writer.writerow([getattr(r, f) for f in ROW_FIELDS])
        _emit(args, buf.getvalue())
    return 0


def cmd_selftest(args, cfg):
    """Re-derive a few worked results end to end; exit 4 on any miss."""
    checks = []
    pure_in = frozenset([clause([1, 2]), clause([-1, -3])])
    checks.append(("pure clause of a two-clause set",
                   pure_clause(pure_in) == frozenset([2, -3])))
    t = extremal_tree(2, 2)
    st = tree_stats(t)
    checks.append(("perfect height-2 tree stats",
                   st.hs == 2 and st.leaves == 4))
    d = dope(tree_to_clauses(t))
    rep = prime_report(d.doped)
    checks.append(("doped perfect tree has 15 primes", len(rep.primes) == 15))
    checks.append(("doped perfect tree hardness 2",
                   hd(d.doped, primes=rep.primes) == 2))
    g = trigger_hypergraph(rep.primes, 0)
    checks.append(("level-0 edges are singletons",
                   all(len(e) == 1 for e in g.edges)))
    ok = True
    for name, result in checks:
        print("%s: %s" % (name, "PASS" if result else "FAIL"))
        ok = ok and result
    if not ok:
        raise IntegrityError("selftest failed")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing never changes
    it, and every parse returns a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="cnfkc",
        description="CNF knowledge-compilation workbench")
    p.add_argument("--config", help="key=value config file")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("input", nargs="?", default="-",
                            help="DIMACS file or - for stdin")
        sp.add_argument("--out")

    sp = sub.add_parser("generate")
    sp.add_argument("--family", required=True,
                    choices=["extremal_doped", "horn_chain", "g_n", "file"])
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--h", type=int, default=2)
    sp.add_argument("--n", type=int)
    sp.add_argument("--input")
    common(sp, with_input=False)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("measure")
    sp.add_argument("--measures")
    sp.add_argument("--cap-vars", dest="cap_vars", type=int)
    common(sp)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("primes")
    sp.add_argument("--cap-vars", dest="cap_vars", type=int)
    common(sp)
    sp.set_defaults(func=cmd_primes)

    sp = sub.add_parser("mps")
    sp.add_argument("--route", choices=["direct", "doping"],
                    default="direct")
    common(sp)
    sp.set_defaults(func=cmd_mps)

    sp = sub.add_parser("dope")
    common(sp)
    sp.set_defaults(func=cmd_dope)

    sp = sub.add_parser("trigger")
    sp.add_argument("--k", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_trigger)

    sp = sub.add_parser("kbase")
    sp.add_argument("--k", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_kbase)

    sp = sub.add_parser("query")
    sp.add_argument("--kind", required=True,
                    choices=["CO", "CE", "VA", "IM", "SE", "EQ", "ME", "MC"])
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--clause")
    sp.add_argument("--assignment")
    sp.add_argument("--other")
    common(sp)
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("separation")
    sp.add_argument("--k-range", dest="k_range", required=True)
    sp.add_argument("--h-range", dest="h_range", required=True)
    sp.add_argument("--cap-primes", dest="cap_primes", type=int)
    sp.add_argument("--format", choices=_FORMATS)
    common(sp, with_input=False)
    sp.set_defaults(func=cmd_separation)

    sp = sub.add_parser("selftest")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except CnfError as e:
        sys.stderr.write("error: %s\n" % e)
        if getattr(e, "witness", None) is not None:
            sys.stderr.write("witness: %s\n" % json.dumps(
                e.witness, sort_keys=True, default=sorted))
        return e.exit_code
    except OSError as e:
        sys.stderr.write("io error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
