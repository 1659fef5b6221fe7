"""Seeded inputs, items and reference checks of the three workloads.

An item is one `cnfkc.cli.main(argv)` invocation together with a check of
what it printed or wrote.  Set-up has two steps.  `write_inputs(name,
seed, workdir, pins)` generates a workload's clause-sets with the
generators below and writes the DIMACS files the program reads; this is
the part of set-up that `setup_s` times.  `build_items(name, seed, inputs,
pins)` then derives the query arguments, computes every reference and
returns the items of one pass.  The program never sees the seed, only the
files and the arguments.

References come from three places, in this order of preference: closed
forms from the paper, naive truth tables (`tests/oracles.py` plus the
bitmask helpers here), and outputs pinned once in `pins.json` by `pin.py`.
"""

import csv
import hashlib
import io
import itertools
import json
import os
import random
import statistics
from dataclasses import dataclass
from math import comb

import oracles

WORKLOADS = ("separation", "measure", "compile_query")

# separation rows (k, h): the golden rows of the roadmap's benchmark item
SEPARATION_ROWS = [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
                   (2, 3)]

# seeded pools: instance i of a pool is random_3cnf(Random("<pool>-<i>"))
MEASURE_POOL = {"n": 20, "m": 100, "size": 24}
COMPILE_POOL = {"n": 10, "m": 30, "size": 32}
MEASURE_RANDOM_ITEMS = 4
COMPILE_RANDOM_ITEMS = 3
QUERY_MIX = (("CE", 25), ("IM", 19), ("CO", 2), ("EQ", 2), ("MC", 2))


# ---------------------------------------------------------------- generators

def _literal_key(x):
    return abs(x), x < 0


def canonical(f):
    """Clauses short first, literals by (variable, sign), as cnfkc emits."""
    return sorted((tuple(sorted(c, key=_literal_key)) for c in f),
                  key=lambda c: (len(c), c))


def dimacs(f):
    nvar = max((abs(x) for c in f for x in c), default=0)
    lines = ["p cnf %d %d" % (nvar, len(f))]
    lines += [" ".join(map(str, c + (0,))) for c in canonical(f)]
    return "\n".join(lines) + "\n"


def parse_dimacs(text):
    clauses, current = set(), []
    for line in text.splitlines():
        if not line.strip() or line[0] in "cp":
            continue
        for tok in line.split():
            x = int(tok)
            if x:
                current.append(x)
            else:
                clauses.add(frozenset(current))
                current = []
    return frozenset(clauses)


def variables(f):
    return sorted({abs(x) for c in f for x in c})


def extremal_tree(k, h):
    """Largest tree of Horton-Strahler number k and height h; inner nodes
    are (var, left, right) labelled 1.. in preorder, leaves are None."""
    labels = itertools.count(1)

    def build(kk, hh):
        if kk == 0:
            return None
        v = next(labels)
        if kk == 1:
            return (v, build(1 if hh > 1 else 0, hh - 1), None)
        return (v, build(min(kk, hh - 1), hh - 1), build(kk - 1, hh - 1))

    return build(k, h)


def strahler(t):
    if t is None:
        return 0
    a, b = strahler(t[1]), strahler(t[2])
    return a + 1 if a == b else max(a, b)


def tree_clauses(t, path=()):
    """Path clauses: a left edge adds the node variable, a right edge its
    complement."""
    if t is None:
        return frozenset([frozenset(path)])
    v, left, right = t
    return tree_clauses(left, path + (v,)) | tree_clauses(right, path + (-v,))


def dope(f):
    """One fresh positive variable per clause, numbered in canonical order."""
    start = max(variables(f), default=0)
    return frozenset(frozenset(c + (start + i,))
                     for i, c in enumerate(canonical(f), start=1))


def horn_chain(h):
    base = [[1]] + [[-j for j in range(1, i)] + [i] for i in range(2, h + 1)]
    base.append([-j for j in range(1, h + 1)])
    return dope(frozenset(frozenset(c) for c in base))


def g_n(n):
    return frozenset([frozenset([i]) for i in range(1, n + 1)]
                     + [frozenset(range(-n, 0))])


def random_3cnf(rng, n, m):
    return frozenset(frozenset(v * rng.choice((1, -1))
                               for v in rng.sample(range(1, n + 1), 3))
                     for _ in range(m))


def pool_instance(pool, i):
    spec = MEASURE_POOL if pool == "measure" else COMPILE_POOL
    return random_3cnf(random.Random("%s-%d" % (pool, i)), spec["n"],
                       spec["m"])


def balanced_pick(costs, seed, count):
    """`count` pool indices, in seeded order, from the entries whose pinned
    cost lies between the pool's quartiles; the last two are the first pair
    that brings the total within 2% of `count` times the median cost (or
    the closest pair), so that every seed asks for about the same work."""
    q1, median, q3 = statistics.quantiles(costs, n=4)
    band = [i for i, c in enumerate(costs) if q1 <= c <= q3]
    order = random.Random(seed).sample(band, len(band))
    chosen = order[:count - 2]
    target = count * median
    need = target - sum(costs[i] for i in chosen)
    pairs = list(itertools.combinations(order[count - 2:], 2))

    def miss(p):
        return abs(costs[p[0]] + costs[p[1]] - need)

    pair = next((p for p in pairs if miss(p) <= 0.02 * target),
                min(pairs, key=miss))
    return chosen + list(pair)


# ------------------------------------------------------- truth-table helpers

class TruthTable:
    """Bitmask truth table of f over its own variables: bit i stands for
    the i-th assignment of `oracles.total_assignments`."""

    def __init__(self, f):
        self.vars = variables(f)
        n = len(self.vars)
        self.full = (1 << (1 << n)) - 1
        self.true, self.weight = {}, {}
        for j, v in enumerate(self.vars):
            self.weight[v] = 1 << (n - 1 - j)
            mask = sum(1 << i for i in range(1 << n) if i & self.weight[v])
            self.true[v], self.true[-v] = mask, self.full ^ mask
        self.models = self.satisfying(f)

    def assignment(self, i):
        """The i-th assignment of `oracles.total_assignments`."""
        return {v: int(i & self.weight[v] != 0) for v in self.vars}

    def irrelevant(self):
        """Variables whose value never changes whether f holds."""
        return [v for v in self.vars
                if (self.models & self.true[v]) >> self.weight[v]
                == self.models & self.true[-v]]

    def satisfying(self, f):
        mask = self.full
        for c in f:
            mask &= self.clause_true(c)
        return mask

    def clause_true(self, c):
        mask = 0
        for x in c:
            mask |= self.true[x]
        return mask

    def implied(self, c, models=None):
        models = self.models if models is None else models
        return models & ~self.clause_true(c) & self.full == 0

    def is_prime(self, c):
        return self.implied(c) and not any(self.implied(c - {x}) for x in c)

    def primes(self):
        """Every prime implicate, by a depth-first scan of all clauses that
        stops below the first implied one."""
        found = []

        def walk(j, lits, falsified):
            if self.models & falsified == 0:
                c = frozenset(lits)
                if self.is_prime(c):
                    found.append(c)
                return
            if j == len(self.vars):
                return
            v = self.vars[j]
            walk(j + 1, lits, falsified)
            walk(j + 1, lits + [v], falsified & self.true[-v])
            walk(j + 1, lits + [-v], falsified & self.true[v])

        walk(0, [], self.full)
        return frozenset(found)


# -------------------------------------------------------------------- items

@dataclass
class Item:
    name: str
    argv: list
    check: object          # check(stdout) -> error text or None
    stage: str = "answer"  # "compile" items are excluded from latencies


def _write(workdir, name, f):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(dimacs(f))
    return path


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _expect_text(expected, extra=None):
    def check(out):
        if out != expected:
            return "output differs from the pinned bytes"
        return extra(out) if extra else None
    return check


def _separation_items(seed, rows, pins):
    items = []
    for k, h in rows:
        def closed_forms(out, k=k, h=h):
            row = next(csv.DictReader(io.StringIO(out)))
            m = 1 + h - k
            if int(row["hd"]) != k + 1:
                return "hd %s, closed form %d" % (row["hd"], k + 1)
            if int(row["primes"]) != 2 ** int(row["c"]) - 1:
                return "primes %s, closed form 2^c-1" % row["primes"]
            if int(row["sperner_bound"]) != comb(m, m // 2):
                return "sperner bound %s, closed form C(%d,%d)" % (
                    row["sperner_bound"], m, m // 2)
            if int(row["nu_k"]) < comb(m, m // 2):
                return "nu_k below the Sperner floor"
            return None
        items.append(Item("row %d,%d" % (k, h),
                          ["separation", "--k-range", str(k),
                           "--h-range", str(h)],
                          _expect_text(pins["separation"]["%d,%d" % (k, h)],
                                       closed_forms)))
    return items


def measure_fixed_inputs():
    """The seed-independent measure items: name -> (clause-set, measures,
    closed-form hd or None)."""
    out = {
        "extremal_doped-0-4": (dope(tree_clauses(extremal_tree(1, 4))),
                               "phd", None),
        "horn_chain-4": (horn_chain(4), "phd", None),
        "g_8": (g_n(8), "mps", None),
    }
    for h in (3, 4):
        t = extremal_tree(2, h)
        out["tree-hs2-h%d" % h] = (tree_clauses(t), "hd,whd,wid",
                                   strahler(t))
    return out


def _unless_drifted(f, sha, check):
    """`check`, or a failure if the generator no longer makes the input
    that was pinned."""
    if sha is None or _sha(dimacs(f)) == sha:
        return check
    return lambda out: "generated input differs from the pinned one"


def _measure_item(name, path, f, measures, pin, hd_closed_form=None):
    def hd_check(out):
        if hd_closed_form is not None and (
                json.loads(out)["hd"] != hd_closed_form):
            return "hd differs from the Horton-Strahler number"
        return None

    return Item("%s %s" % (measures, name),
                ["measure", path, "--measures", measures],
                _unless_drifted(f, pin["sha256"],
                                _expect_text(pin["stdout"], hd_check)))


def _measure_inputs(seed, workdir, pins):
    inputs = []
    for name, (f, measures, hs) in measure_fixed_inputs().items():
        path = _write(workdir, name + ".cnf", f)
        inputs.append((name, path, f, measures,
                       pins["measure"]["fixed"][name], hs))
    pool = pins["measure"]["pool"]
    for i in balanced_pick([p["cost_s"] for p in pool], seed,
                           MEASURE_RANDOM_ITEMS):
        f = pool_instance("measure", pool[i]["index"])
        name = "random-%d" % pool[i]["index"]
        path = _write(workdir, name + ".cnf", f)
        inputs.append((name, path, f, "hd", pool[i], None))
    return inputs


def _measure_items(seed, inputs, pins):
    return [_measure_item(*entry) for entry in inputs]


def compile_inputs(seed, pins):
    """name -> (clause-set, level K, closed-form prime count or None,
    pinned sha256 or None)."""
    out = {
        "extremal_doped-1-3": (dope(tree_clauses(extremal_tree(2, 3))), 2,
                               2 ** 7 - 1, None),
        "horn_chain-5": (horn_chain(5), 1, None, None),
    }
    pool = pins["compile_query"]["pool"]
    for i in balanced_pick([p["cost_s"] for p in pool], seed,
                           COMPILE_RANDOM_ITEMS):
        out["random-%d" % pool[i]["index"]] = (
            pool_instance("compile", pool[i]["index"]), 1, None,
            pool[i]["sha256"])
    return out


def _read(path):
    with open(path) as fh:
        return fh.read()


def _compile_checks(tt, primes_path, base_path, k, prime_count):
    """Checks of the `primes` and `kbase` outputs against the truth table."""
    primes = None if prime_count is not None else tt.primes()

    def check_primes(out):
        if out:
            return "primes printed to stdout despite --out"
        got = parse_dimacs(_read(primes_path))
        side = json.loads(_read(primes_path + ".json"))
        if prime_count is not None:
            if len(got) != prime_count or not all(map(tt.is_prime, got)):
                return "prime file is not the 2^c-1 doped-tree primes"
        elif got != primes:
            return "prime file differs from the truth-table primes"
        if side["count"] != len(got):
            return "prime sidecar count is wrong"
        masks = {c: tt.clause_true(c) for c in got}
        for entry in side["primes"]:
            c = frozenset(entry["clause"])
            rest = tt.full
            for d, mask in masks.items():
                if d != c:
                    rest &= mask
            if entry["essential"] != (not tt.implied(c, rest)):
                return "essential flag wrong on %s" % sorted(c)
        return None

    def check_base(out):
        base = parse_dimacs(_read(base_path))
        side = json.loads(_read(base_path + ".json"))
        if not base <= parse_dimacs(_read(primes_path)):
            return "base is not a subset of the primes"
        if tt.satisfying(base) != tt.models:
            return "base is not equivalent to the input"
        if side["level"] != k or side["size"] != len(base):
            return "kbase sidecar disagrees with the base"
        return None

    return check_primes, check_base


def _query_batch(rng, name, f, tt, k, primes_path, base_path):
    """Fifty seeded queries, of the kinds in QUERY_MIX, against one base."""
    # the oracle's models, counted as they stream by rather than kept, so
    # that the references do not raise the process's peak memory
    n_models = sum(1 for phi in oracles.total_assignments(tt.vars)
                   if oracles.satisfies(phi, f))
    if n_models != bin(tt.models).count("1"):
        raise RuntimeError("bitmask truth table disagrees with the oracle")
    models = [i for i in range(1 << len(tt.vars)) if tt.models >> i & 1]
    short = [sorted(c) for c in _short_primes(tt)]
    vs = tt.vars
    kinds = [kind for kind, count in QUERY_MIX for _ in range(count)]
    items = []
    for j, kind in enumerate(kinds):
        argv = ["query", base_path, "--k", str(k), "--kind", kind]
        if kind == "CE":
            c = set(rng.choice(short)) if rng.random() < 0.5 else set()
            size = max(len(c), rng.randint(1, 3))
            while len(c) < size:
                v = rng.choice(vs)
                if v not in c and -v not in c:
                    c.add(v * rng.choice((1, -1)))
            argv.append("--clause=" + " ".join(map(str, sorted(c, key=abs))))
            expected = tt.implied(frozenset(c))
        elif kind == "IM":
            phi = (tt.assignment(rng.choice(models)) if rng.random() < 0.5
                   else {v: rng.randint(0, 1) for v in vs})
            argv.append("--assignment=" + ",".join(
                "%d=%d" % (v, b) for v, b in sorted(phi.items())))
            expected = oracles.satisfies(phi, f)
        elif kind == "CO":
            expected = n_models > 0
        elif kind == "EQ":
            argv.append("--other=" + primes_path)
            expected = True
        else:
            # MC counts over the base's variables, which are exactly the
            # ones f depends on
            expected = n_models >> len(tt.irrelevant())
        items.append(Item("%s %s #%d" % (kind, name, j), argv,
                          _answer_check(kind, expected)))
    return items


def _short_primes(tt):
    """Prime implicates of at most three literals, as CE material."""
    out = []
    for size in (1, 2, 3):
        for chosen in itertools.combinations(tt.vars, size):
            for signs in itertools.product((1, -1), repeat=size):
                c = frozenset(v * s for v, s in zip(chosen, signs))
                if tt.implied(c) and not any(p <= c for p in out):
                    out.append(c)
    return out


def _answer_check(kind, expected):
    def check(out):
        doc = json.loads(out)
        if doc != {"kind": kind, "answer": expected}:
            return "answer %r, reference %r" % (doc.get("answer"), expected)
        return None

    return check


def _compile_inputs(seed, workdir, pins):
    return [(name, _write(workdir, name + ".cnf", f), f, k, prime_count, sha)
            for name, (f, k, prime_count, sha)
            in compile_inputs(seed, pins).items()]


def _compile_items(seed, inputs, pins):
    rng = random.Random(seed)
    compiles, batches = [], []
    for name, path, f, k, prime_count, sha in inputs:
        primes_path = path[:-len(".cnf")] + ".primes.cnf"
        base_path = path[:-len(".cnf")] + ".base.cnf"
        tt = TruthTable(f)
        check_primes, check_base = _compile_checks(tt, primes_path,
                                                   base_path, k, prime_count)
        compiles.append(Item("primes " + name,
                             ["primes", path, "--out", primes_path],
                             _unless_drifted(f, sha, check_primes),
                             stage="compile"))
        compiles.append(Item("kbase " + name,
                             ["kbase", path, "--k", str(k), "--out",
                              base_path],
                             check_base, stage="compile"))
        batches.append(_query_batch(rng, name, f, tt, k, primes_path,
                                    base_path))
    # queries of different bases interleave, in seeded order within a base
    queries = [q for round_ in itertools.zip_longest(*batches)
               for q in round_ if q is not None]
    return compiles + queries


def write_inputs(name, seed, workdir, pins):
    """Generate the workload's clause-sets and write their DIMACS files
    into `workdir`; returns what `build_items` needs."""
    if name == "separation":
        return SEPARATION_ROWS
    return {"measure": _measure_inputs,
            "compile_query": _compile_inputs}[name](seed, workdir, pins)


def build_items(name, seed, inputs, pins):
    """The items of one pass over `inputs`, each with its reference."""
    return {"separation": _separation_items, "measure": _measure_items,
            "compile_query": _compile_items}[name](seed, inputs, pins)
