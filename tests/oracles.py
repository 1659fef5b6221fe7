"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: truth tables, exhaustive
assignment scans, direct textbook loops.  Agreement between these and
the real algorithms is the point of the tests that import them.
"""

import itertools

from cnfkc.core import (BOT, apply_assignment, clause, resolve,
                        sorted_clauses, subsumption_eliminate, variables)
from cnfkc.errors import CapExceededError, ParseError
from cnfkc.primes import implies
from cnfkc.propagation import propagate, sat_oracle, unit_propagate
from cnfkc.trees import LEAF, Inner
from cnfkc.trigger import SearchResult


def total_assignments(vs):
    vs = sorted(vs)
    for bits in itertools.product((0, 1), repeat=len(vs)):
        yield dict(zip(vs, bits))


def satisfies(phi, f):
    for c in f:
        if not any(phi.get(abs(x)) == (1 if x > 0 else 0) for x in c):
            return False
    return True


def models_tt(f):
    return [phi for phi in total_assignments(variables(f))
            if satisfies(phi, f)]


def satisfiable_tt(f):
    if BOT in f:
        return False
    return any(satisfies(phi, f) for phi in total_assignments(variables(f)))


def implies_tt(f, c):
    vs = variables(f) | {abs(x) for x in c}
    for phi in total_assignments(vs):
        if satisfies(phi, f) and not any(
                phi[abs(x)] == (1 if x > 0 else 0) for x in c):
            return False
    return True


def resolvable(c, d):
    """Do the clauses c and d clash in exactly one variable?"""
    clash = [x for x in c if -x in d]
    return len(clash) == 1


def prime_implicates_allpairs(f):
    """Resolution closure with subsumption elimination: every round
    resolves all pairs of the current clauses, until none is new."""
    current = subsumption_eliminate(f)
    while True:
        cls = sorted_clauses(current)
        fresh = set()
        for i in range(len(cls)):
            for j in range(i):
                if not resolvable(cls[i], cls[j]):
                    continue
                r = resolve(cls[i], cls[j])
                if r not in current and not any(d <= r for d in current):
                    fresh.add(r)
        if not fresh:
            return current
        current = subsumption_eliminate(current | fresh)


def prime_implicates_bruteforce(f, cap_vars=12):
    """Independent oracle: enumerate candidate clauses by ascending size.

    Every implied clause with no implied strict subclause is prime.  Kept
    deliberately naive (3^n candidates) for cross-checking the closure.
    """
    vs = sorted(variables(f))
    if len(vs) > cap_vars:
        raise CapExceededError(
            "brute-force prime enumeration capped at %d variables" % cap_vars)
    primes = []
    for size in range(0, len(vs) + 1):
        for chosen in itertools.combinations(vs, size):
            for signs in itertools.product((1, -1), repeat=size):
                c = frozenset(v * s for v, s in zip(chosen, signs))
                if any(p <= c for p in primes):
                    continue
                if implies(f, c):
                    primes.append(c)
    return frozenset(primes)


def check_query_against_oracle(kind, f, k, cap_vars=16, **extra):
    """Semantic recomputation of a query answer."""
    if kind == "CO":
        return sat_oracle(f, cap_vars=cap_vars)[0]
    if kind == "CE":
        return implies(f, extra["clause"], cap_vars=cap_vars)
    raise ParseError("no oracle for %r" % kind)


class _NodeBudget:
    def __init__(self, cap):
        self.cap = cap
        self.used = 0
        self.hit = False

    def spend(self):
        self.used += 1
        if self.used > self.cap:
            self.hit = True
        return self.hit


def _sorted_edges(g):
    return sorted(set(g.edges), key=lambda e: (len(e), sorted(e)))


def _greedy_cover(edges):
    chosen = []
    uncovered = list(edges)
    while uncovered:
        counts = {}
        for e in uncovered:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        best = max(sorted(counts), key=lambda v: counts[v])
        chosen.append(best)
        uncovered = [e for e in uncovered if best not in e]
    return chosen


def _disjoint_edges(edges):
    used = set()
    picked = []
    for e in edges:
        if not (e & used):
            picked.append(e)
            used |= e
    return picked


def transversal_number_recursive(g, cap_nodes=2 ** 20):
    """The τ branch-and-bound written as a recursion over frozenset
    edges: same node order, cap and bounds as `trigger.transversal_number`."""
    edges = _sorted_edges(g)
    if not edges:
        return SearchResult(0, (), True, 0, 0)
    if any(not e for e in edges):
        raise ParseError("hypergraph has an empty edge; no transversal")
    freq = {}
    for e in edges:
        for v in e:
            freq[v] = freq.get(v, 0) + 1
    best = _greedy_cover(edges)
    budget = _NodeBudget(cap_nodes)
    state = {"best": list(best)}

    def walk(chosen, uncovered):
        if budget.spend():
            return
        if not uncovered:
            if len(chosen) < len(state["best"]):
                state["best"] = list(chosen)
            return
        floor = len(chosen) + len(_disjoint_edges(uncovered))
        if floor >= len(state["best"]):
            return
        # the edges come deduped and sorted by (size, sorted vertices), and
        # filtering keeps that order, so the first uncovered edge is the
        # least one under that key
        e = uncovered[0]
        for v in sorted(e, key=lambda v: (-freq[v], v)):
            walk(chosen + [v], [x for x in uncovered if v not in x])

    walk([], edges)
    found = tuple(sorted(state["best"]))
    if budget.hit:
        lower = len(_disjoint_edges(edges))
        return SearchResult(len(found), found, False, lower, len(found))
    return SearchResult(len(found), found, True, len(found), len(found))


def matching_number_recursive(g, cap_nodes=2 ** 20):
    """The ν branch-and-bound written as a recursion over frozenset
    edges: same node order, cap and bounds as `trigger.matching_number`."""
    edges = _sorted_edges(g)
    budget = _NodeBudget(cap_nodes)
    state = {"best": []}
    greedy = _disjoint_edges(edges)
    if greedy:
        state["best"] = [edges.index(e) for e in greedy]

    def walk(i, used, chosen):
        if budget.spend():
            return
        if len(chosen) > len(state["best"]):
            state["best"] = list(chosen)
        if i == len(edges) or len(chosen) + (len(edges) - i) <= len(
                state["best"]):
            return
        e = edges[i]
        if not (e & used):
            walk(i + 1, used | e, chosen + [i])
        walk(i + 1, used, chosen)

    walk(0, frozenset(), [])
    picked = tuple(edges[i] for i in state["best"])
    value = len(picked)
    if budget.hit:
        return SearchResult(value, picked, False, value, len(edges))
    return SearchResult(value, picked, True, value, value)


def partial_assignments(vs):
    vs = sorted(vs)
    for values in itertools.product((None, 0, 1), repeat=len(vs)):
        yield {v: b for v, b in zip(vs, values) if b is not None}


def hd_by_definition(f):
    """Hardness straight from the definition: the worst unsatisfiable
    instantiation over every partial assignment."""
    worst = 0
    for phi in partial_assignments(variables(f)):
        g = apply_assignment(phi, f)
        if satisfiable_tt(g):
            continue
        k = 0
        while not propagate(g, k).refuted:
            k += 1
        worst = max(worst, k)
    return worst


def failed_literal_reduce(f):
    """Iterated failed-literal elimination written out directly (the
    textbook description of level-2 propagation)."""
    g = f
    while BOT not in g:
        hit = None
        for x in sorted({x for c in g for x in c},
                        key=lambda y: (abs(y), y < 0)):
            trial = apply_assignment(
                {abs(x): 0 if x > 0 else 1}, g)
            if unit_propagate(trial).refuted:
                hit = x
                break
        if hit is None:
            break
        g = apply_assignment({abs(hit): 1 if hit > 0 else 0}, g)
    if BOT in g:
        return frozenset([BOT])
    return g


def random_clause_set(rng, max_n=6, max_c=8, allow_empty_clause=False):
    n = rng.randint(1, max_n)
    c = rng.randint(1, max_c)
    out = set()
    for _ in range(c):
        width = rng.randint(0 if allow_empty_clause else 1, min(n, 4))
        vs = rng.sample(range(1, n + 1), width)
        out.add(clause(v * rng.choice((1, -1)) for v in vs))
    return frozenset(out)


def random_tree(rng, leaves, next_var=None):
    """Random full binary tree with the given leaf count; inner labels
    drawn fresh in preorder."""
    if next_var is None:
        next_var = itertools.count(1)
    if leaves == 1:
        return LEAF
    v = next(next_var)
    split = rng.randint(1, leaves - 1)
    left = random_tree(rng, split, next_var)
    right = random_tree(rng, leaves - split, next_var)
    return Inner(var=v, left=left, right=right)
