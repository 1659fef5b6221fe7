"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: truth tables, exhaustive
assignment scans, direct textbook loops.  Agreement between these and
the real algorithms is the point of the tests that import them.
"""

import itertools

from cnfkc.core import (BOT, apply_assignment, clause, resolvable, resolve,
                        sorted_clauses, subsumption_eliminate, variables)
from cnfkc.propagation import propagate, unit_propagate
from cnfkc.trees import LEAF, Inner


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
