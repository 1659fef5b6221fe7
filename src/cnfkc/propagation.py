"""Generalised unit-clause propagation and a small complete SAT oracle."""

from dataclasses import dataclass

from .core import (BOT, apply_assignment, bit_literal, bits, clause_key,
                   flip, instantiate, literal_assignment, literal_bit,
                   pack_set, packed_variable_count, union, unpack_set)
from .errors import CapExceededError

REFUTED = frozenset([BOT])
REFUTED_PACKED = frozenset([0])


@dataclass(frozen=True)
class PropagationResult:
    reduced: frozenset
    assigned: dict
    refuted: bool


def _result(f, assigned):
    if BOT in f:
        return PropagationResult(reduced=REFUTED, assigned=assigned,
                                 refuted=True)
    return PropagationResult(reduced=f, assigned=assigned, refuted=False)


def propagate(f, k, cache=None, select=None):
    """Reduce f by level-k propagation.

    Level 0 only detects a present empty clause.  Level k keeps assigning
    x -> 1 while some literal x has the level-(k-1) reduction of
    <x -> 0> * f refuted.  The result is order-independent; `select` may
    reorder the candidate scan (used to test exactly that).
    """
    if cache is None:
        cache = {}
    reduced, assigned = propagate_packed(pack_set(f), k, cache, select)
    refuted = 0 in reduced
    return PropagationResult(
        reduced=REFUTED if refuted else unpack_set(reduced),
        assigned={abs(x): int(x > 0) for x in map(bit_literal, assigned)},
        refuted=refuted)


def propagate_packed(g, k, cache, select=None):
    """`propagate` on the packed clause-set g: (reduced, assigned), with
    the assigned literals as single-bit masks in assignment order.

    `cache` maps (g, k) to the result for every level >= 1 visited.
    Level 2 visits no level 1: whether unit propagation refutes g with a
    candidate false is the yes/no answer of the kernel behind
    `unit_refutation`, which equals level 1's because that refutation is
    confluent.  Candidates are scanned in ascending bit order, which is
    the canonical literal order, unless `select` reorders their literals.
    """
    if 0 in g:
        return REFUTED_PACKED, ()
    if k == 0:
        return g, ()
    key = (g, k)
    hit = cache.get(key)
    if hit is not None:
        return hit
    assigned = []
    while 0 not in g:
        candidates = bits(union(g))
        if select is not None:
            candidates = [literal_bit(x) for x in
                          select(tuple(map(bit_literal, candidates)))]
        for b in candidates:
            nb = flip(b)
            if k == 1:
                # b falsified leaves the empty clause iff {b} is a unit
                refuted = b in g
            elif k == 2:
                # level 1 is unit propagation, which the kernel decides
                refuted = _unit_conflict(g, nb) is not None
            else:
                refuted = 0 in propagate_packed(instantiate(g, nb, b), k - 1,
                                                cache, select)[0]
            if refuted:
                assigned.append(b)
                g = instantiate(g, b, nb)
                break
        else:
            break
    hit = cache[key] = (REFUTED_PACKED if 0 in g else g, tuple(assigned))
    return hit


def unit_refutation(g, true):
    """Level-1 refutation of the packed g under the assignment making the
    literals of the mask `true` true: None when unit propagation reaches
    no empty clause, else the clauses of g it used to reach one.

    Those are the clause found empty and, back from its literals, the
    clause that made each of their complements true: a subset of g whose
    own instance under `true` unit propagation refutes.  Refutation by
    unit propagation is confluent, so the answer is that of
    `propagate_packed(instantiate(g, true, flip(true)), 1)`; only the
    subset depends on the scan order.  `hardness.hd_at_most` takes it as
    the certificate of a level-1 refutation."""
    hit = _unit_conflict(g, true)
    return None if hit is None else _refutation_cone(*hit)


def _unit_conflict(g, true):
    """Unit propagation on the packed g under `true`, as `unit_refutation`
    runs it: None when it reaches no empty clause, else that clause and
    the reasons, each literal bit made true mapped to the clause that was
    its unit.  The kernel of level 1 inside level 2 and of
    `unit_refutation` (the loops over bits are inlined: it is hot)."""
    false = flip(true)
    reason = {}
    live = [m for m in g if not m & true]
    while live:
        rest = []
        for m in live:
            if m & true:
                continue
            r = m & ~false
            if not r:
                return m, reason
            if r & (r - 1):
                rest.append(m)
                continue
            reason[r] = m
            true |= r
            false |= flip(r)
        if len(rest) == len(live):
            return None
        live = rest
    return None


def _refutation_cone(empty, reason):
    """The clause `empty` and the units behind its false literals."""
    used = {empty}
    stack = [empty]
    while stack:
        m = flip(stack.pop())
        while m:
            b = m & -m
            m ^= b
            c = reason.get(b)
            if c is not None and c not in used:
                used.add(c)
                stack.append(c)
    return frozenset(used)


def unit_propagate(f):
    """Plain unit-clause propagation, written directly (no recursion).

    Behaves like level-1 propagate; kept independent so the two can be
    cross-checked.
    """
    assigned = {}
    g = f
    while BOT not in g:
        unit = None
        for c in sorted(g, key=clause_key):
            if len(c) == 1:
                unit = next(iter(c))
                break
        if unit is None:
            break
        phi = literal_assignment(unit, 1)
        assigned.update(phi)
        g = apply_assignment(phi, g)
    return _result(g, assigned)


def sat_oracle(f, cap_vars=24):
    """Complete DPLL check.  Returns (satisfiable, partial model or None)."""
    model = sat_packed(pack_set(f), cap_vars)
    if model is None:
        return False, None
    return True, {abs(x): int(x > 0) for x in map(bit_literal, bits(model))}


def sat_packed(g, cap_vars=24):
    """DPLL on the packed clause-set g: the mask of a partial model's true
    literals, or None when g is unsatisfiable.

    Every unit is assigned before each branch; the branch is on the
    lowest literal, true first.
    """
    n = packed_variable_count(g)
    if n > cap_vars:
        raise CapExceededError(
            "sat oracle capped at %d variables, got %d" % (cap_vars, n))
    # (clause-set, model so far, literals to make true first)
    stack = [(g, 0, 0)]
    while stack:
        g, model, true = stack.pop()
        false = flip(true)
        while not true & false:  # else complementary units
            if true:
                model |= true
                g = instantiate(g, true, false)
            if 0 in g:
                break
            true = 0
            for m in g:
                if not m & (m - 1):
                    true |= m
            if not true:
                break
            false = flip(true)
        if true or 0 in g:
            continue
        if not g:
            return model
        b = union(g)
        b &= -b
        stack.append((g, model, flip(b)))
        stack.append((g, model, b))
    return None

