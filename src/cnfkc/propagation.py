"""Generalised unit-clause propagation and a small complete SAT oracle."""

from dataclasses import dataclass

from .core import (BOT, apply_assignment, clause_key, literal_assignment,
                   literals_of, variables)
from .errors import CapExceededError

REFUTED = frozenset([BOT])

# sentinel returned by forced_literals on unsatisfiable input
ALL_FORCED = "all"


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


def _candidate_literals(f):
    """Literals of f in the fixed scan order: ascending var, positive first."""
    return clause_key(literals_of(f))


def propagate(f, k, cache=None, select=None):
    """Reduce f by level-k propagation.

    Level 0 only detects a present empty clause.  Level k keeps assigning
    x -> 1 while some literal x has the level-(k-1) reduction of
    <x -> 0> * f refuted.  The result is order-independent; `select` may
    reorder the candidate scan (used to test exactly that).
    """
    if cache is None:
        cache = {}
    return _propagate(f, k, cache, select, {})


def _propagate(f, k, cache, select, assigned):
    if BOT in f or k == 0:
        return _result(f, assigned)
    key = (f, k)
    hit = cache.get(key)
    if hit is not None:
        reduced, extra = hit
        merged = dict(assigned)
        merged.update(extra)
        if reduced == REFUTED:
            return PropagationResult(REFUTED, merged, True)
        return PropagationResult(reduced, merged, False)
    start = f
    extra = {}
    g = f
    progress = True
    while progress and BOT not in g:
        progress = False
        candidates = _candidate_literals(g)
        if select is not None:
            candidates = select(candidates)
        for x in candidates:
            zero = apply_assignment(literal_assignment(x, 0), g)
            if _propagate(zero, k - 1, cache, select, {}).refuted:
                phi = literal_assignment(x, 1)
                extra.update(phi)
                g = apply_assignment(phi, g)
                progress = True
                break
    reduced = REFUTED if BOT in g else g
    cache[(start, k)] = (reduced, extra)
    merged = dict(assigned)
    merged.update(extra)
    return PropagationResult(reduced, merged, BOT in g)


def propagate_full(f, cache=None):
    """Propagation at the saturation level n(f) (higher levels are idle)."""
    return propagate(f, len(variables(f)), cache=cache)


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
    if len(variables(f)) > cap_vars:
        raise CapExceededError(
            "sat oracle capped at %d variables, got %d"
            % (cap_vars, len(variables(f))))
    model = _dpll(f, {})
    return (model is not None), model


def _dpll(f, phi):
    while True:
        if BOT in f:
            return None
        if not f:
            return phi
        res = unit_propagate(f)
        if res.assigned:
            phi = dict(phi)
            phi.update(res.assigned)
            f = res.reduced
            continue
        break
    if BOT in f:
        return None
    x = min(literals_of(f), key=lambda y: (abs(y), y < 0))
    for value in (1, 0):
        step = literal_assignment(x, value)
        extended = dict(phi)
        extended.update(step)
        found = _dpll(apply_assignment(step, f), extended)
        if found is not None:
            return found
    return None


def forced_literals(f, cap_vars=24):
    """Literals true in every total model of f.

    Returns the sentinel ALL_FORCED when f is unsatisfiable (every literal
    is vacuously forced).
    """
    ok, _ = sat_oracle(f, cap_vars=cap_vars)
    if not ok:
        return ALL_FORCED
    forced = set()
    for v in sorted(variables(f)):
        for x in (v, -v):
            g = apply_assignment(literal_assignment(x, 0), f)
            ok, _ = sat_oracle(g, cap_vars=cap_vars)
            if not ok:
                forced.add(x)
    return frozenset(forced)
