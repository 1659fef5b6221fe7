"""Prime implicates and implicants, entailment, equivalence."""

from dataclasses import dataclass

from .core import (BOT, TOP, clause_key, falsify, pack, pack_set,
                   sorted_clauses, subsumption_eliminate, variables)
from .errors import CapExceededError
from .propagation import sat_packed


def implies(f, c, cap_vars=24):
    """Does every model of f satisfy clause c?"""
    return entails(pack_set(f), pack(c), cap_vars)


def entails(g, c, cap_vars=24):
    """`implies` on packed clauses.  The cap applies to the variables
    left after instantiating g by the falsifier of c."""
    return sat_packed(falsify(g, c), cap_vars) is None


def equivalent(f, g, cap_vars=24):
    """Logical equivalence via mutual clause entailment."""
    return (all(implies(f, c, cap_vars) for c in g)
            and all(implies(g, c, cap_vars) for c in f))


def prime_implicates(f, cap_clauses=100000):
    """Prime implicates of f by Tison's consensus method.

    Clauses are packed into integer bitmasks: with the variables of f
    numbered 0, 1, ... in ascending order, literal v of the i-th variable
    is bit 2i and -v is bit 2i+1.  This dense per-call numbering, unlike
    `core`'s absolute bits, keeps the per-bit occurrence list below at
    one entry per literal of f, whatever its largest variable id.
    Variable by variable, every non-tautological resolvent on it is added
    in ascending size; a resolvent that a kept clause subsumes is
    dropped, and kept clauses that it subsumes are removed.  Resolvents
    on a variable no longer contain it, so each variable needs a single
    pass.  `cap_clauses`
    bounds the working set after each variable.

    Returns exactly the inclusion-minimal implicates.  TOP yields TOP,
    anything unsatisfiable yields {BOT}.
    """
    lits = [x for v in sorted(variables(f)) for x in (v, -v)]
    bit = {x: 1 << i for i, x in enumerate(lits)}
    positive = sum(1 << i for i in range(0, len(lits), 2))
    # every clause ever kept, by index; per literal, the bitmap of the
    # indices whose clause holds it; the bitmap of indices still kept.
    # Both subsumption tests of `add` are then a few big-int operations
    # per literal instead of a scan over the kept clauses.
    store = []
    occ = [0] * len(lits)
    alive = 0

    def members(indices):
        while indices:
            low = indices & -indices
            yield store[low.bit_length() - 1]
            indices ^= low

    def add(r):
        nonlocal alive
        outside, inside = 0, alive
        for b, o in enumerate(occ):
            if r >> b & 1:
                inside &= o
            else:
                outside |= o
        if alive & ~outside:
            return  # a kept clause has no literal outside r
        new = 1 << len(store)
        store.append(r)
        alive = alive & ~inside | new
        for b in range(len(occ)):
            if r >> b & 1:
                occ[b] |= new

    for m in sorted({sum(bit[x] for x in c) for c in f}, key=int.bit_count):
        add(m)
    for i in range(0, len(lits), 2):
        pos, neg = 1 << i, 2 << i
        ps = [c ^ pos for c in members(alive & occ[i])]
        ns = [c ^ neg for c in members(alive & occ[i + 1])]
        fresh = {p | n for p in ps for n in ns
                 if not (p | n) & ((p | n) >> 1) & positive}
        for r in sorted(fresh, key=int.bit_count):
            add(r)
        if alive.bit_count() > cap_clauses:
            raise CapExceededError(
                "prime implicate closure exceeded %d clauses" % cap_clauses)
    return frozenset(
        frozenset(x for j, x in enumerate(lits) if m >> j & 1)
        for m in members(alive))


def prime_implicants(f, cap_count=100000):
    """Minimal clash-free hitting sets of f (term representation).

    For unsatisfiable f there are none; for TOP the empty term qualifies.
    """
    if BOT in f:
        return TOP
    found = set()
    order = sorted_clauses(f)

    def rec(partial, idx):
        if len(found) > cap_count:
            raise CapExceededError(
                "prime implicant enumeration exceeded %d terms" % cap_count)
        while idx < len(order) and any(x in partial for x in order[idx]):
            idx += 1
        if idx == len(order):
            found.add(frozenset(partial))
            return
        for x in clause_key(order[idx]):
            if -x not in partial:
                rec(partial | {x}, idx + 1)

    rec(frozenset(), 0)
    return subsumption_eliminate(found)


def essential_primes(f, cap_vars=24, primes=None):
    """Primes that no other primes can replace.

    `primes`, when given, must be the prime implicates of f; it saves
    recomputing the closure.
    """
    if primes is None:
        primes = prime_implicates(f)
    packed = {c: pack(c) for c in primes}
    g = frozenset(packed.values())
    return frozenset(c for c, m in packed.items()
                     if not entails(g - {m}, m, cap_vars))


@dataclass(frozen=True)
class PrimeReport:
    primes: frozenset
    essential: frozenset
    count: int
    essential_count: int


def prime_report(f, cap_vars=24):
    primes = prime_implicates(f)
    ess = essential_primes(f, cap_vars=cap_vars, primes=primes)
    return PrimeReport(primes=primes, essential=ess,
                       count=len(primes), essential_count=len(ess))
