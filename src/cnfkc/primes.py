"""Prime implicates and entailment."""

from dataclasses import dataclass

from .core import (SubsumptionIndex, bits, falsify, flip, pack, pack_set,
                   union, unpack_set, variable_bits)
from .errors import CapExceededError
from .propagation import _unit_scan, sat_packed


def implies(f, c, cap_vars=24):
    """Does every model of f satisfy clause c?"""
    return entails(pack_set(f), pack(c), cap_vars)


def entails(g, c, cap_vars=24):
    """`implies` on packed clauses.  The cap applies to the variables
    left after instantiating g by the falsifier of c."""
    return sat_packed(falsify(g, c), cap_vars) is None


def prime_implicates(f, cap_clauses=100000):
    """Prime implicates of f by Tison's consensus method.

    Variable by variable, every non-tautological resolvent of f's packed
    clauses on it is added in ascending size; a resolvent that a kept
    clause subsumes is dropped, and kept clauses that it subsumes are
    removed.  Resolvents on a variable no longer contain it, so each
    variable needs a single pass, and any order gives the same primes.
    The next variable is the one left whose kept positive and negative
    occurrence counts have the smallest product, the lower bit on ties:
    the Davis-Putnam cost of bounded variable elimination (Een & Biere,
    SatElite, 2005).  `cap_clauses` bounds the working set after each
    eliminated variable, so which input hits the cap depends on that
    order, not only on the primes.

    Returns exactly the inclusion-minimal implicates.  TOP yields TOP,
    anything unsatisfiable yields {BOT}.
    """
    g = pack_set(f)
    u = union(g)
    kept = SubsumptionIndex(u)
    for m in sorted(g, key=int.bit_count):
        kept.add(m)
    positive = left = variable_bits(u)
    while left:
        pos = min(bits(left), key=lambda p: kept.count(p) * kept.count(p << 1))
        left ^= pos
        neg = pos << 1
        ps = [c ^ pos for c in kept.holding(pos)]
        ns = [c ^ neg for c in kept.holding(neg)]
        fresh = {p | n for p in ps for n in ns
                 if not (p | n) & ((p | n) >> 1) & positive}
        for r in sorted(fresh, key=int.bit_count):
            kept.add(r)
        if len(kept) > cap_clauses:
            raise CapExceededError(
                "prime implicate closure exceeded %d clauses" % cap_clauses)
    return unpack_set(kept)


def essential_primes(f, cap_vars=24, primes=None):
    """Primes that no other primes can replace.

    A prime is replaceable when the other primes entail it.  Unit
    propagation over them under its falsifier tries that first, as a
    refutation proves the entailment; only the primes it leaves open go
    to `entails`.  So `cap_vars` is checked only for those, every
    essential prime among them: an input with no essential prime whose
    replaceable primes unit propagation all refutes is answered under
    any cap.  `primes`, when given, must be the prime implicates of f;
    it saves recomputing the closure.
    """
    if primes is None:
        primes = prime_implicates(f)
    packed = {c: pack(c) for c in primes}
    g = frozenset(packed.values())
    short = sorted(g, key=int.bit_count)  # early units end a scan early
    return frozenset(
        c for c, m in packed.items()
        if _unit_scan(filter(m.__ne__, short), flip(m))[0] is None
        and not entails(g - {m}, m, cap_vars))


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
