"""Minimal premise sets, minimal unsatisfiability classes, and doping.

Doping tags every clause of f with a fresh positive literal; the prime
implicates of the doped clause-set then enumerate exactly the minimal
premise sets of f, with the doping variables naming the members.
"""

import itertools
from dataclasses import dataclass

from .core import (bits, flip, literals_of, pack, pack_set, sorted_clauses,
                   union, unpack, variable_bits, variables)
from .errors import CapExceededError
from .primes import prime_implicates
from .propagation import sat_packed


def pure_clause(f):
    """Literals of f whose complement never occurs in f."""
    lits = literals_of(f)
    return frozenset(x for x in lits if -x not in lits)


@dataclass(frozen=True)
class MuFlags:
    mu: bool
    smu: bool
    smu_delta1: bool


def classify_mu(f):
    """Minimal, saturated, and deficiency-1 saturated unsatisfiability."""
    g = pack_set(f)
    if not is_mu_packed(g):
        return MuFlags(False, False, False)
    # saturated: widening any clause by a literal of another variable
    # makes it satisfiable
    vs = variable_bits(union(g))
    smu = all(
        sat_packed(g - {m} | {m | x}) is not None
        for m in g for b in bits(vs & ~(m | m >> 1)) for x in (b, b << 1))
    delta = len(g) - vs.bit_count()
    return MuFlags(mu=True, smu=smu, smu_delta1=smu and delta == 1)


def is_mu_packed(g):
    """Is the packed clause-set g minimally unsatisfiable: unsatisfiable,
    and satisfiable without any one of its clauses?"""
    return (sat_packed(g) is None
            and all(sat_packed(g - {m}) is not None for m in g))


def _strip_pure(g):
    """(pure clause, images) of the distinct packed clauses g: the
    literals whose complement occurs in no clause, and the set of the
    clauses with those literals removed."""
    u = union(g)
    pure = u & ~flip(u)
    return pure, frozenset(m & ~pure for m in g)


def is_mps_packed(g):
    """Are the distinct packed clauses g a minimal premise set (of their
    pure clause)?

    Returns (flag, packed pure clause).  Criterion: instantiating by the
    falsifier of the pure clause must be contraction-free on g and leave
    a minimally unsatisfiable clause-set.  No clause of g holds the
    complement of a pure literal, so the instantiation strips the pure
    literals, and two clauses contract when they leave the same image.
    Only minimal unsatisfiability is tested, not saturation.
    """
    pure, images = _strip_pure(g)
    return len(images) == len(g) and is_mu_packed(images), pure


@dataclass(frozen=True)
class MpsFamily:
    members: dict  # clause-set -> its pure clause


def mps_enumerate(f):
    """All minimal premise subsets of f, by direct subset scan over the
    clauses packed once, for at most 16 clauses."""
    if len(f) > 16:
        raise CapExceededError(
            "minimal premise enumeration capped at 16 clauses")
    clause_of = {pack(c): c for c in sorted_clauses(f)}
    members = {}
    for size in range(1, len(f) + 1):
        for combo in itertools.combinations(clause_of, size):
            flag, pure = is_mps_packed(combo)
            if flag:
                members[frozenset(map(clause_of.get, combo))] = unpack(pure)
    return MpsFamily(members=members)


@dataclass(frozen=True)
class DopedClauseSet:
    base: frozenset
    doped: frozenset
    doping_map: dict  # doping variable -> original clause


def dope(f):
    """Add one fresh positive literal per clause, in canonical order."""
    base_vars = variables(f)
    start = max(base_vars, default=0)
    doping = {}
    doped = set()
    for i, c in enumerate(sorted_clauses(f), start=1):
        u = start + i
        doping[u] = c
        doped.add(c | {u})
    return DopedClauseSet(base=f, doped=frozenset(doped), doping_map=doping)


def undope_prime(prime, doping_map):
    """Split a doped prime implicate into (member clause-set, pure clause)."""
    member = frozenset(doping_map[abs(x)] for x in prime
                       if abs(x) in doping_map)
    pure = frozenset(x for x in prime if abs(x) not in doping_map)
    return member, pure


def mps_via_doping(f):
    """Minimal premise sets of f read off the doped prime implicates, for
    at most 24 doped variables."""
    d = dope(f)
    if len(variables(d.doped)) > 24:
        raise CapExceededError("doped prime route capped at 24 variables")
    members = {}
    for prime in prime_implicates(d.doped):
        member, pure = undope_prime(unpack(prime), d.doping_map)
        members[member] = pure
    return MpsFamily(members=members)
