"""Level-k base compilation and the knowledge-compilation query suite."""

import bisect
import itertools
from dataclasses import dataclass

from .core import (TOP, apply_assignment, bit_literal, flip, instantiate,
                   literal_bit, pack, pack_set, packed_variable_count,
                   sorted_masks, union, unpack, unpack_set, variable_bits,
                   variables)
from .errors import CapExceededError, IntegrityError, ParseError
from .hardness import derives, hd_at_most, k_res_packed, whd
from .primes import entails, essential_primes


@dataclass(frozen=True)
class KBase:
    clauses: frozenset
    level: int
    added: tuple
    removed: tuple


def equivalent_subset(sub, primes, shown=None):
    """Does the subset `sub` of the packed prime implicates entail all
    of them?

    `shown`, when given, is a set of primes that `sub` is known to
    entail: they are not tested again, and each prime found entailed
    joins it.  Every superset of `sub` still entails what it holds, as
    entailment is monotone under adding clauses."""
    if shown is None:
        shown = set()
    for c in primes - sub - shown:
        if not entails(sub, c):
            return False
        shown.add(c)
    return True


def greedy_base(order, ess, level):
    """(base, added, removed) for the packed primes listed in `order`, in
    `sorted_masks` order: from the essential primes `ess`, add primes in
    `order` until the subset is equivalent to all of them and `level`
    holds, then sweep once over the non-essential primes by descending
    size, removing each while both still hold.  Essential primes are
    never tried: no subset without one is equivalent to the primes.  The
    sweep keeps `current` equivalent, so `current - {c}` is equivalent
    iff it entails c.

    The additions only grow `current`, so a prime it entails once stays
    entailed: `shown` collects them, and each step tests only the
    others, up to the first that fails.

    One sweep leaves no prime removable, provided `level` is monotone
    under adding clauses, as entailment is: a prime kept against some
    `current` stays kept against every later, smaller one."""
    primes = frozenset(order)
    shown = set()
    current = ess
    added = []
    for c in order:
        if equivalent_subset(current, primes, shown) and level(current):
            break
        if c not in current:
            current |= {c}
            added.append(c)
    spare = current - ess
    removed = []
    for c in sorted([c for c in order if c in spare], key=int.bit_count,
                    reverse=True):
        trial = current - {c}
        if entails(trial, c) and level(trial):
            current = trial
            removed.append(c)
    return current, added, removed


def smallest_base(order, ess, good, floor, cap_primes):
    """The exact prime-subset search: the first subset of the primes in
    `order` that holds the essential primes `ess` and satisfies `good`,
    scanning sizes upward from `floor` (at least len(ess)) and each size
    in combination order; None when the cap stops the scan.

    A size with a single candidate is always tried: `ess` at len(ess)
    and all of `order` at len(order).  Any other size is tried only when
    `order` holds at most `cap_primes` primes.  The full prime set is
    equivalent and holds the empty clause under each prime's falsifier,
    so a sound `good` accepts it; a rejection raises `IntegrityError`."""
    others = [c for c in order if c not in ess]
    for size in range(floor, len(order) + 1):
        extra = size - len(ess)
        if 0 < extra < len(others) and len(order) > cap_primes:
            return None
        for combo in itertools.combinations(others, extra):
            sub = ess | frozenset(combo)
            if good(sub):
                return sub
    raise IntegrityError("full prime set rejected; search is broken")


def k_base(primes, k):
    """Equivalent subset of the primes with propagation hardness <= k.

    Seed with the essential primes, add the rest by ascending size until
    the subset is equivalent and within hardness k, then sweep removals
    once by descending size so the result is minimal clause-wise
    (`greedy_base`).  Every `hd_at_most` test shares one `proofs` dict
    of refutation certificates, so a prime is refuted again only when a
    clause of its last proof has gone.
    """
    primes = frozenset(primes)
    g = pack_set(primes)
    ess = pack_set(essential_primes(primes, primes=primes))
    proofs = {}  # one set of refutation certificates for the whole run
    base, added, removed = greedy_base(
        sorted_masks(g), ess, lambda sub: hd_at_most(sub, k, g, proofs=proofs))
    return KBase(clauses=unpack_set(base), level=k,
                 added=tuple(map(unpack, added)),
                 removed=tuple(map(unpack, removed)))


def answer_query(kind, f, k, clause=None, assignment=None, other=None,
                 verify=False, cap_models=2 ** 20):
    """Knowledge-compilation queries answered by level-k resolution only.

    The caller promises that unsatisfiable instantiations of f are always
    refutable with one parent of size <= k; a violation discovered during
    model enumeration raises an integrity error naming the witness.
    """
    if verify:
        if whd(f) > k:
            raise IntegrityError("input exceeds asymmetric width %d" % k)
    if kind == "CO":
        return not k_res_packed(pack_set(f), k)[0]
    if kind == "CE":
        if clause is None:
            raise ParseError("CE needs a clause")
        return derives(pack_set(f), pack(clause), k, {})
    if kind == "VA":
        return f == TOP
    if kind == "IM":
        if assignment is None:
            raise ParseError("IM needs an assignment")
        return apply_assignment(assignment, f) == TOP
    if kind in ("SE", "EQ"):
        if other is None:
            raise ParseError("%s needs a second clause-set" % kind)
        g, h = pack_set(f), pack_set(other)
        known = {}  # one saturation per falsified instance, both ways
        return (all(derives(g, c, k, known) for c in h)
                and (kind == "SE"
                     or all(derives(h, c, k, known) for c in g)))
    if kind == "ME":
        return enumerate_models(f, k, cap_models=cap_models)
    if kind == "MC":
        return count_models(f, k, cap_models=cap_models)
    raise ParseError("unknown query kind %r" % kind)


def enumerate_models(f, k, cap_models=2 ** 20):
    """All total models over var(f), found by a decision tree whose dead
    branches are cut by level-k refutation (never by full search):
    `_models` decides every residual clause-set, and then each satisfied
    cube of `_cubes`, expanded over its free variables in ascending
    order, 0 first."""
    vs = sorted(variables(f))
    g = pack_set(f)
    memo = {}
    _models(vs, 0, 0, g, k, memo, 0, cap_models)
    out = []
    for true, depth in _cubes(vs, 0, 0, g, memo):
        phi, rest = _assignment(vs[:depth], true), vs[depth:]
        for bits in itertools.product((0, 1), repeat=len(rest)):
            model = dict(phi)
            model.update(zip(rest, bits))
            out.append(model)
    return out


def count_models(f, k, cap_models=2 ** 20):
    """len(enumerate_models(f, k, cap_models)), with the same errors,
    from `_models` alone."""
    return _models(sorted(variables(f)), 0, 0, pack_set(f), k, {}, 0,
                   cap_models)


def _models(vs, i, true, g, k, memo, before, cap_models):
    """The number of models over vs[i:] of the packed clause-set g, which
    the assignment of vs[:i] whose true literals are the mask `true`
    leaves: 0 when level-k resolution refutes g, else the sum over
    splitting on the lowest variable g still holds, 0 first, doubled for
    each variable of vs[i:] below it.

    ME's order takes those variables at 0 first, so this walk meets the
    residual clause-sets in ME's order, and `memo` maps each one decided
    to its models over its own variables: each is decided once, at its
    first node.  A node that is not refuted and has no model, or is not
    empty and holds no variable, raises an integrity error with its
    assignment, the variables left out at 0.  `before` models precede g
    in ME's order, so the cap error is raised as soon as `before` and
    g's models pass `cap_models`, before any later node is decided, as
    in ME."""
    free = len(vs) - i
    if not g:
        total = 1 << free
    elif g in memo:
        total = memo[g] << (free - packed_variable_count(g))
    else:
        total = 0
        if not k_res_packed(g, k)[0]:
            live = variable_bits(union(g))
            if not live:
                raise IntegrityError(
                    "total assignment left a clause-set that is neither "
                    "satisfied nor refutable", witness=_assignment(vs, true))
            b = live & -live
            nb = flip(b)
            j = bisect.bisect_left(vs, bit_literal(b), i)
            left = _models(vs, j + 1, true, instantiate(g, nb, b), k, memo,
                           before, cap_models)
            total = left + _models(vs, j + 1, true | b, instantiate(g, b, nb),
                                   k, memo, before + left, cap_models)
            if not total:
                raise IntegrityError(
                    "level-%d resolution missed an unsatisfiable branch" % k,
                    witness=_assignment(vs[:j], true))
            total <<= j - i
        memo[g] = total >> (free - packed_variable_count(g))
    if before + total > cap_models:
        raise CapExceededError("model enumeration exceeded %d" % cap_models)
    return total


def _assignment(vs, true):
    """The assignment of the variables vs that the literal mask `true`
    describes, in the order of vs."""
    return {v: int(bool(true & literal_bit(v))) for v in vs}


def _cubes(vs, i, true, g, memo):
    """Yield (true, i) when the assignment of vs[:i] whose true literals
    are the mask `true` leaves the packed clause-set g empty; else split
    on vs[i], 0 first, below every node to which `memo` (filled by
    `_models`) gives a model."""
    if not g:
        yield true, i
    elif memo[g]:
        b = literal_bit(vs[i])
        nb = flip(b)
        yield from _cubes(vs, i + 1, true, instantiate(g, nb, b), memo)
        yield from _cubes(vs, i + 1, true | b, instantiate(g, b, nb), memo)
