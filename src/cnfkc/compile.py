"""Level-k base compilation and the knowledge-compilation query suite."""

import itertools
from dataclasses import dataclass

from .core import (TOP, apply_assignment, falsify, flip, instantiate,
                   literal_bit, pack, pack_set, packed_variable_count,
                   sorted_masks, union, unpack, unpack_set, variable_bits,
                   variables)
from .errors import CapExceededError, IntegrityError, ParseError
from .hardness import hd_at_most, k_res_packed, whd
from .primes import entails, essential_primes


@dataclass(frozen=True)
class KBase:
    clauses: frozenset
    level: int
    added: tuple = ()
    removed: tuple = ()
    anomaly: bool = False


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


def greedy_base(order, ess, level, shown=None):
    """(base, added, removed) for the packed primes listed in `order`, in
    `sorted_masks` order: from the essential primes `ess`, add primes in
    `order` until the subset is equivalent to all of them and `level`
    holds, then sweep once over the non-essential primes by descending
    size, removing each while both still hold.  Essential primes are
    never tried: no subset without one is equivalent to the primes.  The
    sweep keeps `current` equivalent, so `current - {c}` is equivalent
    iff it entails c.

    The additions only grow `current`, so a prime it entails once stays
    entailed: `shown` (the primes that `ess` is known to entail, if
    given) collects them, and each step tests only the others, up to the
    first that fails.

    One sweep leaves no prime removable, provided `level` is monotone
    under adding clauses, as entailment is: a prime kept against some
    `current` stays kept against every later, smaller one."""
    primes = frozenset(order)
    if shown is None:
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


def k_base(primes, k, mode="heuristic", cap_primes=18):
    """Equivalent subset of the primes with propagation hardness <= k.

    Heuristic: seed with the essential primes, add the rest by ascending
    size until the subset is equivalent and within hardness k, then sweep
    removals once by descending size so the result is minimal
    clause-wise.  Exhaustive mode is `smallest_base` from the essential
    primes, which every equivalent subset holds: a true minimum, or
    `CapExceededError` when the cap stops the search.

    Both modes share one `proofs` dict of `hd_at_most`'s refutation
    certificates, so a prime is refuted again only when a clause of its
    last proof has gone; the heuristic one also shares the primes shown
    entailed between the anomaly check and the additions.
    """
    primes = frozenset(primes)
    g = pack_set(primes)
    order = sorted_masks(g)
    ess = pack_set(essential_primes(primes, primes=primes))
    proofs = {}  # one set of refutation certificates for the whole run

    def level(sub):
        return hd_at_most(sub, k, g, proofs=proofs)

    if mode == "exhaustive":
        base = smallest_base(
            order, ess, lambda sub: equivalent_subset(sub, g) and level(sub),
            len(ess), cap_primes)
        if base is None:
            raise CapExceededError(
                "exhaustive base search capped at %d primes" % cap_primes)
        return KBase(clauses=unpack_set(base), level=k)

    # an equivalent-but-too-hard essential core would be noteworthy; the
    # flag records whether additions started from an equivalent set
    shown = set()
    anomaly = equivalent_subset(ess, g, shown) and not level(ess)
    base, added, removed = greedy_base(order, ess, level, shown)
    return KBase(clauses=unpack_set(base), level=k,
                 added=tuple(map(unpack, added)),
                 removed=tuple(map(unpack, removed)), anomaly=anomaly)


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
        return _derives(pack_set(f), pack(clause), k, {})
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
        return (all(_derives(g, c, k, known) for c in h)
                and (kind == "SE"
                     or all(_derives(h, c, k, known) for c in g)))
    if kind == "ME":
        return enumerate_models(f, k, cap_models=cap_models)
    if kind == "MC":
        return count_models(f, k, cap_models=cap_models)
    raise ParseError("unknown query kind %r" % kind)


def _derives(g, c, k, known):
    """Does level-k resolution refute the packed g under the falsifier
    of the packed clause c (the CE answer for c)?  Yes at once when c is
    in g, which the falsifier leaves as the empty clause.  `known` maps
    each falsified instance already decided to its answer, so clauses
    with one instance share one saturation."""
    if c in g:
        return True
    h = falsify(g, c)
    hit = known.get(h)
    if hit is None:
        hit = known[h] = k_res_packed(h, k)[0]
    return hit


def enumerate_models(f, k, cap_models=2 ** 20):
    """All total models over var(f), found by a decision tree whose dead
    branches are cut by level-k refutation (never by full search): each
    satisfied cube of `_cubes`, expanded over its free variables in
    ascending order, 0 first."""
    vs = sorted(variables(f))
    out = []
    for true, depth in _cubes(vs, 0, 0, pack_set(f), k):
        phi, rest = _assignment(vs[:depth], true), vs[depth:]
        for bits in itertools.product((0, 1), repeat=len(rest)):
            model = dict(phi)
            model.update(zip(rest, bits))
            out.append(model)
            if len(out) > cap_models:
                raise _too_many(cap_models)
    return out


def count_models(f, k, cap_models=2 ** 20):
    """len(enumerate_models(f, k, cap_models)), with the same errors,
    from the residual clause-sets instead of the variable order
    (`_count`), each decided once.  When that walk meets a node that ME's
    walk reports as an integrity error, ME's walk `_cubes` is replayed
    with the count capped as it goes, so the error, its witness and
    whether the cap comes first are ME's; else the cap is one
    comparison."""
    g = pack_set(f)
    count = _count(g, k, {})
    if count is None:
        vs = sorted(variables(f))
        count = 0
        for _, depth in _cubes(vs, 0, 0, g, k):
            count += 1 << (len(vs) - depth)
            if count > cap_models:
                raise _too_many(cap_models)
    if count > cap_models:
        raise _too_many(cap_models)
    return count


def _count(g, k, counts):
    """The models of the packed g over its own variables: 0 when level-k
    resolution refutes g, 1 when g is empty, else the sum over splitting
    on the lowest variable of g, 0 first, each child's count scaled by
    2^(the variables of g it no longer holds, besides the split one).
    `counts` maps each clause-set counted to its count.  None when a node
    that is not refuted has no model, or is not empty and holds no
    variable: the integrity errors of `_cubes`, which reaches the same
    residual clause-sets, only repeated where a split leaves g alone."""
    if not g:
        return 1
    hit = counts.get(g)
    if hit is not None:
        return hit
    if k_res_packed(g, k)[0]:
        count = 0
    else:
        live = variable_bits(union(g))
        if not live:
            return None
        b = live & -live
        nb = flip(b)
        n = live.bit_count() - 1
        count = 0
        for child in (instantiate(g, nb, b), instantiate(g, b, nb)):
            below = _count(child, k, counts)
            if below is None:
                return None
            count += below << (n - packed_variable_count(child))
        if not count:
            return None
    counts[g] = count
    return count


def _too_many(cap_models):
    return CapExceededError("model enumeration exceeded %d" % cap_models)


def _assignment(vs, true):
    """The assignment of the variables vs that the literal mask `true`
    describes, in the order of vs."""
    return {v: int(bool(true & literal_bit(v))) for v in vs}


def _cubes(vs, i, true, g, k):
    """Yield (true, i) when the assignment of vs[:i] whose true literals
    are the mask `true` leaves the packed clause-set g empty; else split
    on vs[i], 0 first, below every node that level-k resolution does not
    refute.  Returns whether some cube was yielded below."""
    if not g:
        yield true, i
        return True
    if k_res_packed(g, k)[0]:
        return False
    if i == len(vs):
        raise IntegrityError(
            "total assignment left a clause-set that is neither "
            "satisfied nor refutable", witness=_assignment(vs, true))
    b = literal_bit(vs[i])
    nb = flip(b)
    left = yield from _cubes(vs, i + 1, true, instantiate(g, nb, b), k)
    right = yield from _cubes(vs, i + 1, true | b, instantiate(g, b, nb), k)
    if not (left or right):
        raise IntegrityError(
            "level-%d resolution missed an unsatisfiable branch" % k,
            witness=_assignment(vs[:i], true))
    return True
