"""Hardness measures: propagation hardness, p-hardness, asymmetric and
symmetric width."""

import heapq
import json
import math
from dataclasses import dataclass

from .core import (BOT, SubsumptionIndex, bit_literal, bits,
                   clause_falsifier, clause_key, falsify, flip, instantiate,
                   pack, pack_set, packed_variable_count, sorted_clauses,
                   union, unpack)
from .errors import CapExceededError, IntegrityError, ParseError
from .primes import prime_implicates
from .propagation import (REFUTED, _unit_scan, propagate_packed,
                          sat_oracle, unit_refutation)


def k_res_refutes(f, k, cap_clauses=200000, want_trace=False):
    """Can f be refuted by resolution where one parent has size <= k?

    Returns (refuted, trace); the trace, when requested, is a derivation
    of the empty clause: (clause, parent, parent) steps in the order they
    were derived, each parent an axiom or an earlier step.  It is *a*
    derivation, not a shortest one.  `cap_clauses` bounds the clauses
    kept (see `k_res_packed`).
    """
    refuted, trace = k_res_packed(pack_set(f), k, cap_clauses=cap_clauses,
                                  want_trace=want_trace)
    if trace is not None:
        trace = [tuple(map(unpack, step)) for step in trace]
    return refuted, trace


def k_res_packed(g, k, w=math.inf, cap_clauses=200000, want_trace=False):
    """Resolution on the packed clause-set g (a container, in any order)
    where, in every step, one parent has at most k literals and every
    clause at most w: (refuted, packed trace when requested).  The
    clauses of g longer than w are dropped first, so with k = w this is
    width-w resolution.

    The given-clause loop (E; Schulz 2002).  The axioms, by size and
    then mask, and then every kept resolvent wait in a passive queue,
    shortest first and first in, first out within one size.  Each step
    takes the shortest passive clause, resolves it against the active
    clauses (all of them when it has at most k literals, else those
    that have) and makes it active.  A resolvent is dropped when it has
    more than w literals, was met before, or a kept clause subsumes it.
    Dropping subsumed ones is sound for both restrictions: a kept D
    within R is no longer than R, so it can stand in for R as the
    bounded parent, and with any E that R resolves with, D either
    resolves to a subset of R's resolvent or is itself one.  So the
    answer is that of the saturation that keeps every resolvent, and
    does not depend on the order of g.

    At k = 1 with no trace asked for, the answer is unit propagation's
    over the clauses of at most w literals (`propagation._unit_scan`),
    and no clause is kept, so the cap does not apply: unit resolution
    refutes exactly when unit propagation does, and a unit resolvent is
    shorter than its long parent, so w drops only axioms.

    `cap_clauses` bounds the clauses kept, axioms included; dropped
    resolvents do not count.  The subsumed ones are remembered so that
    each is tested once, in a set of at most `cap_clauses` that is
    emptied when full, so memory stays within a multiple of the cap.  The
    subsumption index forgets the kept clauses that a later one
    subsumes, which changes none of its answers; they stay active.
    Only a strictly shorter clause can subsume a new resolvent, and no
    kept clause is empty, so the index is built at the first resolvent
    of two or more literals: calls that derive no such resolvent pay
    nothing for it.
    """
    if k < 0:
        raise ParseError("resolution level must be at least 0, got %d" % k)
    if 0 in g:
        return True, ([] if want_trace else None)
    if k == 1 and not want_trace:
        refuted = _unit_scan([c for c in g if c.bit_count() <= w], 0)[0]
        return refuted is not None, None
    # kept clause -> its parents, the axioms first
    seen = dict.fromkeys(c for c in g if c.bit_count() <= w)
    passive = [(c.bit_count(), 0, c) for c in seen]
    heapq.heapify(passive)
    if len(passive) < 2 or passive[0][0] > k:
        return False, None  # no pair, or none with a parent of <= k literals
    dropped = set()  # the subsumed resolvents met so far
    index = None
    active = []
    small = []  # the active clauses of at most k literals
    while passive:
        size, _, c = heapq.heappop(passive)
        neg = flip(c)
        for d in (active if size <= k else small):
            clash = neg & d
            if not clash or clash & (clash - 1):
                continue
            r = (c | d) & ~(3 << ((clash.bit_length() - 1) & ~1))
            if r.bit_count() > w or r in seen or r in dropped:
                continue
            if not r:
                seen[r] = (c, d)
                return True, (_trace(seen) if want_trace else None)
            if index is None and r & (r - 1):
                index = SubsumptionIndex(union(seen), seen)
            if index is not None and not index.add(r):
                if len(dropped) >= cap_clauses:
                    dropped.clear()
                dropped.add(r)
                continue
            seen[r] = (c, d)
            heapq.heappush(passive, (r.bit_count(), len(seen), r))
        active.append(c)
        if size <= k:
            small.append(c)
        if len(seen) > cap_clauses:
            what = "bounded" if w == math.inf else "width-bounded"
            raise CapExceededError(
                "%s resolution exceeded %d clauses" % (what, cap_clauses))
    return False, None


def _trace(seen):
    """The steps deriving the empty clause, in the order of `seen`, so
    that every parent comes before the step using it."""
    need = {0}
    stack = [0]
    while stack:
        for p in seen[stack.pop()] or ():
            if p not in need:
                need.add(p)
                stack.append(p)
    return [(c,) + par for c, par in seen.items() if par and c in need]


def width_refutes(f, w, cap_clauses=200000):
    """Resolution refutation where every clause (axioms too) has size <= w."""
    return k_res_packed(pack_set(f), w, w, cap_clauses)[0]


def _k_res_refutes(g, k):
    """whd's refutation test: k-resolution on the packed g."""
    return k_res_packed(g, k)[0]


def _width_refutes(g, w):
    """wid's refutation test: width-w resolution on the packed g."""
    return k_res_packed(g, w, w)[0]


def _propagation_refutes(cache):
    """hd's refutation test: level-k propagation, sharing `cache`."""
    return lambda g, k: 0 in propagate_packed(g, k, cache)[0]


def _least_level(g, refutes):
    """The least k at which `refutes(g, k)` holds, for the unsatisfiable
    packed g.  Level-n propagation and resolution with no bound left both
    refute at n = n(g), so a search past n + 1 is an integrity error."""
    for k in range(packed_variable_count(g) + 2):
        if refutes(g, k):
            return k
    raise IntegrityError("unsatisfiable input not refuted at saturation")


def _closure(f, cap_vars, primes):
    """f's prime closure: `primes` when given, else computed once the
    DPLL finds f satisfiable, else REFUTED.  It holds BOT exactly when f
    is unsatisfiable (see `prime_implicates`)."""
    if primes is not None:
        return primes
    return prime_implicates(f) if sat_oracle(f, cap_vars)[0] else REFUTED


def _worst_falsifier(f, primes, refutes):
    """(level, critical prime), given f's prime closure and a refutation
    test `refutes(g, k)` on packed clause-sets, monotone in k: for
    unsatisfiable f, the `_least_level` of f itself and no prime; else
    the worst `_least_level` over the falsifiers of the primes, with the
    first critical prime in canonical order (0 and none for TOP, which
    has no primes).  As in `_phd_with_witness`, each distinct falsified
    instance is tested at the running maximum and climbed only when that
    fails, up to `_least_level`'s saturation bound."""
    g = pack_set(f)
    if BOT in primes:
        return _least_level(g, refutes), None
    best, crit, done = 0, None, set()
    for c in sorted_clauses(primes):
        h = falsify(g, pack(c))
        if h in done:
            continue
        done.add(h)
        k, top = best, packed_variable_count(h) + 1
        while not refutes(h, k):
            if k >= top:
                raise IntegrityError(
                    "unsatisfiable input not refuted at saturation")
            k += 1
        if k > best or crit is None:
            best, crit = k, c
    return best, crit


def hd(f, cap_vars=24, primes=None):
    """Propagation hardness.

    Unsatisfiable: smallest k whose propagation refutes f.  Satisfiable:
    worst case over the prime implicates c of the level needed to refute
    the instantiation by the falsifier of c.
    """
    return _worst_falsifier(f, _closure(f, cap_vars, primes),
                            _propagation_refutes({}))[0]


def hd_at_most(g, k, primes, cache=None, proofs=None):
    """Fast check hd(g) <= k for the satisfiable packed clause-set g,
    given its packed prime implicates: does level-k propagation refute g
    under the falsifier of every prime?

    `proofs`, when given, maps a prime to a certificate: a set of clauses
    whose instance under the prime's falsifier level k refutes.  Level-k
    refutation is monotone under adding clauses, so a prime whose
    certificate lies within g is refuted without a check; every prime
    checked and refuted gets a new one.  At level 1 it is the clauses
    that unit propagation used to reach the empty clause
    (`unit_refutation`, the one level-1 path here, with or without
    `proofs`); at any other level, coarser, the clauses of g that the
    falsifier leaves."""
    if cache is None:
        cache = {}
    if proofs is None:
        proofs = {}
    for c in primes:
        cert = proofs.get(c)
        if cert is not None and cert <= g:
            continue
        if k == 1:
            cert = unit_refutation(g, flip(c))
            if cert is None:
                return False
        else:
            true = flip(c)
            cert = frozenset(m for m in g if not m & true)
            if 0 not in propagate_packed(instantiate(cert, true, c), k,
                                         cache)[0]:
                return False
        proofs[c] = cert
    return True


def whd(f, cap_vars=24, primes=None):
    """Asymmetric width: one resolution parent bounded per step."""
    return _worst_falsifier(f, _closure(f, cap_vars, primes),
                            _k_res_refutes)[0]


def whd_at_most(g, k, primes):
    """Fast check whd(g) <= k for the satisfiable packed clause-set g,
    given its packed prime implicates: does g derive every prime by
    level-k resolution (`derives`)?  Primes with one falsified instance
    share one saturation."""
    known = {}
    return all(derives(g, c, k, known) for c in primes)


def derives(g, c, k, known):
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


def wid(f, cap_vars=24, primes=None):
    """Symmetric width: every clause of the refutation bounded."""
    return _worst_falsifier(f, _closure(f, cap_vars, primes),
                            _width_refutes)[0]


def phd(f, cap_vars=24, primes=None):
    """p-hardness: smallest k where level-k propagation already computes
    the saturation-level reduction under every partial assignment; f is
    propagation-complete exactly when phd(f) <= 1.

    Unsatisfiable: hd(f).  Satisfiable: worst case over the prime
    implicates C and literals x of C of the least level at which
    propagation under the falsifier of C - {x} assigns x.
    This is exact: a literal x forced under an assignment phi lies in a
    prime C with C - {x} within the negation of phi, refutation by
    level-k propagation survives extending the assignment (Kullmann
    1999), and each falsifier of C - {x} is itself an assignment forcing
    x.
    """
    return _phd_with_witness(f, _closure(f, cap_vars, primes), {})[0]


def _phd_with_witness(f, primes, cache):
    """(phd, the first assignment needing it) in the shape of
    `_worst_falsifier`: the pairs (C, x) in canonical order, the witness
    being the falsifier of C - {x}, or {} when f is unsatisfiable or TOP.
    C - {x} is no implicate, so its falsifier leaves f satisfiable and the
    level of a pair is the least one assigning x.  It is climbed only when
    level `best` does not assign x (higher levels assign a superset), so
    the maximum is unchanged."""
    g = pack_set(f)
    if BOT in primes:
        return _least_level(g, _propagation_refutes(cache)), {}
    best = 0
    witness = {}
    for c in sorted_clauses(primes):
        m = pack(c)
        for b in bits(m):
            h = falsify(g, m ^ b)
            k, top = best, packed_variable_count(h)
            while b not in propagate_packed(h, k, cache)[1]:
                if k >= top:
                    raise IntegrityError(
                        "implied literal not forced at saturation",
                        witness={"prime": list(clause_key(c)),
                                 "literal": bit_literal(b)})
                k += 1
            if k > best:
                best = k
                witness = clause_falsifier(c - {bit_literal(b)})
    return best, witness


@dataclass(frozen=True)
class HardnessReport:
    hd: int
    whd: int
    wid: int
    phd: int
    witnesses: dict


def hardness_report(f):
    """All four measures plus per-measure certificates: the critical
    prime implicate for the sat-case maxima, the demanding partial
    assignment for p-hardness."""
    primes = _closure(f, 24, None)
    cache = {}
    witnesses = {}
    for name, refutes in (("hd", _propagation_refutes(cache)),
                          ("whd", _k_res_refutes), ("wid", _width_refutes)):
        level, crit = _worst_falsifier(f, primes, refutes)
        witnesses[name] = {"critical_prime": crit, "level": level}
    level, phi = _phd_with_witness(f, primes, cache)
    witnesses["phd"] = {"assignment": phi, "level": level}
    levels = {name: w["level"] for name, w in witnesses.items()}
    return HardnessReport(witnesses=witnesses, **levels)


def report_to_json(rep):
    def conv(w):
        out = {}
        for key, value in w.items():
            if key == "critical_prime":
                out[key] = (None if value is None
                            else sorted(value, key=lambda x: (abs(x), x < 0)))
            elif key == "assignment":
                out[key] = {str(v): b for v, b in sorted(value.items())}
            else:
                out[key] = value
        return out

    doc = {"hd": rep.hd, "whd": rep.whd, "wid": rep.wid, "phd": rep.phd,
           "witnesses": {name: conv(w) for name, w in rep.witnesses.items()}}
    return json.dumps(doc, sort_keys=True, indent=1)
