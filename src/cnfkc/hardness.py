"""Hardness measures: propagation hardness, p-hardness, asymmetric and
symmetric width, and the width-based resolution size bound."""

import itertools
import json
import math
from dataclasses import dataclass

from .core import (BOT, bit_literal, bits, clause_falsifier, clause_key,
                   falsify, flip, pack, pack_set, packed_variable_count,
                   sorted_clauses, sorted_masks, unpack)
from .errors import CapExceededError, IntegrityError
from .primes import prime_implicates
from .propagation import REFUTED, propagate_packed, sat_oracle


def k_res_refutes(f, k, cap_clauses=200000, want_trace=False):
    """Can f be refuted by resolution where one parent has size <= k?

    Returns (refuted, trace); the trace lists (clause, parent, parent)
    derivation steps ending in the empty clause when requested.
    """
    refuted, trace = k_res_packed(sorted_masks(pack_set(f)), k, cap_clauses,
                                  want_trace)
    if trace is not None:
        trace = [tuple(map(unpack, step)) for step in trace]
    return refuted, trace


def k_res_packed(order, k, cap_clauses=200000, want_trace=False):
    """`k_res_refutes` on packed clauses given in `sorted_masks` order,
    with a packed trace."""
    return _bounded_resolution(order, k, math.inf, cap_clauses, want_trace)


def _bounded_resolution(order, k, w, cap_clauses, want_trace=False):
    """Resolution where, in every step, one parent has at most k literals
    and every clause at most w: (refuted, packed trace when requested).

    Clauses are taken in `order`, each resolved against every earlier one
    in order (only the clauses of size <= k when it is larger), and
    resolvents of size <= w join the end of a copy of the order.  With
    k = w and every clause of `order` within w literals, every clause is
    short: this is width-w resolution.
    """
    order = list(order)
    seen = dict.fromkeys(order)
    if 0 in seen:
        return True, ([] if want_trace else None)
    small = []  # indices below i of clauses of size <= k
    i = 0
    while i < len(order):
        c = order[i]
        neg = flip(c)
        short = c.bit_count() <= k
        for j in (range(i) if short else small):
            d = order[j]
            clash = neg & d
            if not clash or clash & (clash - 1):
                continue
            r = (c | d) & ~(3 << ((clash.bit_length() - 1) & ~1))
            if r.bit_count() > w or r in seen:
                continue
            seen[r] = (c, d)
            order.append(r)
            if not r:
                return True, (_trace(seen, r) if want_trace else None)
        if short:
            small.append(i)
        i += 1
        if len(order) > cap_clauses:
            what = "bounded" if w == math.inf else "width-bounded"
            raise CapExceededError(
                "%s resolution exceeded %d clauses" % (what, cap_clauses))
    return False, None


def _trace(seen, goal):
    steps = []
    stack = [goal]
    done = set()
    while stack:
        c = stack.pop()
        if c in done:
            continue
        done.add(c)
        par = seen[c]
        if par is not None:
            steps.append((c, par[0], par[1]))
            stack.extend(par)
    steps.reverse()
    return steps


def width_refutes(f, w, cap_clauses=200000):
    """Resolution refutation where every clause (axioms too) has size <= w."""
    return width_packed(sorted_masks(pack_set(f)), w, cap_clauses)


def width_packed(order, w, cap_clauses=200000):
    """`width_refutes` on packed clauses given in `sorted_masks` order."""
    return _bounded_resolution([c for c in order if c.bit_count() <= w],
                               w, w, cap_clauses)[0]


def _min_refute_level(g, cache):
    """Smallest k with level-k propagation refuting the unsatisfiable
    packed g."""
    bound = packed_variable_count(g) + 1
    for k in range(bound + 1):
        if 0 in propagate_packed(g, k, cache)[0]:
            return k
    raise IntegrityError("unsatisfiable input not refuted at saturation")


def _closure(f, cap_vars, primes):
    """f's prime closure: `primes` when given, else computed once the
    DPLL finds f satisfiable, else REFUTED.  It holds BOT exactly when f
    is unsatisfiable (see `prime_implicates`)."""
    if primes is not None:
        return primes
    return prime_implicates(f) if sat_oracle(f, cap_vars)[0] else REFUTED


def _worst_falsifier(f, primes, measure):
    """(value, critical prime) of `measure`, defined on unsatisfiable
    packed clause-sets, given f's prime closure: for unsatisfiable f, its
    own measure and no prime; else the worst case over the falsifiers of
    the primes, with the first critical prime in canonical order (0 and
    none for TOP, which has no primes)."""
    g = pack_set(f)
    if BOT in primes:
        return measure(g), None
    return max(((measure(falsify(g, pack(c))), c)
                for c in sorted_clauses(primes)),
               key=lambda vc: vc[0], default=(0, None))


def hd(f, cap_vars=24, primes=None):
    """Propagation hardness.

    Unsatisfiable: smallest k whose propagation refutes f.  Satisfiable:
    worst case over the prime implicates c of the level needed to refute
    the instantiation by the falsifier of c.
    """
    cache = {}
    return _worst_falsifier(f, _closure(f, cap_vars, primes),
                            lambda g: _min_refute_level(g, cache))[0]


def hd_at_most(g, k, primes, cache=None):
    """Fast check hd(g) <= k for the satisfiable packed clause-set g,
    given its packed prime implicates."""
    if cache is None:
        cache = {}
    return all(0 in propagate_packed(falsify(g, c), k, cache)[0]
               for c in primes)


def whd(f, cap_vars=24, primes=None):
    """Asymmetric width: one resolution parent bounded per step."""
    return _worst_falsifier(f, _closure(f, cap_vars, primes), _whd_unsat)[0]


def _whd_unsat(g):
    order = sorted_masks(g)
    for k in itertools.count():
        if k_res_packed(order, k)[0]:
            return k


def whd_at_most(g, k, primes):
    """Fast check whd(g) <= k for the satisfiable packed clause-set g,
    given its packed prime implicates."""
    return all(k_res_packed(sorted_masks(falsify(g, c)), k)[0]
               for c in primes)


def wid(f, cap_vars=24, primes=None):
    """Symmetric width: every clause of the refutation bounded."""
    return _worst_falsifier(f, _closure(f, cap_vars, primes), _wid_unsat)[0]


def _wid_unsat(g):
    order = sorted_masks(g)
    for w in itertools.count():
        if width_packed(order, w):
            return w


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
        return _min_refute_level(g, cache), {}
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


def res_lower_bound(whd_value, n):
    """exp(whd^2 / (8 n)): a floor on resolution refutation size."""
    if n == 0:
        return 1.0
    return math.exp(whd_value * whd_value / (8.0 * n))


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
    for name, measure in (("hd", lambda g: _min_refute_level(g, cache)),
                          ("whd", _whd_unsat), ("wid", _wid_unsat)):
        level, crit = _worst_falsifier(f, primes, measure)
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
