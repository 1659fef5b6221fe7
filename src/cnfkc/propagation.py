"""Generalised unit-clause propagation and a small complete SAT oracle."""

from dataclasses import dataclass

from .core import (BOT, apply_assignment, bit_literal, bits, clause_key,
                   flip, instantiate, literal_assignment, literal_bit,
                   pack_set, packed_variable_count, union, unpack_set)
from .errors import CapExceededError, ParseError

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

    `cache` maps (g, k) to the result of every call made with it.
    Candidates are scanned in ascending bit order, which is the canonical
    literal order, unless `select` reorders their literals, and the scan
    restarts after each assignment.  From level 2 on, no probe copies a
    clause-set.  One index maps each literal to the clauses of g holding
    its complement (`_occurrences`), and the assignment so far is one
    mask over g closed under unit propagation on it (`_extend`).  A
    candidate b is assigned when that closure with b false reaches an
    empty clause or, from level 3 on, when level k-1 refutes under it
    (`_refutes`).  Refutation by level k-1 is confluent: deciding it under
    the closure, in another scan order, answers as recursing on the copied
    instance does, so `reduced` and `assigned` are the recursion's
    (`tests/references.propagate_frozenset`)."""
    if k < 0:
        raise ParseError("propagation level must be at least 0, got %d" % k)
    if 0 in g:
        return REFUTED_PACKED, ()
    if k == 0:
        return g, ()
    key = (g, k)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if k >= 2:
        occ = _occurrences(g)
        closed = 0, 0
        for m in g:
            if not m & (m - 1):
                closed = _extend(occ, *closed, m)
                if closed is None:
                    break
    assigned = []
    while 0 not in g:
        candidates = bits(union(g))
        if select is not None:
            candidates = [literal_bit(x) for x in
                          select(tuple(map(bit_literal, candidates)))]
        for b in candidates:
            nb = _flip_bit(b)
            if k == 1:
                # b falsified leaves the empty clause iff {b} is a unit
                refuted = b in g
            elif closed is None:
                # unit propagation refutes g under the assignment so far
                refuted = True
            else:
                probe = _extend(occ, *closed, nb)
                refuted = probe is None or (
                    k > 2 and _refutes(g, occ, *probe, k - 1))
            if refuted:
                assigned.append(b)
                g = instantiate(g, b, nb)
                if k >= 2 and closed is not None:
                    closed = _extend(occ, *closed, b)
                break
        else:
            break
    hit = cache[key] = (REFUTED_PACKED if 0 in g else g, tuple(assigned))
    return hit


def _flip_bit(b):
    """`flip` of the single-bit mask b."""
    return b << 1 if b.bit_length() & 1 else b >> 1


def _occurrences(g):
    """Each literal bit mapped to the clauses of the packed g that hold
    its complement: those that making it true can leave unit or empty
    (`_flip_bit` inlined: it is hot)."""
    occ = {}
    for m in g:
        rest = m
        while rest:
            b = rest & -rest
            rest ^= b
            b = b << 1 if b.bit_length() & 1 else b >> 1
            hit = occ.get(b)
            if hit is None:
                occ[b] = [m]
            else:
                hit.append(m)
    return occ


def _extend(occ, true, false, b):
    """The assignment of true literals `true` and false literals `false`,
    closed under unit propagation over the clauses indexed by `occ`,
    extended by the literal bit b and closed again: (true, false), or
    None when an empty clause is reached."""
    if b & false:
        return None
    if b & true:
        return true, false
    true |= b
    false |= _flip_bit(b)
    queue = [b]
    for x in queue:
        for m in occ.get(x, ()):
            if m & true:
                continue
            r = m & ~false
            if not r:
                return None
            if not r & (r - 1):
                true |= r
                false |= _flip_bit(r)
                queue.append(r)
    return true, false


def _refutes(clauses, occ, true, false, k):
    """Whether level k >= 2 refutes the clause-set indexed by `occ` under
    an assignment that is closed under unit propagation and reaches no
    empty clause.  `clauses` are that clause-set or its instance under
    part of the assignment: only the literals they leave open are read,
    as the candidates.  Level k assigns b when b false leaves a
    level-(k-1) refutation: the closure with b false reaches an empty
    clause or, for k >= 3, `_refutes` at k-1 holds under it.  The
    candidates are scanned round-robin, and the scan ends after a whole
    round assigns nothing."""
    live = 0
    for m in clauses:
        if not m & true:
            live |= m
    candidates = list(bits(live & ~false))
    n = len(candidates)
    i = idle = 0
    while idle < n:
        b = candidates[i]
        i = i + 1 if i + 1 < n else 0
        idle += 1
        if b & (true | false):
            continue
        probe = _extend(occ, true, false, _flip_bit(b))
        if probe is None or (k > 2 and _refutes(clauses, occ, *probe, k - 1)):
            probe = _extend(occ, true, false, b)
            if probe is None:
                return True
            true, false = probe
            idle = 0
    return False


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
    reason = {}
    empty = _unit_scan(g, true, reason)[0]
    return None if empty is None else _refutation_cone(empty, reason)


def _unit_scan(live, true, reason=None):
    """Unit propagation over the packed clauses `live` under the mask
    `true` of true literals, scanning them in order and again until a
    scan makes no literal true: (empty, true, rest), with the clause
    found empty or None, the true literals reached, and, when none was
    found empty, the clauses left unsatisfied, in order.  `reason`, when
    given, maps each literal bit made true to the clause that was its
    unit.  The kernel of `unit_refutation` and `sat_packed`."""
    false = flip(true)
    while True:
        before = true
        rest = []
        for m in live:
            if m & true:
                continue
            r = m & ~false
            if not r:
                return m, true, rest
            if r & (r - 1):
                rest.append(m)
                continue
            if reason is not None:
                reason[r] = m
            true |= r
            false |= _flip_bit(r)
        if true == before:
            return None, true, rest
        live = rest


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

    Each node closes its assignment under unit propagation over the list
    of clauses its parent left unsatisfied (`_unit_scan`), then branches
    on the lowest literal that those clauses still leave open, true
    first.  No clause-set is copied.
    """
    n = packed_variable_count(g)
    if n > cap_vars:
        raise CapExceededError(
            "sat oracle capped at %d variables, got %d" % (cap_vars, n))
    # (clauses not yet satisfied, literals to make true)
    stack = [(g, 0)]
    while stack:
        live, true = stack.pop()
        empty, true, live = _unit_scan(live, true)
        if empty is not None:
            continue
        if not live:
            return true
        b = union(live) & ~flip(true)
        b &= -b
        stack.append((live, true | _flip_bit(b)))
        stack.append((live, true | b))
    return None
