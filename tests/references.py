"""Frozenset references for the packed-clause engines.

Each function here is the engine written literal by literal on frozenset
clauses, with the same scan order, caps and results, so that the tests
can compare the packed kernel against it for exact equality.  The two
saturations are the exception: they keep the old clause order and no
subsumption, and agree with the engine on the answer only.  Last,
`phd_exhaustive` is p-hardness by its definition, the scan over every
partial assignment that `hardness.phd` replaced, and
`smallest_equivalent_subset` is the exact prime-subset search of
`compile.smallest_base` with neither its floor nor its cap, checked by
truth tables and, for asymmetric width, by `whd_by_definition`.
`models_by_walk` is the model walk that `compile.enumerate_models`
replaced, copying the partial assignment as a dict at every node.
`equivalent` is logical equivalence by mutual entailment.  Each library
entry point runs one base search, so the other pairings live here:
`smallest_hd_base` (the exact search under hardness k),
`greedy_whd_base` (the greedy search under asymmetric width k) and
`min_equivalent_of` (`trigger.min_equivalent_size` from f alone).
"""

import itertools

from cnfkc.compile import equivalent_subset, greedy_base, smallest_base
from cnfkc.core import (BOT, apply_assignment, assignment_satisfies,
                        clause_falsifier, clause_key, flip, instantiate,
                        literal_assignment, literal_bit, literals_of,
                        pack_set, packed_variable_count, resolve,
                        sorted_clauses, sorted_masks, unpack_set, variables)
from cnfkc.errors import CapExceededError, IntegrityError
from cnfkc.hardness import hd_at_most, k_res_packed, whd_at_most
from cnfkc.mpsdope import MuFlags, pure_clause
from cnfkc.primes import essential_primes, implies, prime_implicates
from cnfkc.propagation import (REFUTED, PropagationResult, propagate_packed,
                               sat_oracle, unit_propagate)
from cnfkc.trigger import (min_equivalent_size, transversal_number,
                           trigger_hypergraph)

import oracles


def propagate_frozenset(f, k, cache=None, select=None):
    """`propagation.propagate` written on frozenset clauses: the same
    candidate scan, recursion and cache (keyed by clause-set and level)."""
    if cache is None:
        cache = {}
    return _propagate_frozenset(f, k, cache, select)


def _propagate_frozenset(f, k, cache, select):
    if BOT in f:
        return PropagationResult(REFUTED, {}, True)
    if k == 0:
        return PropagationResult(f, {}, False)
    hit = cache.get((f, k))
    if hit is not None:
        return hit
    assigned = {}
    g = f
    progress = True
    while progress and BOT not in g:
        progress = False
        candidates = clause_key(literals_of(g))
        if select is not None:
            candidates = select(candidates)
        for x in candidates:
            zero = apply_assignment(literal_assignment(x, 0), g)
            if _propagate_frozenset(zero, k - 1, cache, select).refuted:
                phi = literal_assignment(x, 1)
                assigned.update(phi)
                g = apply_assignment(phi, g)
                progress = True
                break
    if BOT in g:
        hit = PropagationResult(REFUTED, assigned, True)
    else:
        hit = PropagationResult(g, assigned, False)
    cache[(f, k)] = hit
    return hit


def sat_oracle_frozenset(f):
    """DPLL on frozenset clauses, without a cap: unit propagation by
    `propagation.unit_propagate`, then a branch on the least literal in
    (variable, sign) order, true first.  Returns (satisfiable, model)."""
    model = _dpll_frozenset(f, {})
    return model is not None, model


def _dpll_frozenset(f, phi):
    while True:
        if BOT in f:
            return None
        if not f:
            return phi
        res = unit_propagate(f)
        if not res.assigned:
            break
        phi = dict(phi)
        phi.update(res.assigned)
        f = res.reduced
    x = min(literals_of(f), key=lambda y: (abs(y), y < 0))
    for value in (1, 0):
        step = literal_assignment(x, value)
        extended = dict(phi)
        extended.update(step)
        found = _dpll_frozenset(apply_assignment(step, f), extended)
        if found is not None:
            return found
    return None


def implies_frozenset(f, c):
    return not sat_oracle_frozenset(apply_assignment(clause_falsifier(c),
                                                     f))[0]


def k_res_refutes_frozenset(f, k, cap_clauses=200000):
    """`hardness.k_res_refutes` without its trace, by the old saturation:
    every clause, in the order generated, resolved against every earlier
    one, and every new resolvent kept (no subsumption).  The engine takes
    shortest clauses first and drops subsumed resolvents, so the answers
    agree but the derivations do not; the tests check the engine's trace
    on its own.  The cap counts every clause generated."""
    order = sorted_clauses(f)
    seen = set(order)
    if BOT in seen:
        return True, None
    i = 0
    while i < len(order):
        c = order[i]
        for j in range(i):
            d = order[j]
            if len(c) > k and len(d) > k:
                continue
            if not oracles.resolvable(c, d):
                continue
            r = resolve(c, d)
            if r in seen:
                continue
            seen.add(r)
            order.append(r)
            if r == BOT:
                return True, None
        i += 1
        if len(order) > cap_clauses:
            raise CapExceededError(
                "bounded resolution exceeded %d clauses" % cap_clauses)
    return False, None


def width_refutes_frozenset(f, w, cap_clauses=200000):
    """`hardness.width_refutes` by the old saturation, as
    `k_res_refutes_frozenset`."""
    order = [c for c in sorted_clauses(f) if len(c) <= w]
    seen = set(order)
    if BOT in seen:
        return True
    i = 0
    while i < len(order):
        c = order[i]
        for j in range(i):
            d = order[j]
            if not oracles.resolvable(c, d):
                continue
            r = resolve(c, d)
            if len(r) > w or r in seen:
                continue
            seen.add(r)
            order.append(r)
            if r == BOT:
                return True
        i += 1
        if len(order) > cap_clauses:
            raise CapExceededError(
                "width-bounded resolution exceeded %d clauses" % cap_clauses)
    return False


def trigger_edges_frozenset(primes, k):
    """The edges of `trigger.trigger_hypergraph` by the frozenset pair
    scan: per prime C in canonical order, the indices of the primes D
    with no literal complementary to C and |D - C| <= k."""
    vs = sorted_clauses(primes)
    edges = []
    for c in vs:
        neg = {-x for x in c}
        edges.append(frozenset(i for i, d in enumerate(vs)
                               if not (d & neg) and len(d - c) <= k))
    return tuple(edges)


def classify_mu_frozenset(f, cap_vars=24):
    """`mpsdope.classify_mu` on frozenset clauses, one DPLL call per
    removed or widened clause."""
    ok, _ = sat_oracle(f, cap_vars=cap_vars)
    if ok:
        return MuFlags(False, False, False)
    mu = all(sat_oracle(f - {c}, cap_vars=cap_vars)[0] for c in f)
    smu = mu
    if mu:
        vs = variables(f)
        for c in f:
            rest = f - {c}
            for v in sorted(vs - {abs(x) for x in c}):
                for x in (v, -v):
                    widened = rest | {c | {x}}
                    if not sat_oracle(widened, cap_vars=cap_vars)[0]:
                        smu = False
                        break
                if not smu:
                    break
            if not smu:
                break
    delta = len(f) - len(variables(f))
    return MuFlags(mu=mu, smu=smu, smu_delta1=smu and delta == 1)


def _clause_images(phi, f):
    """Per-clause instantiation by phi, keeping one image per clause.

    Assumes phi satisfies no literal of f (true for falsifiers of the
    pure clause).
    """
    images = []
    for c in sorted_clauses(f):
        kept = frozenset(
            x for x in c if assignment_satisfies(phi, x) is None)
        images.append(kept)
    return images


def is_mps_frozenset(f, cap_vars=24):
    """`mpsdope.is_mps_packed` by per-clause frozenset images."""
    pure = pure_clause(f)
    if not f:
        return False, pure
    phi = clause_falsifier(pure)
    images = _clause_images(phi, f)
    if len(set(images)) != len(images):
        return False, pure
    flags = classify_mu_frozenset(frozenset(images), cap_vars=cap_vars)
    return flags.mu, pure


def phd_exhaustive(f, cap_vars=12):
    """p-hardness by its definition, with the first assignment needing it:
    for each of the 3^n partial assignments phi (each variable unset, 0,
    then 1, the last variable fastest), the least k with level-k
    propagation of phi * f equal to the saturation level's."""
    vs = sorted(variables(f))
    if len(vs) > cap_vars:
        raise CapExceededError(
            "p-hardness enumeration capped at %d variables" % cap_vars)
    packed = pack_set(f)
    # per variable: (value, true literal, false literal) of unset, 0, 1
    choices = [((None, 0, 0), (0, literal_bit(-v), literal_bit(v)),
                (1, literal_bit(v), literal_bit(-v))) for v in vs]
    cache = {}
    seen = set()
    best = 0
    witness = {}
    for values in itertools.product(*choices):
        true = false = 0
        for _, t, u in values:
            true |= t
            false |= u
        g = instantiate(packed, true, false)
        if g in seen:
            continue
        seen.add(g)
        target = propagate_packed(g, packed_variable_count(g), cache)[0]
        k = 0
        while propagate_packed(g, k, cache)[0] != target:
            k += 1
        if k > best:
            best = k
            witness = {v: b for v, (b, _, _) in zip(vs, values)
                       if b is not None}
    return best, witness


def whd_by_definition(f):
    """Asymmetric width from its definition: over every partial
    assignment phi leaving phi * f unsatisfiable (by truth table), the
    worst least k at which `k_res_refutes_frozenset` refutes phi * f."""
    worst = 0
    for phi in oracles.partial_assignments(variables(f)):
        g = apply_assignment(phi, f)
        if oracles.satisfiable_tt(g):
            continue
        k = 0
        while not k_res_refutes_frozenset(g, k)[0]:
            k += 1
        worst = max(worst, k)
    return worst


def smallest_equivalent_subset(primes, level):
    """The first subset of the prime implicates `primes` that is
    equivalent to them, by truth tables, and satisfies `level`, scanning
    sizes upward and each size in combination order over
    `sorted_clauses(primes)`."""
    order = sorted_clauses(primes)
    for size in range(len(order) + 1):
        for combo in itertools.combinations(order, size):
            sub = frozenset(combo)
            if (all(oracles.implies_tt(sub, c) for c in primes - sub)
                    and level(sub)):
                return sub
    raise AssertionError("no prime subset passes, not even all of them")


def equivalent(f, g, cap_vars=24):
    """Logical equivalence via mutual clause entailment."""
    return (all(implies(f, c, cap_vars) for c in g)
            and all(implies(g, c, cap_vars) for c in f))


def smallest_hd_base(primes, k, cap_primes):
    """The smallest equivalent subset of the prime implicates `primes`
    within hardness k: `compile.smallest_base` from the essential primes
    under `hd_at_most`; None when the cap stops it."""
    g = pack_set(primes)
    ess = pack_set(essential_primes(primes, primes=primes))
    base = smallest_base(
        sorted_masks(g), ess,
        lambda sub: equivalent_subset(sub, g) and hd_at_most(sub, k, g),
        len(ess), cap_primes)
    return None if base is None else unpack_set(base)


def greedy_whd_base(f, k):
    """`compile.greedy_base` over the primes of f under `whd_at_most`: an
    equivalent prime subset within asymmetric width k from which one
    sweep removed every prime it could."""
    primes = prime_implicates(f)
    g = pack_set(primes)
    ess = pack_set(essential_primes(f, primes=primes))
    base = greedy_base(sorted_masks(g), ess,
                       lambda sub: whd_at_most(sub, k, g))[0]
    return unpack_set(base)


def min_equivalent_of(f, k, cap_primes=18):
    """`trigger.min_equivalent_size` on the level-k trigger hypergraph of
    f, with the essential primes and τ that `cli.separation_row` gives
    it."""
    primes = prime_implicates(f)
    g = trigger_hypergraph(f, k, primes=primes)
    return min_equivalent_size(g, essential_primes(f, primes=primes),
                               transversal_number(g), cap_primes)


def models_by_walk(f, k, cap_models=2 ** 20):
    """`compile.enumerate_models` as a walk that carries the partial
    assignment as a dict, copied at every node, and appends each model."""
    out = []
    _models_below(sorted(variables(f)), 0, {}, pack_set(f), k, cap_models,
                  out)
    return out


def _models_below(vs, i, phi, g, k, cap_models, out):
    """Append to `out` the models extending phi, which sets vs[:i] and
    leaves the packed clause-set g; False if level-k resolution refutes g."""
    if not g:
        rest = vs[i:]
        for bits in itertools.product((0, 1), repeat=len(rest)):
            model = dict(phi)
            model.update(zip(rest, bits))
            out.append(model)
            if len(out) > cap_models:
                raise CapExceededError(
                    "model enumeration exceeded %d" % cap_models)
        return True
    if k_res_packed(g, k)[0]:
        return False
    if i == len(vs):
        raise IntegrityError(
            "total assignment left a clause-set that is neither "
            "satisfied nor refutable", witness=dict(phi))
    zero = dict(phi)
    zero[vs[i]] = 0
    one = dict(phi)
    one[vs[i]] = 1
    b = literal_bit(vs[i])
    nb = flip(b)
    left = _models_below(vs, i + 1, zero, instantiate(g, nb, b),
                         k, cap_models, out)
    right = _models_below(vs, i + 1, one, instantiate(g, b, nb),
                          k, cap_models, out)
    if not (left or right):
        raise IntegrityError(
            "level-%d resolution missed an unsatisfiable branch" % k,
            witness=dict(phi))
    return True
