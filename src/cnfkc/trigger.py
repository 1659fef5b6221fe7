"""Trigger hypergraphs and the lower-bound machinery built on them.

The hypergraph at level k has the prime implicates as vertices and, for
each prime C, the edge of all primes compatible with the falsifier of C
that shrink to size <= k under it.  Every equivalent clause-set within
asymmetric width k must hit every edge, so the transversal number bounds
its size from below; disjoint-edge witnesses bound the transversal number
in turn.
"""

import itertools
import json
from dataclasses import dataclass
from math import comb

from .compile import equivalent_subset, greedy_base, smallest_base
from .core import clause_key, flip, pack, sorted_clauses
from .errors import CapExceededError, IntegrityError, ParseError
from .hardness import whd_at_most
from .primes import essential_primes, prime_implicates
from .trees import depth_subtrees, is_leaf, leaf_paths, tree_stats


@dataclass(frozen=True)
class TriggerHypergraph:
    vertices: tuple  # prime implicates in canonical order
    edges: tuple     # per vertex i, frozenset of vertex indices
    k: int


def trigger_hypergraph(f, k, primes=None, cap_clauses=100000):
    """Level-k trigger hypergraph of f (vertices: all prime implicates)."""
    if primes is None:
        primes = prime_implicates(f, cap_clauses=cap_clauses)
    vs = sorted_clauses(primes)
    masks = [pack(c) for c in vs]
    edges = []
    for c in masks:
        neg = flip(c)
        edges.append(frozenset(
            i for i, d in enumerate(masks)
            if not d & neg and (d & ~c).bit_count() <= k))
    return TriggerHypergraph(vertices=tuple(vs), edges=tuple(edges), k=k)


def hypergraph_to_json(g):
    return json.dumps({
        "k": g.k,
        "vertices": [list(clause_key(c)) for c in g.vertices],
        "edges": [sorted(e) for e in g.edges],
    }, sort_keys=True)


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: tuple
    exact: bool
    lower_bound: int
    upper_bound: int


def _dedupe_edges(g):
    return sorted(set(g.edges), key=lambda e: (len(e), sorted(e)))


def _vertices(mask):
    return [v for v, b in enumerate(reversed(bin(mask))) if b == "1"]


def _greedy_cover(masks, freq):
    """Repeatedly take the vertex in most uncovered edges, least on ties;
    `freq` counts each vertex's edges among `masks`."""
    counts = dict(freq)
    chosen = []
    uncovered = masks
    while uncovered:
        best = min(counts, key=lambda v: (-counts[v], v))
        chosen.append(best)
        rest = []
        for e in uncovered:
            if e >> best & 1:
                for v in _vertices(e):
                    counts[v] -= 1
            else:
                rest.append(e)
        uncovered = rest
    return chosen


def _disjoint_edges(masks):
    """Positions of greedy pairwise-disjoint edges (a quick matching bound)."""
    used = 0
    picked = []
    for i, e in enumerate(masks):
        if not e & used:
            picked.append(i)
            used |= e
    return picked


def transversal_number(g, cap_nodes=2 ** 20):
    """Exact minimum vertex set hitting every edge, by branch-and-bound.

    Depth-first with an explicit stack over bitmask edges.  It branches
    on the smallest uncovered edge, trying its vertices by descending
    edge-membership frequency, ties by index, so witnesses are
    reproducible.  On hitting the node cap the best known bounds are
    returned flagged inexact.
    """
    edges = _dedupe_edges(g)
    if not edges:
        return SearchResult(0, (), True, 0, 0)
    if any(not e for e in edges):
        raise ParseError("hypergraph has an empty edge; no transversal")
    masks = [sum(1 << v for v in e) for e in edges]
    freq = {}
    for e in edges:
        for v in e:
            freq[v] = freq.get(v, 0) + 1
    order = {m: sorted(e, key=lambda v: (-freq[v], v))
             for m, e in zip(masks, edges)}
    best = _greedy_cover(masks, freq)
    path = [0] * len(freq)  # path[:size] is the partial transversal
    # (size, parent's uncovered edges, vertex just added or -1)
    stack = [(0, masks, -1)]
    for _ in range(cap_nodes):
        if not stack:
            break
        size, uncovered, v = stack.pop()
        if v >= 0:
            path[size - 1] = v
            bit = 1 << v
            uncovered = [e for e in uncovered if not e & bit]
        if not uncovered:
            if size < len(best):
                best = path[:size]
            continue
        if size + len(_disjoint_edges(uncovered)) >= len(best):
            continue
        # uncovered keeps the (size, members) order: [0] is the smallest
        for v in reversed(order[uncovered[0]]):
            stack.append((size + 1, uncovered, v))
    found = tuple(sorted(best))
    if stack:  # capped with nodes left
        lower = len(_disjoint_edges(masks))
        return SearchResult(len(found), found, False, lower, len(found))
    return SearchResult(len(found), found, True, len(found), len(found))


def matching_number(g, cap_nodes=2 ** 20):
    """Exact maximum number of pairwise disjoint edges.

    Depth-first with an explicit stack over bitmask edges: at edge i,
    first take it if it is disjoint from those taken, then skip it.
    """
    edges = _dedupe_edges(g)
    masks = [sum(1 << v for v in e) for e in edges]
    n = len(masks)
    best = _disjoint_edges(masks)
    path = [0] * n  # path[:size] holds the positions taken
    top = len(best)
    stack = []  # skip branches still to visit: (i, used, size)
    push, pop = stack.append, stack.pop
    i = used = size = 0
    exact = True
    for _ in range(cap_nodes):
        if size > top:
            best = path[:size]
            top = size
        # at i == n this fails too, as size <= top by now
        if size + n - i > top:
            e = masks[i]
            i += 1
            if not e & used:
                # visit the take branch next, the skip branch after it
                push((i, used, size))
                path[size] = i - 1
                used |= e
                size += 1
            continue
        if not stack:
            break
        i, used, size = pop()
    else:
        exact = False
    picked = tuple(edges[j] for j in best)
    if exact:
        return SearchResult(top, picked, True, top, top)
    return SearchResult(top, picked, False, top, n)


def sperner_witness(t, k):
    """Pairwise depth-k-incomparable leaf sets, C(m, m//2) of them.

    Take the depth-k subtree with fewest leaves (leftmost on ties), list
    its m leaves, and for every (m//2)-subset pair it with the same-rank
    (m//2)-subset, in lexicographic order, of every other depth-k
    subtree's leaves.
    """
    subs = depth_subtrees(t, k)
    if any(is_leaf(sub) for _, sub in subs):
        raise ParseError("a depth-%d subtree is a single leaf" % k)
    prefixed = [[prefix + a for a in sorted(leaf_paths(sub))]
                for prefix, sub in subs]
    smallest = min(range(len(prefixed)), key=lambda i: (len(prefixed[i]), i))
    m = len(prefixed[smallest])
    r = m // 2
    count = comb(m, r)
    picks = []
    for i, leaves in enumerate(prefixed):
        if len(leaves) < m:
            raise ParseError("smallest depth-%d subtree not smallest" % k)
        picks.append(list(itertools.islice(
            itertools.combinations(leaves, r), count)))
    out = []
    for rank in range(count):
        v = set()
        for chosen in picks:
            v.update(chosen[rank])
        out.append(frozenset(v))
    return out


@dataclass(frozen=True)
class MinEquivResult:
    size: int
    representative: frozenset
    exact: bool
    lower_bound: int


def min_equivalent_size(f, k, mode="exhaustive", cap_primes=18,
                        cap_nodes=2 ** 20, primes=None, essential=None,
                        hypergraph=None, tau=None):
    """Smallest equivalent subset of the primes with asymmetric width <= k.

    Exhaustive mode scans subsets by ascending size, forced to contain
    the essential primes and to hit every trigger edge.  Heuristic mode
    greedily adds primes by ascending size, then removes by descending
    size to a fixpoint (`compile.greedy_base`, as `k_base` does), and
    reports the result as an upper bound only.

    `primes`, `essential`, `hypergraph` (level k) and `tau` (its
    `transversal_number` under `cap_nodes`), when given, must be what
    this function would compute from f; they save recomputing it.
    """
    if primes is None:
        primes = prime_implicates(f)
    vs = sorted_clauses(primes)
    if essential is None:
        essential = essential_primes(f, primes=primes)
    if hypergraph is None:
        hypergraph = trigger_hypergraph(f, k, primes=primes)
    if tau is None:
        tau = transversal_number(hypergraph, cap_nodes=cap_nodes)
    floor = max(tau.lower_bound, len(essential))

    def level(sub):
        return whd_at_most(sub, k, primes)

    def good(sub):
        return equivalent_subset(sub, primes) and level(sub)

    if mode == "heuristic":
        rep = greedy_base(vs, essential, level)[0]
        return MinEquivResult(size=len(rep), representative=rep,
                              exact=False, lower_bound=floor)
    if floor >= len(vs) and tau.exact:
        # the transversal bound already forces the whole prime set
        full = frozenset(vs)
        if not whd_at_most(full, k, primes):
            raise IntegrityError("prime set itself exceeds width %d" % k)
        return MinEquivResult(size=len(vs), representative=full,
                              exact=True, lower_bound=len(vs))
    if len(vs) > cap_primes:
        raise CapExceededError(
            "exhaustive search capped at %d primes, got %d"
            % (cap_primes, len(vs)))
    edges = [frozenset(vs[i] for i in e) for e in _dedupe_edges(hypergraph)]
    rep = smallest_base(vs, essential,
                        lambda sub: all(e & sub for e in edges) and good(sub),
                        floor)
    return MinEquivResult(size=len(rep), representative=rep, exact=True,
                          lower_bound=len(rep))


def extremal_sperner_bound(t, k):
    """C(m, m//2) with m = 1 + height - k; the guaranteed matching floor."""
    h = tree_stats(t).height
    m = 1 + h - k
    return comb(m, m // 2)
