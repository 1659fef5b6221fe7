"""Trigger hypergraphs and the lower-bound machinery built on them.

The hypergraph at level k has the prime implicates as vertices and, for
each prime C, the edge of all primes compatible with the falsifier of C
that shrink to size <= k under it.  Every equivalent clause-set within
asymmetric width k must hit every edge, so the transversal number bounds
its size from below; disjoint-edge witnesses bound the transversal number
in turn.
"""

import heapq
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .compile import equivalent_subset, smallest_base
from .core import (clause_key, flip, pack, pack_set, sorted_clauses,
                   unpack_set)
from .errors import ParseError
from .hardness import whd_at_most
from .primes import prime_implicates
from .trees import depth_subtrees, is_leaf, leaf_paths, tree_stats


@dataclass(frozen=True)
class TriggerHypergraph:
    vertices: tuple  # prime implicates in canonical order
    edges: tuple     # per vertex i, frozenset of vertex indices
    k: int

    # `_edge_index` of the hypergraph: built on first use, then shared
    # read-only; not a field, so eq, hash and repr ignore it
    index = cached_property(lambda g: _edge_index(g))


def trigger_hypergraph(f, k, primes=None):
    """Level-k trigger hypergraph of f (vertices: all prime implicates)."""
    if primes is None:
        primes = prime_implicates(f)
    vs = sorted_clauses(primes)
    masks = [pack(c) for c in vs]
    numbered = list(enumerate(masks))
    edges = []
    for c in masks:
        neg, out = flip(c), ~c
        edges.append(frozenset([i for i, d in numbered
                                if (d & out).bit_count() <= k
                                and not d & neg]))
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


def _edge_index(g):
    """(edges, inc, clash): the distinct edges, by size and then sorted
    vertices; per vertex v, `inc[v]` is the bitmask of the indices of the
    edges containing v; per edge j, `clash[j]` is the bitmask of the edges
    sharing a vertex with edge j, and always has bit j."""
    edges = sorted(set(g.edges), key=lambda e: (len(e), sorted(e)))
    inc = {}
    for j, e in enumerate(edges):
        bit = 1 << j
        for v in e:
            inc[v] = inc.get(v, 0) | bit
    clash = []
    for j, e in enumerate(edges):
        m = 1 << j
        for v in e:
            m |= inc[v]
        clash.append(m)
    return edges, inc, clash


def _greedy_cover(edges, inc):
    """Repeatedly take the vertex in most uncovered edges, least on ties:
    counts only fall, so a popped heap entry (-count, vertex) that is
    still current wins, and a stale one goes back with its count now."""
    heap = [(-m.bit_count(), v) for v, m in inc.items()]
    heapq.heapify(heap)
    chosen = []
    uncovered = (1 << len(edges)) - 1
    while uncovered:
        count, v = heapq.heappop(heap)
        hit = uncovered & inc[v]
        now = hit.bit_count()
        if now != -count:
            heapq.heappush(heap, (-now, v))
            continue
        chosen.append(v)
        uncovered ^= hit
    return chosen


def _disjoint_edges(clash, rest, stop=None):
    """Indices of greedy pairwise-disjoint edges among the index set
    `rest`, lowest index first (a quick matching bound); it stops once
    `stop` are picked."""
    picked = []
    while rest and len(picked) != stop:
        j = (rest & -rest).bit_length() - 1
        picked.append(j)
        rest &= ~clash[j]
    return picked


def transversal_number(g, cap_nodes=2 ** 20):
    """Exact minimum vertex set hitting every edge, by branch-and-bound.

    Depth-first with an explicit stack; a node's uncovered edges are one
    bitmask over edge indices, so adding vertex v is one AND with the
    complement of its incidence mask.  It branches on the smallest
    uncovered edge, trying its vertices by descending edge-membership
    frequency, ties by index, so witnesses are reproducible.  A node is
    cut when its size plus a greedy count of disjoint uncovered edges
    reaches the best cover; the count stops there.  On hitting the node
    cap the best known bounds are returned flagged inexact.
    """
    edges, inc, clash = g.index
    if not edges:
        return SearchResult(0, (), True, 0, 0)
    if not edges[0]:  # the empty edge sorts first
        raise ParseError("hypergraph has an empty edge; no transversal")
    every = (1 << len(edges)) - 1
    without = {v: ~m for v, m in inc.items()}
    # per edge branched on, its vertices in reverse branching order
    pushes = {}
    best = _greedy_cover(edges, inc)
    path = [0] * len(inc)  # path[:size] is the partial transversal
    # (size, parent's uncovered edges, vertex just added or -1)
    stack = [(0, every, -1)]
    push, pop = stack.append, stack.pop
    for _ in range(cap_nodes):
        if not stack:
            break
        size, uncovered, v = pop()
        if v >= 0:
            path[size - 1] = v
            uncovered &= without[v]
        if not uncovered:
            if size < len(best):
                best = path[:size]
            continue
        room = len(best) - size
        if len(_disjoint_edges(clash, uncovered, room)) >= room:
            continue
        j = (uncovered & -uncovered).bit_length() - 1
        if j not in pushes:
            pushes[j] = sorted(edges[j],
                               key=lambda v: (inc[v].bit_count(), -v))
        for v in pushes[j]:
            push((size + 1, uncovered, v))
    found = tuple(sorted(best))
    if stack:  # capped with nodes left
        lower = len(_disjoint_edges(clash, every))
        return SearchResult(len(found), found, False, lower, len(found))
    return SearchResult(len(found), found, True, len(found), len(found))


def matching_number(g, cap_nodes=2 ** 20):
    """Exact maximum number of pairwise disjoint edges.

    Depth-first with an explicit stack over edge indices: at edge i,
    first take it if it is disjoint from those taken, then skip it.  The
    state keeps `free`, the edges from i on that are disjoint from the
    taken ones, so a run of nodes that only step past clashing edges is
    crossed in one step to the next free edge, or to the first index
    where the bound cuts; each node crossed is charged to the cap.
    """
    edges, _, clash = g.index
    n = len(edges)
    apart = [~c for c in clash]  # apart[j]: the edges disjoint from edge j
    best = _disjoint_edges(clash, (1 << n) - 1)
    path = [0] * n  # path[:size] holds the indices taken
    top = len(best)
    stack = []  # skip branches still to visit: (i, free, size)
    push, pop = stack.append, stack.pop
    i = size = 0
    free = (1 << n) - 1
    left = cap_nodes  # nodes the cap still allows
    exact = False
    while left:
        left -= 1  # the node at i
        if size > top:
            best = path[:size]
            top = size
        # the bound cuts every node at or after `cut`; cut <= n
        cut = size + n - top
        low = free & -free
        j = low.bit_length() - 1 if free else n  # the next free edge
        if j < cut:
            # nodes i..j-1 skip clashing edges, node j takes its edge
            left -= j - i
            if left < 0:
                break
            push((j + 1, free ^ low, size))
            path[size] = j
            free &= apart[j]
            size += 1
            i = j + 1
            continue
        if cut > i:
            left -= cut - i  # nodes i..cut-1 skip, node cut is cut
            if left < 0:
                break
        if not stack:
            exact = True
            break
        i, free, size = pop()
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


def min_equivalent_size(hypergraph, essential, tau, cap_primes=18):
    """Smallest equivalent subset of the primes with asymmetric width <= k,
    for the level-k trigger `hypergraph` of the primes, their `essential`
    primes and `tau`, the hypergraph's `transversal_number`.

    The search is `compile.smallest_base` from the floor
    max(tau.lower_bound, |essential primes|), over the subsets holding
    the essential primes and hitting every trigger edge.  When the cap
    stops it, the floor is returned flagged inexact, with no
    representative.  When tau forces every prime, the full set is the
    single candidate and is tried whatever the cap.
    """
    vs = [pack(c) for c in hypergraph.vertices]
    g = frozenset(vs)
    k = hypergraph.k
    ess = pack_set(essential)
    floor = max(tau.lower_bound, len(ess))
    edges = [frozenset(vs[i] for i in e) for e in hypergraph.index[0]]
    rep = smallest_base(vs, ess,
                        lambda sub: (all(e & sub for e in edges)
                                     and equivalent_subset(sub, g)
                                     and whd_at_most(sub, k, g)),
                        floor, cap_primes)
    if rep is None:
        return MinEquivResult(size=floor, representative=frozenset(),
                              exact=False, lower_bound=floor)
    return MinEquivResult(size=len(rep), representative=unpack_set(rep),
                          exact=True, lower_bound=len(rep))


def extremal_sperner_bound(t, k):
    """C(m, m//2) with m = 1 + height - k; the guaranteed matching floor."""
    h = tree_stats(t).height
    m = 1 + h - k
    return comb(m, m // 2)
