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

from .core import sorted_clauses, clause_key
from .errors import CapExceededError, ParseError
from .hardness import whd_at_most
from .primes import essential_primes, implies, prime_implicates
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
    edges = []
    for c in vs:
        neg = {-x for x in c}
        members = frozenset(
            i for i, d in enumerate(vs)
            if not (d & neg) and len(d - c) <= k)
        edges.append(members)
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


class _NodeBudget:
    def __init__(self, cap):
        self.cap = cap
        self.used = 0
        self.hit = False

    def spend(self):
        self.used += 1
        if self.used > self.cap:
            self.hit = True
        return self.hit


def _dedupe_edges(g):
    uniq = sorted(set(g.edges), key=lambda e: (len(e), sorted(e)))
    return uniq


def _greedy_cover(edges):
    chosen = []
    uncovered = list(edges)
    while uncovered:
        counts = {}
        for e in uncovered:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        best = max(sorted(counts), key=lambda v: counts[v])
        chosen.append(best)
        uncovered = [e for e in uncovered if best not in e]
    return chosen


def _disjoint_edges(edges):
    """Greedy pairwise-disjoint edge collection (a quick matching bound)."""
    used = set()
    picked = []
    for e in edges:
        if not (e & used):
            picked.append(e)
            used |= e
    return picked


def transversal_number(g, cap_nodes=2 ** 20):
    """Exact minimum vertex set hitting every edge, by branch-and-bound.

    Vertices are tried by descending edge-membership frequency, ties by
    index, so witnesses are reproducible.  On hitting the node cap the
    best known bounds are returned flagged inexact.
    """
    edges = _dedupe_edges(g)
    if not edges:
        return SearchResult(0, (), True, 0, 0)
    if any(not e for e in edges):
        raise ParseError("hypergraph has an empty edge; no transversal")
    freq = {}
    for e in edges:
        for v in e:
            freq[v] = freq.get(v, 0) + 1
    best = _greedy_cover(edges)
    budget = _NodeBudget(cap_nodes)
    state = {"best": list(best)}

    def walk(chosen, uncovered):
        if budget.spend():
            return
        if not uncovered:
            if len(chosen) < len(state["best"]):
                state["best"] = list(chosen)
            return
        floor = len(chosen) + len(_disjoint_edges(uncovered))
        if floor >= len(state["best"]):
            return
        e = min(uncovered, key=lambda x: (len(x), sorted(x)))
        for v in sorted(e, key=lambda v: (-freq[v], v)):
            walk(chosen + [v], [x for x in uncovered if v not in x])

    walk([], edges)
    found = tuple(sorted(state["best"]))
    if budget.hit:
        lower = len(_disjoint_edges(edges))
        return SearchResult(len(found), found, False, lower, len(found))
    return SearchResult(len(found), found, True, len(found), len(found))


def matching_number(g, cap_nodes=2 ** 20):
    """Exact maximum number of pairwise disjoint edges."""
    edges = _dedupe_edges(g)
    budget = _NodeBudget(cap_nodes)
    state = {"best": []}
    greedy = _disjoint_edges(edges)
    if greedy:
        state["best"] = [edges.index(e) for e in greedy]

    def walk(i, used, chosen):
        if budget.spend():
            return
        if len(chosen) > len(state["best"]):
            state["best"] = list(chosen)
        if i == len(edges) or len(chosen) + (len(edges) - i) <= len(
                state["best"]):
            return
        e = edges[i]
        if not (e & used):
            walk(i + 1, used | e, chosen + [i])
        walk(i + 1, used, chosen)

    walk(0, frozenset(), [])
    picked = tuple(edges[i] for i in state["best"])
    value = len(picked)
    if budget.hit:
        return SearchResult(value, picked, False, value, len(edges))
    return SearchResult(value, picked, True, value, value)


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
                        cap_nodes=2 ** 20, primes=None):
    """Smallest equivalent subset of the primes with asymmetric width <= k.

    Exhaustive mode scans subsets by ascending size, forced to contain
    the essential primes and to hit every trigger edge.  Heuristic mode
    greedily adds primes by ascending size, then removes by descending
    size, and reports the result as an upper bound only.
    """
    if primes is None:
        primes = prime_implicates(f)
    vs = sorted_clauses(primes)
    ess = essential_primes(f, primes=primes)
    g = trigger_hypergraph(f, k, primes=primes)
    tau = transversal_number(g, cap_nodes=cap_nodes)
    floor = max(tau.lower_bound, len(ess))
    if mode == "heuristic":
        rep = _heuristic_base(vs, ess, k, primes)
        return MinEquivResult(size=len(rep), representative=rep,
                              exact=False, lower_bound=floor)
    if floor >= len(vs) and tau.exact:
        # the transversal bound already forces the whole prime set
        full = frozenset(vs)
        if not whd_at_most(full, k, primes):
            raise AssertionError("prime set itself exceeds width %d" % k)
        return MinEquivResult(size=len(vs), representative=full,
                              exact=True, lower_bound=len(vs))
    if len(vs) > cap_primes:
        raise CapExceededError(
            "exhaustive search capped at %d primes, got %d"
            % (cap_primes, len(vs)))
    others = [c for c in vs if c not in ess]
    edge_list = _dedupe_edges(g)
    index_of = {c: i for i, c in enumerate(vs)}
    ess_idx = {index_of[c] for c in ess}
    for size in range(floor, len(vs) + 1):
        for combo in itertools.combinations(others, size - len(ess)):
            sub = ess | frozenset(combo)
            idxs = ess_idx | {index_of[c] for c in combo}
            if any(not (e & idxs) for e in edge_list):
                continue
            if not all(implies(sub, c) for c in primes - sub):
                continue
            if whd_at_most(sub, k, primes):
                return MinEquivResult(size=size, representative=sub,
                                      exact=True, lower_bound=size)
    raise AssertionError("full prime set rejected; search is broken")


def _heuristic_base(vs, ess, k, primes):
    current = set(ess)

    def good(s):
        fs = frozenset(s)
        return (all(implies(fs, c) for c in primes - fs)
                and whd_at_most(fs, k, primes))

    for c in vs:
        if good(current):
            break
        if c not in current:
            current.add(c)
    for c in sorted(current, key=lambda c: (-len(c), clause_key(c))):
        trial = current - {c}
        if c not in ess and good(trial):
            current = trial
    return frozenset(current)


def extremal_sperner_bound(t, k):
    """C(m, m//2) with m = 1 + height - k; the guaranteed matching floor."""
    h = tree_stats(t).height
    m = 1 + h - k
    return comb(m, m // 2)
