"""Labeled full binary trees and their clause-set translation.

A tree is either a Leaf or an Inner node carrying a variable; the left
edge stands for the positive literal of the node variable, the right edge
for its complement.  Translating the root-to-leaf paths gives exactly the
saturated minimally unsatisfiable clause-sets of deficiency 1, and the
Horton-Strahler number of the tree is the propagation hardness.
"""

from dataclasses import dataclass

from .core import BOT, apply_assignment
from .errors import IntegrityError, ParseError


@dataclass(frozen=True)
class Leaf:
    pass


@dataclass(frozen=True)
class Inner:
    var: int
    left: object
    right: object


LEAF = Leaf()


def is_leaf(t):
    return isinstance(t, Leaf)


@dataclass(frozen=True)
class TreeStats:
    hs: int
    height: int
    leaves: int
    nodes: int


def tree_stats(t):
    """Horton-Strahler number, height, leaf and node counts."""
    if is_leaf(t):
        return TreeStats(hs=0, height=0, leaves=1, nodes=1)
    a = tree_stats(t.left)
    b = tree_stats(t.right)
    hs = max(a.hs, b.hs) if a.hs != b.hs else a.hs + 1
    return TreeStats(hs=hs, height=1 + max(a.height, b.height),
                     leaves=a.leaves + b.leaves,
                     nodes=1 + a.nodes + b.nodes)


def _check_labels(t):
    """Reject a tree whose inner labels repeat, naming the first repeat
    in preorder.  Iterative, as are `leaf_paths`, `extremal_tree` and
    `tree_to_term`: a chain tree is as deep as it is long."""
    seen = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if is_leaf(node):
            continue
        if node.var in seen:
            raise ParseError("tree label %d repeats" % node.var)
        seen.add(node.var)
        stack += (node.right, node.left)


def leaf_paths(t):
    """Map root-to-leaf address ('0' = left) to the path clause, leaves
    from left to right.

    The path clause collects the literal of each edge taken: positive on
    a left edge, complemented on a right edge.
    """
    out = {}
    stack = [(t, "", ())]
    while stack:
        node, addr, lits = stack.pop()
        if is_leaf(node):
            out[addr] = frozenset(lits)
            continue
        stack += ((node.right, addr + "1", lits + (-node.var,)),
                  (node.left, addr + "0", lits + (node.var,)))
    return out


def tree_to_clauses(t):
    """Clause-set of all path clauses (one per leaf)."""
    _check_labels(t)
    leaf = {}
    for addr, c in leaf_paths(t).items():
        other = leaf.setdefault(c, addr)
        if other != addr:
            raise IntegrityError("distinct leaves share a path clause",
                                 witness={"clause": sorted(c, key=abs),
                                          "leaves": [other, addr]})
    return frozenset(leaf)


def clauses_to_tree(f):
    """Inverse translation; input must be a path clause-set.

    The root variable is the unique variable occurring in every clause;
    subtrees come from instantiating it either way.  Inputs outside the
    image of tree_to_clauses are rejected with a diagnosis.
    """
    t = _rebuild(f)
    _check_labels(t)
    if tree_to_clauses(t) != f:
        raise ParseError("clause-set is not a path clause-set")
    return t


def _rebuild(f):
    if f == frozenset([BOT]):
        return LEAF
    if not f:
        raise ParseError("empty clause-set has no tree form")
    common = None
    for c in f:
        vs = {abs(x) for x in c}
        common = vs if common is None else common & vs
    if not common:
        raise ParseError("no variable occurs in every clause")
    v = min(common)
    left = apply_assignment({v: 0}, f)
    right = apply_assignment({v: 1}, f)
    return Inner(var=v, left=_rebuild(left), right=_rebuild(right))


def extremal_tree(k, h):
    """Canonical largest tree of Horton-Strahler number k and height h.

    Needs h >= k, and k = 0 forces h = 0.  At k = 1 the right child is
    always a leaf; at k >= 2 the left subtree keeps the full budget
    min(k, h-1) while the right one drops to k - 1.  The higher-rated
    subtree sits on the left.  Inner nodes are labeled 1.. in preorder.
    """
    if k < 0 or h < k or (k == 0 and h != 0):
        raise ParseError("no extremal tree for hs=%d height=%d" % (k, h))
    # the rating of every node in preorder (0 for a leaf), then the nodes
    # built from the last to the first, each taking its two subtrees off
    # `built`
    order = []
    stack = [(k, h)]
    while stack:
        kk, hh = stack.pop()
        order.append(kk)
        if kk:
            stack += ((kk - 1, hh - 1), (min(kk, hh - 1), hh - 1))
    v = sum(1 for kk in order if kk)
    built = []
    for kk in reversed(order):
        if kk:
            built.append(Inner(var=v, left=built.pop(), right=built.pop()))
            v -= 1
        else:
            built.append(LEAF)
    return built.pop()


def pure_of_leafset(t, addrs):
    """Pure clause of the path clauses named by leaf addresses."""
    return _pure_of_leafset(t, addrs)[0]


def _pure_of_leafset(t, addrs):
    """(pure clause, path clauses) of the leaves named by addresses."""
    paths = leaf_paths(t)
    try:
        sub = [paths[a] for a in addrs]
    except KeyError as e:
        raise ParseError("unknown leaf address %s" % e)
    lits = {x for c in sub for x in c}
    return frozenset(x for x in lits if -x not in lits), sub


def doped_clause_of_leafset(t, doped, addrs):
    """Prime implicate of a doped tree clause-set picked by leaf addresses.

    `doped` is the DopedClauseSet of the path clause-set of the tree t;
    the result joins the doping variables of the chosen leaves with the
    pure clause of their path clauses.
    """
    pure, sub = _pure_of_leafset(t, addrs)
    inverse = {c: u for u, c in doped.doping_map.items()}
    return frozenset(inverse[c] for c in sub) | pure


def depth_subtrees(t, k):
    """Subtrees rooted at depth exactly k, left to right, with address
    prefixes.  Fails if a leaf sits above depth k."""
    if k == 0:
        return [("", t)]
    if is_leaf(t):
        raise ParseError("leaf above the requested depth")
    return ([("0" + p, s) for p, s in depth_subtrees(t.left, k - 1)]
            + [("1" + p, s) for p, s in depth_subtrees(t.right, k - 1)])


def tree_to_term(t):
    """Compact parenthesized rendering, '.' for leaves."""
    parts = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif is_leaf(node):
            parts.append(".")
        else:
            parts.append("(%d " % node.var)
            stack += (")", node.right, " ", node.left)
    return "".join(parts)
