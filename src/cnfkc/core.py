"""Clause-set basics: representation, instantiation, resolution, DIMACS I/O.

A literal is a nonzero int (sign = polarity), a clause is a frozenset of
literals that is free of complementary pairs, and a clause-set is a
frozenset of clauses.  TOP (the empty clause-set) is trivially satisfiable,
BOT (the empty clause) is unsatisfiable.

The engines run on packed clauses instead.  Literal v is bit 2(v-1) and
-v is bit 2v-1, so ascending bit order is the canonical literal order
(variable first, positive first).  A packed clause is the int with its
literals' bits set, the empty clause is 0, and a packed clause-set is a
frozenset of such ints.  The bits are absolute, not numbered per call, so
equal packed sets always mean equal clause-sets.  A partial assignment is
two masks, its true literals and its false literals.
"""

from dataclasses import dataclass

from .errors import ParseError

BOT = frozenset()
TOP = frozenset()


def clause(literals):
    """Build a clause, rejecting 0 and complementary pairs."""
    c = frozenset(literals)
    for x in c:
        if not isinstance(x, int) or x == 0:
            raise ParseError("literal must be a nonzero int, got %r" % (x,))
        if -x in c:
            raise ParseError("tautological clause: %d and %d" % (x, -x))
    return c


def variables(f):
    """Set of variables occurring in clause-set f."""
    return {abs(x) for c in f for x in c}


def literals_of(f):
    return {x for c in f for x in c}


def clause_key(c):
    """Canonical sort key: literals ordered by (variable, sign)."""
    return tuple(sorted(c, key=lambda x: (abs(x), x < 0)))


def sorted_clauses(f):
    """Clauses in canonical order (short first, then literal order)."""
    return sorted(f, key=lambda c: (len(c), clause_key(c)))


@dataclass(frozen=True)
class Measures:
    n: int
    c: int
    ell: int
    deficiency: int


def measures(f):
    n = len(variables(f))
    c = len(f)
    ell = sum(len(cl) for cl in f)
    return Measures(n=n, c=c, ell=ell, deficiency=c - n)


def literal_assignment(x, value):
    """Partial assignment sending literal x to value (0 or 1)."""
    if x > 0:
        return {x: value}
    return {-x: 1 - value}


def clause_falsifier(c):
    """The assignment setting every literal of clause c to false."""
    phi = {}
    for x in c:
        phi[abs(x)] = 0 if x > 0 else 1
    return phi


def assignment_satisfies(phi, x):
    v = phi.get(abs(x))
    if v is None:
        return None
    return v == (1 if x > 0 else 0)


def apply_assignment(phi, f):
    """Instantiate f by partial assignment phi (var -> 0/1).

    Satisfied clauses vanish, falsified literals are removed.
    """
    out = set()
    for c in f:
        kept = []
        satisfied = False
        for x in c:
            s = assignment_satisfies(phi, x)
            if s is True:
                satisfied = True
                break
            if s is None:
                kept.append(x)
        if not satisfied:
            out.add(frozenset(kept))
    return frozenset(out)


def literal_bit(x):
    """The single-bit mask of literal x."""
    return 1 << (2 * x - 2) if x > 0 else 1 << (-2 * x - 1)


def bit_literal(b):
    """The literal of the single-bit mask b."""
    i = b.bit_length() - 1
    v = (i >> 1) + 1
    return -v if i & 1 else v


def _even_bits(m):
    """The positive-literal bits up to the highest bit of m."""
    return (4 ** ((m.bit_length() + 1) // 2) - 1) // 3


def flip(m):
    """Complement every literal of the packed clause m."""
    even = _even_bits(m)
    return (m & even) << 1 | (m >> 1) & even


def bits(m):
    """The single-bit masks of m in ascending order."""
    while m:
        low = m & -m
        yield low
        m ^= low


def pack(c):
    m = 0
    for x in c:
        m |= literal_bit(x)
    return m


def unpack(m):
    return frozenset(bit_literal(b) for b in bits(m))


def pack_set(f):
    return frozenset(pack(c) for c in f)


def unpack_set(g):
    return frozenset(unpack(m) for m in g)


def union(g):
    """Every literal of the packed clause-set g, as one mask."""
    u = 0
    for m in g:
        u |= m
    return u


def variable_bits(m):
    """The positive-literal bit of every variable of the packed clause m."""
    return (m | m >> 1) & _even_bits(m)


def packed_variable_count(g):
    return variable_bits(union(g)).bit_count()


def instantiate(g, true, false):
    """Packed apply_assignment: drop clauses holding a true literal and
    strip the false literals from the rest."""
    return frozenset(m & ~false for m in g if not m & true)


def falsify(g, c):
    """Instantiate g by the falsifier of the packed clause c."""
    return instantiate(g, flip(c), c)


def _mask_key(m):
    """sorted_clauses' key of the packed clause m: its size, then its
    literals in ascending bit order (`bit_literal` inlined, it is hot)."""
    key = []
    while m:
        i = (m & -m).bit_length() - 1
        key.append(-(i >> 1) - 1 if i & 1 else (i >> 1) + 1)
        m &= m - 1
    return len(key), key


def sorted_masks(g):
    """Packed clauses in sorted_clauses order."""
    return sorted(g, key=_mask_key)


class SubsumptionIndex:
    """Packed clauses kept under subsumption, with one occurrence bitmap
    per literal: bit i of `occ[b]` is set when the i-th clause added holds
    literal b, and `alive` is the bitmap of the indices still kept.
    Both subsumption tests of `add` are then a few big-int operations
    per literal instead of a scan over the kept clauses."""

    def __init__(self, literals, clauses=()):
        """`literals`: a mask of every literal the clauses may hold;
        `clauses`: the clauses kept from the start, with no test.  (The
        loops over bits are inlined here and in `add`: both are hot.)"""
        self.clauses = list(clauses)
        self.occ = occ = {}
        while literals:
            low = literals & -literals
            occ[low] = 0
            literals ^= low
        new = 1
        for c in self.clauses:
            while c:
                low = c & -c
                occ[low] |= new
                c ^= low
            new <<= 1
        self.alive = new - 1

    def add(self, r):
        """Keep r unless a kept clause subsumes it, and then drop the
        kept clauses that r subsumes; whether r was kept.  A clause that
        a dropped one subsumes is still subsumed by r, so the answers of
        later calls do not depend on the dropping."""
        occ, alive = self.occ, self.alive
        outside, inside = 0, alive
        for b, o in occ.items():
            if r & b:
                inside &= o
            else:
                outside |= o
        if alive & ~outside:
            return False  # a kept clause has no literal outside r
        new = 1 << len(self.clauses)
        self.clauses.append(r)
        self.alive = alive & ~inside | new
        while r:
            low = r & -r
            occ[low] |= new
            r ^= low
        return True

    def holding(self, b):
        """The kept clauses that hold literal bit b."""
        return self._members(self.alive & self.occ.get(b, 0))

    def count(self, b):
        """How many kept clauses hold literal bit b."""
        return (self.alive & self.occ.get(b, 0)).bit_count()

    def __iter__(self):
        return self._members(self.alive)

    def __len__(self):
        return self.alive.bit_count()

    def _members(self, indices):
        while indices:
            low = indices & -indices
            yield self.clauses[low.bit_length() - 1]
            indices ^= low


class ResolutionError(ValueError):
    """The two clauses do not clash in exactly one variable."""


def resolve(c, d):
    """Resolvent of two clauses clashing in exactly one variable."""
    clash = [x for x in c if -x in d]
    if len(clash) != 1:
        raise ResolutionError(
            "clauses clash in %d variables, need exactly 1" % len(clash))
    x = clash[0]
    return (c | d) - {x, -x}


def subsumption_eliminate(f):
    """Keep only the inclusion-minimal clauses of f."""
    by_size = sorted(f, key=len)
    kept = []
    for c in by_size:
        if not any(d <= c for d in kept):
            kept.append(c)
    return frozenset(kept)


@dataclass(frozen=True)
class DimacsDocument:
    clauses: frozenset
    comments: tuple


def parse_dimacs_document(text):
    """Parse DIMACS CNF text, keeping comment lines."""
    comments = []
    clauses = []
    current = []
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[1:].strip())
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("bad problem line at %d: %r" % (lineno, raw))
            try:
                declared = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError("bad problem line at %d: %r" % (lineno, raw))
            continue
        for tok in line.split():
            try:
                x = int(tok)
            except ValueError:
                raise ParseError("bad token %r at line %d" % (tok, lineno))
            if x == 0:
                clauses.append(clause(current))
                current = []
            else:
                current.append(x)
    if current:
        raise ParseError("last clause not terminated by 0")
    f = frozenset(clauses)
    if declared is not None:
        nvar, _ = declared
        if any(abs(x) > nvar for c in f for x in c):
            raise ParseError("literal exceeds declared variable count")
    return DimacsDocument(clauses=f, comments=tuple(comments))


def emit_dimacs(f, comments=()):
    """Serialize f deterministically (canonical clause and literal order)."""
    lines = ["c %s" % c if c else "c" for c in comments]
    nvar = max(variables(f), default=0)
    lines.append("p cnf %d %d" % (nvar, len(f)))
    for c in sorted_clauses(f):
        lines.append(" ".join([str(x) for x in clause_key(c)] + ["0"]))
    return "\n".join(lines) + "\n"
