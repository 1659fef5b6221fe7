"""Hypothesis strategies shared by the property tests."""

import itertools
import random

from hypothesis import example, strategies as st

from cnfkc.core import BOT, clause


@st.composite
def clause_lists(draw, min_width=1):
    """Clause lists over at most five variables with small or large ids:
    random clauses of `min_width` to four literals, the empty clause now
    and then, and some clauses listed twice.

    One draw in four also holds, over two or three of the variables,
    the clause of every sign pattern, and a unit on another variable.
    Those clauses are unsatisfiable, yet for k below their width no two
    of them may resolve under k-resolution; the unit gets k >= 1 past
    the shortcut for inputs with no clause of at most k literals."""
    vs = draw(st.lists(st.integers(1, 6) | st.integers(7, 2000),
                       min_size=min_width, max_size=5, unique=True))
    one = st.dictionaries(st.sampled_from(vs), st.sampled_from((1, -1)),
                          min_size=min_width, max_size=4)
    cls = [frozenset(v * s for v, s in c.items())
           for c in draw(st.lists(one, max_size=8))]
    if len(vs) >= 3 and draw(st.integers(0, 3)) == 3:
        picked = draw(st.permutations(vs))
        full = picked[:draw(st.integers(2, min(3, len(vs) - 1)))]
        cls += [frozenset(v * s for v, s in zip(full, signs))
                for signs in itertools.product((1, -1), repeat=len(full))]
        cls.append(frozenset([picked[len(full)]
                              * draw(st.sampled_from((1, -1)))]))
    if draw(st.integers(0, 7)) == 7:
        cls.append(BOT)
    if cls:
        cls += draw(st.lists(st.sampled_from(cls), max_size=2))
    return tuple(cls)


@st.composite
def short_clause_lists(draw):
    """Three to eight distinct clauses of two or three literals over four
    to six variables: inputs with a handful of prime implicates (2 to 12
    in most draws), for the tests that reason over the primes."""
    n = draw(st.integers(4, 6))
    one = st.dictionaries(st.integers(1, n), st.sampled_from((1, -1)),
                          min_size=2, max_size=3)
    return tuple(frozenset(v * s for v, s in c.items())
                 for c in draw(st.lists(one, min_size=3, max_size=8,
                                        unique_by=lambda c: frozenset(
                                            c.items()))))


@st.composite
def unsat_3cnf(draw, max_vars=8):
    """An unsatisfiable random 3-CNF over three to `max_vars` variables.

    While some assignment satisfies every clause so far, one of them is
    drawn and a clause of three distinct variables that it falsifies is
    added, so each clause removes at least one model."""
    n = draw(st.integers(3, max_vars))
    models = list(itertools.product((1, -1), repeat=n))  # sign per variable
    out = []
    while models:
        phi = models[draw(st.integers(0, len(models) - 1))]
        vs = draw(st.lists(st.integers(1, n), min_size=3, max_size=3,
                           unique=True))
        c = frozenset(-v * phi[v - 1] for v in vs)
        out.append(c)
        models = [a for a in models if any(a[abs(x) - 1] * x > 0 for x in c)]
    return tuple(out)


@st.composite
def random_3cnf(draw):
    """A seeded random 3-CNF over 12 to 16 variables with five to six
    clauses per variable, unsatisfiable in most draws: large enough that
    level 3 probes through level 2 and level 4 through level 3, and
    dense enough that the frozenset reference at level 4 stays cheap."""
    n = draw(st.integers(12, 16))
    m = draw(st.integers(5 * n, 6 * n))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return tuple(frozenset(v * rng.choice((1, -1))
                           for v in rng.sample(range(1, n + 1), 3))
                 for _ in range(m))


EXAMPLES = [
    (),
    (BOT,),
    (BOT, clause([1]), clause([-1, 2])),
    (clause([1]), clause([-1])),
    (clause([1, 2]), clause([1, -2]), clause([-1, 2]), clause([-1, -2])),
    (clause([1000, -7]),),
    (clause([1000, -7]), clause([7, 3]), clause([7, 3]), clause([-1000]),
     clause([-1000])),
]


def clause_list_examples(test):
    """Run `test` on TOP, BOT, unsatisfiable sets, the sparse ids
    {1000, -7} and duplicate clauses, besides the drawn examples."""
    for f in reversed(EXAMPLES):
        test = example(f)(test)
    return test
