"""Hypothesis strategies shared by the property tests."""

from hypothesis import example, strategies as st

from cnfkc.core import BOT, clause


@st.composite
def clause_lists(draw):
    """Clause lists over at most five variables with small or large ids,
    the empty clause allowed, and some clauses listed twice."""
    vs = draw(st.lists(st.integers(1, 6) | st.integers(7, 2000),
                       min_size=1, max_size=5, unique=True))
    one = st.dictionaries(st.sampled_from(vs), st.sampled_from((1, -1)),
                          min_size=1, max_size=4)
    cls = [frozenset(v * s for v, s in c.items())
           for c in draw(st.lists(one, max_size=8))]
    if draw(st.integers(0, 7)) == 7:
        cls.append(BOT)
    if cls:
        cls += draw(st.lists(st.sampled_from(cls), max_size=2))
    return tuple(cls)


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
