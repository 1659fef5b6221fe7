import pytest
from hypothesis import given, settings, strategies as st

from cnfkc.core import (BOT, TOP, apply_assignment, clause,
                        clause_falsifier, emit_dimacs, literal_assignment,
                        measures, parse_dimacs_document,
                        resolve, ResolutionError, subsumption_eliminate,
                        variables)
from cnfkc.errors import ParseError

import oracles


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


def test_parse_basic():
    f = parse_dimacs_document("p cnf 2 2\n1 2 0\n-1 0\n").clauses
    assert f == cs([1, 2], [-1])


def test_parse_tautology_rejected():
    with pytest.raises(ParseError):
        parse_dimacs_document("p cnf 1 1\n1 -1 0\n")


def test_parse_empty_clause():
    f = parse_dimacs_document("p cnf 1 1\n0\n").clauses
    assert BOT in f


def test_parse_duplicates_merge():
    f = parse_dimacs_document("p cnf 2 3\n1 2 0\n2 1 0\n-1 0\n").clauses
    assert len(f) == 2


def test_parse_accepts_a_header_clause_count_that_does_not_match():
    # duplicates merge, so a count check would reject valid inputs
    doc = parse_dimacs_document("p cnf 3 5\n1 -2 0\n")
    assert doc.clauses == cs([1, -2])


def test_parse_keeps_comments():
    doc = parse_dimacs_document("c hello\np cnf 1 1\n1 0\nc bye\n")
    assert doc.comments == ("hello", "bye")


def test_parse_bad_header():
    with pytest.raises(ParseError):
        parse_dimacs_document("p dnf 1 1\n1 0\n")


def test_parse_unterminated():
    with pytest.raises(ParseError):
        parse_dimacs_document("p cnf 2 1\n1 2\n")


def test_apply_satisfied_and_falsified():
    f = cs([1, 2], [-1, 3])
    assert apply_assignment({1: 1}, f) == cs([3])


def test_apply_full_falsifier_gives_bot():
    f = cs([1, 2])
    assert BOT in apply_assignment(clause_falsifier(clause([1, 2])), f)


def test_resolve_examples():
    assert resolve(clause([1, 2]), clause([-1, 3])) == clause([2, 3])
    assert resolve(clause([1]), clause([-1])) == BOT
    with pytest.raises(ResolutionError):
        resolve(clause([1, 2]), clause([-1, -2]))
    with pytest.raises(ResolutionError):
        resolve(clause([1, 2]), clause([1, 3]))


def test_measures():
    m = measures(TOP)
    assert (m.n, m.c, m.ell, m.deficiency) == (0, 0, 0, 0)
    m = measures(cs([1], [2], [3], [-1, -2, -3]))
    assert (m.n, m.c, m.deficiency) == (3, 4, 1)


def test_subsumption():
    assert subsumption_eliminate(cs([1], [1, 2])) == cs([1])
    f = cs([1, 2], [-1, 3])
    assert subsumption_eliminate(f) == f


lits = st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0)


@st.composite
def clause_sets(draw, max_c=6):
    n = draw(st.integers(min_value=1, max_value=6))
    out = set()
    for _ in range(draw(st.integers(min_value=1, max_value=max_c))):
        width = draw(st.integers(min_value=1, max_value=min(n, 4)))
        vs = draw(st.permutations(range(1, n + 1)))[:width]
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=width,
                              max_size=width))
        out.add(clause(v * s for v, s in zip(vs, signs)))
    return frozenset(out)


@given(clause_sets())
@settings(max_examples=60, deadline=None)
def test_dimacs_roundtrip(f):
    assert parse_dimacs_document(emit_dimacs(f)).clauses == f


@given(clause_sets())
@settings(max_examples=60, deadline=None)
def test_emit_deterministic(f):
    assert emit_dimacs(f) == emit_dimacs(frozenset(f))


@given(clause_sets(), st.dictionaries(st.integers(1, 6),
                                      st.integers(0, 1), max_size=3),
       st.dictionaries(st.integers(1, 6), st.integers(0, 1), max_size=3))
@settings(max_examples=60, deadline=None)
def test_apply_composition(f, psi, phi):
    # applying psi then phi matches the combined assignment when the two
    # agree on shared variables
    if any(v in psi and psi[v] != b for v, b in phi.items()):
        return
    combined = dict(psi)
    combined.update(phi)
    assert apply_assignment(phi, apply_assignment(psi, f)) \
        == apply_assignment(combined, f)


@given(clause_sets())
@settings(max_examples=40, deadline=None)
def test_subsumption_idempotent_and_equivalent(f):
    g = subsumption_eliminate(f)
    assert subsumption_eliminate(g) == g
    # same models over the original variable set
    for phi in oracles.total_assignments(variables(f)):
        assert oracles.satisfies(phi, f) == oracles.satisfies(phi, g)


def test_literal_assignment():
    assert literal_assignment(3, 0) == {3: 0}
    assert literal_assignment(-3, 0) == {3: 1}
