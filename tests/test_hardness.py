import random

from hypothesis import given, settings
import pytest

from cnfkc import hardness
from cnfkc.core import (BOT, apply_assignment, clause, falsify, pack_set,
                        packed_variable_count, variables)
from cnfkc.errors import CapExceededError, ParseError
from cnfkc.hardness import (hardness_report, hd, k_res_packed, k_res_refutes,
                            phd, whd, wid, width_refutes)
from cnfkc.primes import prime_implicates
from cnfkc.propagation import propagate, propagate_packed, sat_oracle
from cnfkc.trees import extremal_tree, tree_to_clauses

import oracles
import references
from strategies import clause_list_examples, clause_lists, short_clause_lists


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


DIFF = cs([2, 3, 4], [-4, 2], [-2, 1, 5], [-5, -2], [-3, 1, 6], [-6, -3],
          [7, 8, 9], [-9, 7], [-7, -1, 10], [-10, -7], [-8, -1, 11],
          [-11, -8])


def random_unsat_horn(rng):
    """Doped-style Horn chain with shuffled variable names, then a
    random widening; stays Horn and unsatisfiable."""
    h = rng.randint(2, 4)
    names = rng.sample(range(1, 10), h)
    out = [clause([names[0]])]
    for i in range(1, h):
        out.append(clause([-v for v in names[:i]] + [names[i]]))
    out.append(clause([-v for v in names]))
    return frozenset(out)


def test_k_res_examples():
    assert k_res_refutes(frozenset([BOT]), 0)[0]
    assert not k_res_refutes(DIFF, 1)[0]
    assert k_res_refutes(DIFF, 2)[0]


def test_negative_level_is_a_parse_error():
    for f in (DIFF, frozenset([BOT])):
        with pytest.raises(ParseError):
            hardness.k_res_packed(pack_set(f), -1)


def test_k_res_trace_ends_in_bot():
    ok, trace = k_res_refutes(cs([1], [-1, 2], [-2]), 1, want_trace=True)
    assert ok
    assert trace[-1][0] == BOT
    derived = {step[0] for step in trace}
    for c, a, b in trace:
        from cnfkc.core import resolve
        assert resolve(a, b) == c


def test_diff_example_measures():
    assert whd(DIFF) == 2
    assert hd(DIFF) == 3


def test_horn_unsat_whd_and_width():
    rng = random.Random(31)
    for _ in range(25):
        f = random_unsat_horn(rng)
        assert not sat_oracle(f)[0]
        assert whd(f) <= 1
        assert wid(f) == max(len(c) for c in f)


def test_hd_examples():
    assert hd(frozenset()) == 0
    from cnfkc.cli import build_horn_chain
    for h in (2, 3, 4):
        assert hd(build_horn_chain(h).doped) == 1


def test_phd_examples():
    assert phd(frozenset()) == 0
    chain = cs([1, -2], [2, -3], [3, 1])
    assert phd(chain) == 2 and hd(chain) == 1


def _phd_witness_is_tight(f, rep):
    """At the reported level, propagation under the witness reaches the
    saturation level's reduction, and one level lower it does not."""
    phi = rep.witnesses["phd"]["assignment"]
    g = apply_assignment(phi, f)
    target = propagate(g, len(variables(g))).reduced
    if rep.phd == 0:
        return propagate(g, 0).reduced == target
    return (propagate(g, rep.phd - 1).reduced != target
            and propagate(g, rep.phd).reduced == target)


@settings(max_examples=300, deadline=None)
@given(clause_lists() | short_clause_lists())
@clause_list_examples
def test_phd_matches_the_exhaustive_reference(clauses):
    f = frozenset(clauses)
    rep = hardness_report(f)
    assert phd(f) == rep.phd == references.phd_exhaustive(f)[0]
    assert _phd_witness_is_tight(f, rep)


@settings(max_examples=300, deadline=None)
@given(clause_lists() | short_clause_lists())
@clause_list_examples
def test_k_resolution_refutes_each_instance_at_its_propagation_level(
        clauses):
    # UC_k within WC_k, instance by instance: on every falsified instance
    # of a satisfiable f's primes, k-resolution refutes at the least
    # level at which r_k does, so its own least level is no higher
    f = frozenset(clauses)
    if not sat_oracle(f)[0]:
        return
    g = pack_set(f)
    for c in prime_implicates(f):
        h = falsify(g, c)
        k = next(k for k in range(packed_variable_count(h) + 1)
                 if 0 in propagate_packed(h, k, {})[0])
        assert k_res_packed(h, k)[0]


def test_phd_matches_the_exhaustive_reference_on_seven_variables():
    rng = random.Random(36)
    for _ in range(60):
        f = frozenset(
            clause(v * rng.choice((1, -1))
                   for v in rng.sample(range(1, 8), rng.randint(1, 4)))
            for _ in range(rng.randint(4, 14)))
        assert phd(f) == references.phd_exhaustive(f)[0]


def test_phd_on_named_families_matches_the_exhaustive_reference():
    from cnfkc.cli import build_extremal_doped, build_horn_chain
    family = [build_extremal_doped(0, h)[1].doped for h in (2, 3, 4)]
    family.append(build_extremal_doped(1, 2)[1].doped)
    family += [build_horn_chain(h).doped for h in (2, 3, 4)]
    for f in family:
        rep = hardness_report(f)
        assert rep.phd == references.phd_exhaustive(f)[0] == 2
        assert _phd_witness_is_tight(f, rep)


def test_doped_trees_are_uc_but_not_pc():
    # the paper's UC-vs-PC separation: hd = 1 (unit-refutation complete)
    # with phd = 2 (not propagation complete)
    from cnfkc.cli import build_extremal_doped
    for h in range(2, 7):
        f = build_extremal_doped(0, h)[1].doped
        assert hd(f) == 1 and phd(f) == 2
    for k, h in ((1, 3), (2, 3)):
        assert phd(build_extremal_doped(k, h)[1].doped) == 3


def test_hd_matches_definition_oracle():
    rng = random.Random(32)
    for _ in range(40):
        f = oracles.random_clause_set(rng, max_n=5, max_c=6)
        assert hd(f) == oracles.hd_by_definition(f)


def test_hierarchy_chain():
    rng = random.Random(33)
    for _ in range(30):
        f = oracles.random_clause_set(rng, max_n=5, max_c=6)
        a, b, w, s = hd(f), phd(f), whd(f), wid(f)
        assert w <= a <= b <= a + 1
        assert w <= s


def test_monotone_under_instantiation():
    rng = random.Random(34)
    for _ in range(20):
        f = oracles.random_clause_set(rng, max_n=5, max_c=6)
        v = rng.randint(1, 5)
        g = apply_assignment({v: rng.randint(0, 1)}, f)
        assert hd(g) <= hd(f)
        assert whd(g) <= whd(f)
        assert phd(g) <= phd(f)


def test_whd_all_assignment_oracle():
    # the prime-implicate restriction gives the same value as scanning
    # every unsatisfiable instantiation
    rng = random.Random(35)
    for _ in range(25):
        f = oracles.random_clause_set(rng, max_n=4, max_c=5)
        worst = 0
        for phi in oracles.partial_assignments(variables(f)):
            g = apply_assignment(phi, f)
            if oracles.satisfiable_tt(g):
                continue
            k = 0
            while not k_res_refutes(g, k)[0]:
                k += 1
            worst = max(worst, k)
        assert whd(f) == worst


def test_hs2_trees_of_heights_5_and_6():
    # the width-h refutation of these trees passed 200 000 clauses at
    # height 6 while every resolvent was kept; with forward subsumption
    # it stays within a few thousand kept clauses
    for h in (5, 6):
        f = tree_to_clauses(extremal_tree(2, h))
        assert (hd(f), whd(f), wid(f)) == (2, 2, h)
    assert width_refutes(f, 6, cap_clauses=5000)
    assert not width_refutes(f, 5, cap_clauses=5000)


def test_the_cap_counts_kept_clauses_and_bounds_the_dropped_ones(monkeypatch):
    # the width-5 refutation of the height-5 tree keeps about 500
    # clauses and drops about 4 000 subsumed resolvents; the set that
    # remembers them is emptied at the cap, so a cap of 1 000 neither
    # stops the run nor lets the set grow past it
    class Remembered(set):
        largest = 0

        def add(self, r):
            super().add(r)
            Remembered.largest = max(Remembered.largest, len(self))

    monkeypatch.setattr(hardness, "set", Remembered, raising=False)
    f = tree_to_clauses(extremal_tree(2, 5))
    assert width_refutes(f, 5)
    assert Remembered.largest > 1000
    Remembered.largest = 0
    assert width_refutes(f, 5, cap_clauses=1000)
    assert 0 < Remembered.largest <= 1000
    with pytest.raises(CapExceededError):
        width_refutes(f, 5, cap_clauses=400)


def test_whd_decides_each_falsified_instance_once(monkeypatch):
    # the 127 primes of the doped (1,3) tree have 38 distinct falsified
    # instances; each is tested from the running maximum up, so no
    # instance is tested twice at one level
    from cnfkc.cli import build_extremal_doped
    f = build_extremal_doped(1, 3)[1].doped
    primes = prime_implicates(f)
    asked = []
    refutes = hardness._k_res_refutes

    def counted(g, k):
        asked.append((g, k))
        return refutes(g, k)

    monkeypatch.setattr(hardness, "_k_res_refutes", counted)
    assert whd(f, primes=primes) == 2
    assert len({g for g, _ in asked}) <= 38
    assert len(set(asked)) == len(asked)


def test_critical_prime_is_the_first_to_reach_the_maximum():
    # {1} is refuted at level 0, {2} and {3} at level 1: {2} rises
    # strictly and {3} only ties; when every level is 0, the first prime
    # in canonical order is critical; TOP has no prime
    cases = [(cs([1], [2, 4], [2, -4], [3, 5], [3, -5]), clause([2]), 1),
             (cs([1], [2]), clause([1]), 0),
             (frozenset(), None, 0)]
    for f, crit, level in cases:
        rep = hardness_report(f)
        for name in ("hd", "whd", "wid"):
            assert rep.witnesses[name] == {"critical_prime": crit,
                                           "level": level}


def test_width_refutes_monotone():
    f = cs([1, 2], [-1, 2], [1, -2], [-1, -2])
    assert not width_refutes(f, 1)
    assert width_refutes(f, 2)
    assert wid(f) == 2


def test_report_of_top_has_the_witnesses_of_bot():
    for f in (frozenset(), frozenset([BOT])):
        rep = hardness_report(f)
        assert (rep.hd, rep.whd, rep.wid, rep.phd) == (0, 0, 0, 0)
        for name in ("hd", "whd", "wid"):
            assert rep.witnesses[name] == {"critical_prime": None,
                                           "level": 0}
        assert rep.witnesses["phd"] == {"assignment": {}, "level": 0}


def test_given_primes_decide_satisfiability_without_the_oracle():
    # the prime table is (0,) exactly when f is unsatisfiable, so no
    # DPLL runs and its variable cap does not apply
    units = frozenset(clause([v]) for v in range(1, 31))
    with pytest.raises(CapExceededError):
        hd(units)
    primes = prime_implicates(units)
    assert [measure(units, primes=primes)
            for measure in (hd, whd, wid, phd)] == [0, 0, 0, 1]
    assert hd(DIFF, primes=(0,)) == 3


def test_report_contains_witnesses():
    rep = hardness_report(cs([1, 2], [-1, 2]))
    assert rep.hd == 1 and rep.phd == 2
    assert rep.witnesses["hd"]["critical_prime"] == clause([2])
    from cnfkc.hardness import report_to_json
    text = report_to_json(rep)
    assert '"phd": 2' in text
