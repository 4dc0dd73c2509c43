"""Structural lemmas and their randomized sweeps."""

import random

import pytest

from ggslab.core import GgsGroup, make_ggs
from ggslab.errors import CrossCheckError, InputError, ResourceLimitError
from ggslab.lemmas import (
    CIRCULANT_MAX_P,
    INTERVAL_MAX_P,
    SWEEP_MAX_FACTORS,
    _case2_candidate,
    check_derived_product,
    check_propagates,
    check_section_less_than_half,
    classify_case,
    exponent_profile,
    infinite_order_trace,
    interval_lemma_scan,
    k_generator_identity,
    random_derived_element,
    random_st1_element,
    sweep_circulant,
    sweep_commutator_tuple,
    sweep_constant_model,
    sweep_derived_product,
    sweep_infinite_order,
    sweep_interval,
    sweep_k_generator,
    sweep_length_contraction,
    sweep_maximal_census,
    sweep_propagation,
    sweep_short_section,
    sweep_split_case,
)

REPORT_KEYS = {"lemma", "seed", "cases_run", "passed", "skipped", "counterexamples"}


# exponent profiles ----------------------------------------------------------


def test_profile_hand_example():
    # g = b * b^a over p=3, e=(1,1): psi(g) = (ab, a^2, ba)
    g = make_ggs(3, (1, 1))
    x = g.b * g.b.conjugate(g.a)
    prof = exponent_profile(g, x)
    assert prof.t == 2
    # pairs by residue: letter p sits at residue 0, letters 1 and 2 at 1 and 2
    assert prof.pairs == ((1, 1), (1, 1), (2, 0))


def test_profile_of_b():
    g = make_ggs(3, (1, 1))
    prof = exponent_profile(g, g.b)
    assert prof.t == 1
    assert prof.pairs == ((0, 1), (1, 0), (1, 0))


def test_profile_shifts_under_conjugation_by_a():
    g = make_ggs(5, (1, 0, 2, 4))
    x = random_st1_element(g, random.Random(79), nonzero_t=True)
    base = exponent_profile(g, x)
    shifted = exponent_profile(g, x.conjugate(g.a))
    # section at letter u of x^a is the section of x at letter u-1
    for u in range(1, 6):
        prev = 5 if u == 1 else u - 1
        assert shifted.pairs[u % 5] == base.pairs[prev % 5]


def test_profile_requires_level_one_stabilizer():
    g = make_ggs(3, (1, 1))
    with pytest.raises(InputError):
        exponent_profile(g, g.a)


def test_profile_leaves_the_section_memo_alone():
    g = make_ggs(7, (1, 0, 0, 0, 0, 0))
    rng = random.Random(5)
    before = len(g._sections)
    for _ in range(20):
        exponent_profile(g, random_st1_element(g, rng, nonzero_t=True))
    assert len(g._sections) == before


def test_profile_route_through_sections_is_still_cross_checked(monkeypatch):
    g = make_ggs(5, (1, 0, 2, 4))
    x = random_st1_element(g, random.Random(79), nonzero_t=True)
    real = GgsGroup._section_uncached
    # sections read one letter off: the decomposition route must object
    monkeypatch.setattr(GgsGroup, "_section_uncached",
                        lambda self, w, r: real(self, w, (r + 1) % self.p))
    with pytest.raises(CrossCheckError):
        exponent_profile(g, x)


def test_classify_case_examples():
    g = make_ggs(3, (1, 1))
    v1 = classify_case(exponent_profile(g, g.b), g.lam)
    assert v1.case == 1
    assert v1.letter == 3
    assert v1.j0 == 1
    v2 = classify_case(exponent_profile(g, g.b * g.b.conjugate(g.a)), g.lam)
    assert v2.case == 2
    assert v2.a_witnesses == (1, 2)
    assert v2.m_witnesses == (1, 3)


# single checks --------------------------------------------------------------


def test_derived_product_on_commutators():
    g = make_ggs(3, (1, 2))
    assert check_derived_product(g, g.a.commutator(g.b))
    rng = random.Random(83)
    for _ in range(10):
        assert check_derived_product(g, random_derived_element(g, rng))
    with pytest.raises(InputError):
        check_derived_product(g, g.b)


def test_propagation_of_ab():
    g = make_ggs(3, (1, 1))
    rep = check_propagates(g, g.a * g.b, length_cap=4)
    assert rep["abelianizations_ok"]
    assert rep["expected"] == [2, 1]  # (lambda * j, j) with lambda = 2, j = 1
    assert rep["length_checked"]
    assert rep["length_ok"]
    assert rep["mismatches"] == []


def test_propagation_preconditions():
    torsion = make_ggs(3, (1, 2))
    with pytest.raises(InputError):
        check_propagates(torsion, torsion.a * torsion.b)
    g = make_ggs(3, (1, 1))
    with pytest.raises(InputError):
        check_propagates(g, g.b)  # abelianization (0, 1) has i = 0


def test_short_section_hand_example():
    g = make_ggs(5, (1, 0, 2, 4))
    x = (g.b * g.b.conjugate(g.a)) ** 2
    rep = check_section_less_than_half(g, x)
    assert rep["status"] == "pass"
    assert rep["length"] == 4
    assert rep["witness_length"] < 2


def test_short_section_skips():
    g = make_ggs(5, (1, 0, 2, 4))
    assert check_section_less_than_half(g, g.a * g.b)["status"] == "skipped"
    assert check_section_less_than_half(g, g.b)["status"] == "skipped"  # Case 1
    torsion = make_ggs(3, (1, 2))
    assert check_section_less_than_half(torsion, torsion.b)["status"] == "skipped"


def test_short_section_draws_never_reach_case_2_at_p7_single_entry():
    # n_u = m_{u-1}, so Case 2 needs all seven class sums m_u nonzero; a draw
    # has at most SWEEP_MAX_FACTORS conjugate factors or two classes
    assert SWEEP_MAX_FACTORS < 7
    g = make_ggs(7, (1, 0, 0, 0, 0, 0))
    rng = random.Random(11)
    classified = 0
    for _ in range(500):
        x = _case2_candidate(g, rng)
        if x.abelianize()[1] == 0:
            continue  # the interleaved shape can draw t = 0, which has no profile
        assert classify_case(exponent_profile(g, x), g.lam).case == 1
        classified += 1
    assert classified > 400


def test_infinite_order_trace_examples():
    g = make_ggs(3, (1, 1))
    assert infinite_order_trace(g, g.a * g.b, 5) == [(1, 1)] + [(2, 1)] * 5
    h = make_ggs(5, (1, 0, 2, 4))
    assert infinite_order_trace(h, h.a * h.b, 4) == [(1, 1)] + [(2, 1)] * 4


def test_infinite_order_trace_preconditions():
    torsion = make_ggs(3, (1, 2))
    with pytest.raises(InputError):
        infinite_order_trace(torsion, torsion.a * torsion.b)
    g = make_ggs(3, (1, 1))
    with pytest.raises(InputError):
        infinite_order_trace(g, g.b)
    with pytest.raises(InputError):
        infinite_order_trace(g, g.a * g.b, steps=0)


def test_interval_scan():
    assert interval_lemma_scan(5) == []
    assert interval_lemma_scan(7) == []
    with pytest.raises(InputError):
        interval_lemma_scan(3)


def test_k_generator_identity_small_primes():
    for p in (3, 5, 7):
        assert k_generator_identity(p)


# random element generators --------------------------------------------------


def test_random_st1_elements_stabilize():
    g = make_ggs(5, (1, 2, 3, 4))
    rng = random.Random(89)
    for _ in range(50):
        x = random_st1_element(g, rng)
        assert x.in_level_one_stabilizer()
    for _ in range(20):
        x = random_st1_element(g, rng, nonzero_t=True)
        assert x.abelianize()[1] != 0


def test_random_derived_elements_vanish_in_abelianization():
    g = make_ggs(3, (1, 0))
    rng = random.Random(97)
    for _ in range(30):
        assert random_derived_element(g, rng).abelianize() == (0, 0)


# sweeps ---------------------------------------------------------------------


def _clean(report):
    assert REPORT_KEYS <= set(report)
    assert report["counterexamples"] == []
    return report


@pytest.mark.parametrize("p,e", [(3, (1, 2)), (3, (1, 1)), (5, (1, 0, 2, 4))])
def test_commutator_tuple_sweep(p, e):
    rep = _clean(sweep_commutator_tuple(make_ggs(p, e), seed=1))
    assert rep["cases_run"] == p
    assert rep["passed"] == p


def test_derived_product_sweep():
    rep = _clean(sweep_derived_product(make_ggs(3, (1, 2)), 30, seed=2))
    assert rep["cases_run"] == 30


def test_split_case_sweep():
    rep = _clean(sweep_split_case(make_ggs(3, (1, 1)), 50, seed=3))
    assert rep["cases_run"] == 50
    assert rep["passed"] == 50
    skip = sweep_split_case(make_ggs(3, (1, 2)), 10, seed=3)
    assert skip["skipped"] == 1
    assert "note" in skip


def test_propagation_sweep():
    rep = _clean(sweep_propagation(make_ggs(3, (1, 1)), 40, seed=4))
    assert rep["cases_run"] == 40
    skip = sweep_propagation(make_ggs(3, (1, 2)), 10, seed=4)
    assert skip["skipped"] == 1


def test_short_section_sweep():
    rep = _clean(sweep_short_section(make_ggs(5, (1, 0, 2, 4)), 10, seed=5))
    assert rep["cases_run"] >= 10 or rep["skipped"] > 0


def test_length_contraction_sweep():
    rep = _clean(sweep_length_contraction(make_ggs(3, (1, 2)), 30, seed=6))
    assert rep["cases_run"] == 30


def test_circulant_sweep_exhaustive():
    rep = _clean(sweep_circulant(3, seed=7))
    assert rep["exhaustive"] is True
    assert rep["cases_run"] == 27
    sampled = _clean(sweep_circulant(7, seed=7, sample_cap=500))
    assert sampled["exhaustive"] is False
    assert sampled["cases_run"] == 500


def test_interval_sweep():
    rep = _clean(sweep_interval(5, seed=8))
    assert rep["cases_run"] == 4 * 2 * 5 * 4
    assert sweep_interval(3)["skipped"] == 1


def test_fixed_size_scans_stop_past_their_bounds():
    # the bounds admit the largest p each scan finishes in seconds
    assert INTERVAL_MAX_P >= 19 and CIRCULANT_MAX_P >= 31
    with pytest.raises(ResourceLimitError, match=f"interval-lemma check at p=23 .* p <= {INTERVAL_MAX_P}"):
        sweep_interval(23)
    with pytest.raises(ResourceLimitError, match=f"circulant check at p=37 .* p <= {CIRCULANT_MAX_P}"):
        sweep_circulant(37, seed=0)


def test_k_generator_sweep():
    rep = _clean(sweep_k_generator(make_ggs(3, (1, 1)), seed=9))
    assert rep["passed"] == 3
    assert sweep_k_generator(make_ggs(3, (1, 2)))["skipped"] == 1


def test_infinite_order_sweep():
    rep = _clean(sweep_infinite_order(make_ggs(3, (1, 1)), seed=10))
    assert rep["trace"][1:] == [[2, 1]] * 5
    assert sweep_infinite_order(make_ggs(3, (1, 2)))["skipped"] == 1


def test_maximal_census_sweep():
    rep = _clean(sweep_maximal_census(make_ggs(3, (1, 2)), seed=11))
    assert rep["census"]["count"] == 4


def test_constant_model_sweep():
    rep = _clean(sweep_constant_model(make_ggs(3, (1, 1)), seed=12))
    assert rep["passed"] == rep["cases_run"]
    assert sweep_constant_model(make_ggs(3, (1, 2)))["skipped"] == 1


def test_sweeps_deterministic_for_fixed_seed():
    g = make_ggs(3, (1, 1))
    assert sweep_propagation(g, 25, seed=13) == sweep_propagation(g, 25, seed=13)
    assert sweep_split_case(g, 25, seed=14) == sweep_split_case(g, 25, seed=14)
    h = make_ggs(3, (1, 2))
    assert (sweep_length_contraction(h, 20, seed=15)
            == sweep_length_contraction(h, 20, seed=15))
