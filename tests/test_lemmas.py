"""Structural lemmas and their randomized sweeps."""

import collections
import random

import pytest

from ggslab import lemmas
from ggslab.core import GgsGroup, make_ggs
from ggslab.errors import CrossCheckError, InputError, ResourceLimitError
from ggslab.lemmas import (
    CIRCULANT_MAX_P,
    CIRCULANT_SAMPLES,
    CONTRACTION_LENGTH_CAP,
    CONTRACTION_MAX_FACTORS,
    INTERVAL_MAX_P,
    SWEEP_MAX_FACTORS,
    ExponentProfile,
    check_derived_product,
    check_propagates,
    check_section_less_than_half,
    classify_case,
    exponent_profile,
    infinite_order_trace,
    interval_lemma_scan,
    k_generator_identity,
    random_derived_element,
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
from ggslab.words import format_word
from oracles import (case2_by_tokens, case2_candidate, circulant_sweep_by_vector,
                     random_st1_element, short_section_by_redrawing, split_case_by_redrawing,
                     st1_by_tokens)

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
    # b: the section at letter 3 is b itself, a pure b-power
    assert classify_case(exponent_profile(g, g.b), g.lam) == 1
    # b * b^a: profile ((1, 1), (1, 1), (2, 0)) has no pure b-power section
    assert classify_case(exponent_profile(g, g.b * g.b.conjugate(g.a)), g.lam) == 2
    # hand-built profiles, pairs by residue (letter p at residue 0)
    assert classify_case(ExponentProfile(5, 4, ((2, 1), (0, 3), (0, 0), (0, 0), (0, 0))), 2) == 1
    assert classify_case(ExponentProfile(5, 4, ((1, 1), (1, 3), (3, 0), (0, 0), (0, 0))), 2) == 2
    # lambda = 2: no pure b-power section, yet only letter 3 has n_u != lambda * m_u
    with pytest.raises(CrossCheckError, match="Case 2 witness shortfall"):
        classify_case(ExponentProfile(3, 1, ((1, 1), (0, 0), (0, 0))), 2)
    with pytest.raises(InputError):
        classify_case(ExponentProfile(3, 1, ((0, 1), (1, 0), (1, 0))), 3)  # lambda = 0
    with pytest.raises(InputError):
        classify_case(ExponentProfile(3, 0, ((1, 1), (1, 2), (0, 0))), 2)  # t = 0


def test_exponent_profile_is_an_immutable_value():
    pairs = ((2, 1), (0, 3), (0, 0), (0, 0), (0, 0))
    profile = ExponentProfile(5, 4, pairs)
    assert (profile.p, profile.t, profile.pairs) == (5, 4, pairs)
    for field in ("p", "t", "pairs"):
        with pytest.raises(AttributeError):
            setattr(profile, field, 0)
    assert profile.pairs == pairs
    twin = ExponentProfile(5, 4, ((2, 1), (0, 3)) + ((0, 0),) * 3)
    assert twin == profile and not twin != profile
    assert hash(twin) == hash(profile)
    assert len({profile, twin}) == 1
    assert profile != ExponentProfile(5, 9, pairs)  # t is compared as given, not mod p
    assert profile != (5, 4, pairs) and (5, 4, pairs) != profile
    with pytest.raises(CrossCheckError, match="m-column"):
        ExponentProfile(5, 3, pairs)
    assert repr(profile) == "ExponentProfile(p=5, t=4, pairs=((2, 1), (0, 3), (0, 0), (0, 0), (0, 0)))"


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
        x = case2_candidate(g, rng)
        if x.abelianize()[1] == 0:
            continue  # the interleaved shape can draw t = 0, which has no profile
        assert classify_case(exponent_profile(g, x), g.lam) == 1
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


def test_split_case_sweep_reports_a_broken_section_route(monkeypatch):
    g = make_ggs(3, (1, 1))
    real = GgsGroup._section_uncached
    # sections read one letter off: every profile cross-check must object
    monkeypatch.setattr(GgsGroup, "_section_uncached",
                        lambda self, w, r: real(self, w, (r + 1) % self.p))
    rep = sweep_split_case(g, 20, seed=3)
    assert rep["cases_run"] == 20
    assert rep["passed"] == 0
    assert [bad["case"] for bad in rep["counterexamples"]] == list(range(20))
    assert all("profile mismatch" in bad["error"] for bad in rep["counterexamples"])


@pytest.mark.parametrize("p,e", [(3, (1, 1)), (5, (1, 0, 2, 4)), (7, (1, 0, 0, 0, 0, 0))])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_case_sweep_matches_redrawing(p, e, seed):
    g = make_ggs(p, e)
    assert sweep_split_case(g, 1000, seed) == split_case_by_redrawing(g, 1000, seed)


def test_split_case_sweep_replays_a_repeated_failure(monkeypatch):
    g = make_ggs(3, (1, 1))
    profile = lemmas.exponent_profile
    seen = collections.Counter()

    def recording(group, x):
        seen[x.word] += 1
        return profile(group, x)

    monkeypatch.setattr(lemmas, "exponent_profile", recording)
    split_case_by_redrawing(g, 100, 0)
    target, _ = seen.most_common(1)[0]
    calls = collections.Counter()

    def failing(group, x):
        calls[x.word] += 1
        if x.word == target:
            raise CrossCheckError("planted")
        return profile(group, x)

    monkeypatch.setattr(lemmas, "exponent_profile", failing)
    oracle = split_case_by_redrawing(g, 100, 0)
    oracle_calls, calls = calls, collections.Counter()
    rep = sweep_split_case(g, 100, 0)
    assert rep == oracle
    assert len(rep["counterexamples"]) > 1
    assert {c["word"] for c in rep["counterexamples"]} == {format_word(target)}
    # each repeat is reported with the index of its own case
    assert len({c["case"] for c in rep["counterexamples"]}) == len(rep["counterexamples"])
    # each draw of the target is checked once, then replayed from the memo
    assert calls[target] < len(rep["counterexamples"]) == oracle_calls[target]


def test_propagation_sweep():
    rep = _clean(sweep_propagation(make_ggs(3, (1, 1)), 40, seed=4))
    assert rep["cases_run"] == 40
    skip = sweep_propagation(make_ggs(3, (1, 2)), 10, seed=4)
    assert skip["skipped"] == 1


def test_short_section_sweep():
    rep = _clean(sweep_short_section(make_ggs(5, (1, 0, 2, 4)), 10, seed=5))
    assert rep["cases_run"] == rep["passed"] == 10


@pytest.mark.parametrize("p,e,cases", [
    (3, (1, 1), 50), (5, (1, 0, 2, 4), 50), (5, (1, 1, 1, 1), 50),
    (7, (1, 0, 0, 0, 0, 0), 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_short_section_sweep_matches_redrawing(p, e, cases, seed):
    g = make_ggs(p, e)
    assert sweep_short_section(g, cases, seed) == short_section_by_redrawing(g, cases, seed)


@pytest.mark.parametrize("p,e", [(3, (1, 1)), (5, (1, 0, 2, 4)), (7, (1, 0, 0, 0, 0, 0))])
def test_draws_match_token_built_words(p, e):
    g = make_ggs(p, e)
    for draw, oracle, kw in [(random_st1_element, st1_by_tokens, {}),
                             (random_st1_element, st1_by_tokens, {"nonzero_t": True}),
                             (case2_candidate, case2_by_tokens, {})]:
        rng, rng_oracle = random.Random(p), random.Random(p)
        for _ in range(2000):
            assert draw(g, rng, **kw).word == oracle(g, rng_oracle, **kw).word
        assert rng.getstate() == rng_oracle.getstate()


def test_short_section_sweep_replays_a_repeated_failure(monkeypatch):
    g = make_ggs(3, (1, 1))
    check = lemmas.check_section_less_than_half
    seen = collections.Counter()

    def recording(group, x):
        seen[x.word] += 1
        return check(group, x)

    monkeypatch.setattr(lemmas, "check_section_less_than_half", recording)
    short_section_by_redrawing(g, 50, 0)
    target, _ = seen.most_common(1)[0]
    calls = collections.Counter()

    def failing(group, x):
        calls[x.word] += 1
        if x.word == target:
            return {"status": "fail", "length": 0, "detail": "planted"}
        return check(group, x)

    monkeypatch.setattr(lemmas, "check_section_less_than_half", failing)
    oracle = short_section_by_redrawing(g, 50, 0)
    oracle_calls, calls = calls, collections.Counter()
    rep = sweep_short_section(g, 50, 0)
    assert rep == oracle
    assert len(rep["counterexamples"]) > 1
    assert {c["word"] for c in rep["counterexamples"]} == {format_word(target)}
    # each draw of the target is checked once, then replayed from the memo
    assert calls[target] < len(rep["counterexamples"]) == oracle_calls[target]


def test_length_contraction_sweep():
    rep = _clean(sweep_length_contraction(make_ggs(3, (1, 2)), 30, seed=6))
    assert rep["cases_run"] == 30
    # a draw's length is at most its b-syllable count, so the cap certifies it
    assert CONTRACTION_MAX_FACTORS <= CONTRACTION_LENGTH_CAP


def test_length_contraction_reports_an_uncertified_length(monkeypatch):
    g = make_ggs(3, (1, 2))
    calls = []

    def uncertified(self, w, cap=None):
        calls.append(w)
        # at most one draw and p sections per case: more means the sweep redraws
        assert len(calls) <= 30 * (1 + g.p), "the sweep keeps drawing"
        return None

    monkeypatch.setattr(GgsGroup, "length_word", uncertified)
    rep = sweep_length_contraction(g, 30, seed=6)
    assert (rep["cases_run"], rep["passed"], rep["skipped"]) == (30, 0, 0)
    assert [bad["case"] for bad in rep["counterexamples"]] == list(range(30))
    assert {bad["detail"] for bad in rep["counterexamples"]} == {"length not certified within cap"}


def test_circulant_sweep_exhaustive():
    rep = _clean(sweep_circulant(3, seed=7))
    assert rep["exhaustive"] is True
    assert rep["cases_run"] == 27
    sampled = _clean(sweep_circulant(7, seed=7))  # 7^7 vectors, past the sample size
    assert sampled["exhaustive"] is False
    assert sampled["cases_run"] == CIRCULANT_SAMPLES


@pytest.mark.parametrize("p, seed", [(3, 0), (3, 7), (5, 0), (5, 7), (7, 0)])
def test_circulant_sweep_matches_ranking_every_row(p, seed):
    assert sweep_circulant(p, seed) == circulant_sweep_by_vector(p, seed)


def test_circulant_sweep_reports_every_member_of_a_failing_orbit(monkeypatch):
    # a rank that is always full fails every row with entry sum zero: both
    # list the 5^4 such rows at p = 5, in product order
    monkeypatch.setattr(lemmas, "circulant_rank", lambda row, p: p)
    rep = sweep_circulant(5, seed=0)
    assert rep == circulant_sweep_by_vector(5, seed=0)
    assert len(rep["counterexamples"]) == 625 and rep["passed"] == 2500
    assert rep["counterexamples"][:2] == [{"vector": [0, 0, 0, 0, 0], "rank": 5},
                                          {"vector": [0, 0, 0, 1, 4], "rank": 5}]


def test_circulant_sweep_ranks_one_row_per_orbit(monkeypatch):
    calls = collections.Counter()
    rank = lemmas.circulant_rank

    def counted(row, p):
        calls[p] += 1
        return rank(row, p)

    monkeypatch.setattr(lemmas, "circulant_rank", counted)
    for p in (3, 5, 7):
        sweep_circulant(p, seed=0)
    assert calls == {3: 6, 5: 158, 7: CIRCULANT_SAMPLES}


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
