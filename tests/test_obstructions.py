"""Lower-bound obstructions: unlinking, splitting and Gordian comparisons."""

import pytest

import alexlink as al
from alexlink.factor import (NormVerdict, factor_irreducible,
                             is_norm_up_to_negligible, norm_verdict)
from alexlink.invariants import AlexanderData, component_polynomials
from alexlink.laurent import (LaurentPoly, NotDivisible, divide_exact,
                              embed_univariate, unit_normal_form)
from alexlink.obstructions import (RULE_PARITY, RULE_RANK, RULE_SPLIT_NORM,
                                   RULE_UNLINK_NORM, RULE_WSP_NORM,
                                   band_clasping_check, build_report,
                                   delta_bounds, forced_knot_complexity,
                                   gordian_extremal_divisibility,
                                   gordian_rank_bound, parity_refine,
                                   splitting_sequence_knot_constraint)

from conftest import load_fixture, random_braid_closures, seeded

TREF = "t^2-t+1"


def P(text, nvars):
    return al.parse_poly(text, nvars)


def alex(name):
    return al.alexander_data(load_fixture(name))


def fixture_bounds(name):
    d = load_fixture(name)
    return delta_bounds(al.alexander_data(d), component_polynomials(d))


def unknotted(m):
    """Component polynomials of m unknotted components."""
    return [LaurentPoly.one(1)] * m


class TestUnlinkingBound:
    def test_hopf_stays_at_rank_bound(self):
        bound, reasons, verdict = fixture_bounds("hopf")["unlinking"]
        assert bound == 1
        assert reasons == [RULE_RANK]
        assert verdict.is_norm  # delta = 1 is negligible

    def test_trefoil_norm_rule_fires(self):
        bound, reasons, verdict = fixture_bounds("trefoil")["unlinking"]
        assert bound == 1
        assert RULE_UNLINK_NORM in reasons
        assert not verdict.is_norm

    def test_borromean_negligible_delta(self):
        # delta = (t1-1)(t2-1)(t3-1) is negligible, so the norm rule
        # cannot exclude the extremal value m - 1
        bound, reasons, verdict = fixture_bounds("L6a4")["unlinking"]
        assert bound == 2
        assert reasons == [RULE_RANK]
        assert verdict.is_norm

    def test_raised_to_m_on_blocking_factor(self):
        # L9a54 carries t3^2 - t3 + 1 with multiplicity one
        bound, reasons, verdict = fixture_bounds("L9a54")["unlinking"]
        assert bound == 3
        assert RULE_UNLINK_NORM in reasons
        assert verdict.blocking_factors

    def test_split_links_bound_zero(self):
        for name in ("unlink2", "unlink3", "trefoil_trefoil"):
            bound, reasons, verdict = fixture_bounds(name)["unlinking"]
            assert bound == 0
            assert verdict is None  # delta vanishes, no norm test to run


class TestSplittingBound:
    def test_hopf(self):
        bound, reasons, verdict = delta_bounds(
            alex("hopf"), unknotted(2))["splitting"]
        assert bound == 1 and verdict.is_norm

    def test_component_polynomial_divides_off(self):
        # trefoil-with-meridian shape: delta = tref(t1) * (t1-1)(t2-1)
        a = AlexanderData(m=2, beta=0,
                          delta=P(f"({TREF.replace('t', 't1')})"
                                  "*(t1-1)*(t2-1)", 2),
                          delta_tor=None)
        bound, reasons, verdict = delta_bounds(
            a, [P(TREF, 1), LaurentPoly.one(1)])["splitting"]
        assert bound == 1
        assert verdict.is_norm

    def test_knotted_component_not_dividing_raises_bound(self):
        a = AlexanderData(m=2, beta=0, delta=P("(t1-1)*(t2-1)", 2),
                          delta_tor=None)
        bound, reasons, verdict = delta_bounds(
            a, [P(TREF, 1), LaurentPoly.one(1)])["splitting"]
        assert bound == 2
        assert RULE_SPLIT_NORM in reasons
        assert not verdict.is_norm and verdict.blocking_factors


class TestParityRefine:
    def test_lift(self):
        assert parity_refine(2, 1) == 3
        assert parity_refine(1, 0) == 2

    def test_fixed_point(self):
        assert parity_refine(1, 1) == 1
        assert parity_refine(2, 0) == 2
        assert parity_refine(0, 4) == 0


class TestWeakSplittingBound:
    def test_univariate_factors_excused(self):
        # L9a1: delta = (t1-1)(t2-1)(2t2^2-3t2+2); the one-variable
        # factor blocks the plain norm test but not the weak one
        bounds = fixture_bounds("L9a1")
        u_bound, _, u_verdict = bounds["unlinking"]
        w_bound, w_reasons, w_verdict = bounds["weakSplitting"]
        assert u_bound == 2 and not u_verdict.is_norm
        assert w_bound == 1 and w_verdict.is_norm
        assert w_reasons == [RULE_RANK]

    def test_multivariable_blocking_factor_still_fires(self):
        a = AlexanderData(m=3, beta=0, delta=P("t2*t3-1", 3), delta_tor=None)
        bound, reasons, verdict = delta_bounds(
            a, unknotted(3))["weakSplitting"]
        assert bound == 3
        assert RULE_WSP_NORM in reasons


class TestGordianRankBound:
    def test_borromean_vs_unlink(self):
        assert gordian_rank_bound(alex("L6a4"), alex("unlink3")) == 2

    def test_symmetric(self):
        a, b = alex("hopf"), alex("unlink2")
        assert gordian_rank_bound(a, b) == gordian_rank_bound(b, a) == 1

    def test_component_mismatch(self):
        with pytest.raises(ValueError):
            gordian_rank_bound(alex("hopf"), alex("unlink3"))


class TestGordianExtremalDivisibility:
    def test_compatible_negligible_quotient(self):
        v = gordian_extremal_divisibility(alex("whitehead"), alex("hopf"))
        assert v.compatible
        assert al.unit_equal(v.quotient, P("(t1-1)*(t2-1)", 2))

    def test_incompatible_odd_symmetric_quotient(self):
        # tref(t1) * tref(t2) is not f * conj(f) * negligible
        v = gordian_extremal_divisibility(alex("trefoil_trefoil"),
                                          alex("unlink2"))
        assert not v.compatible
        assert not v.norm_verdict.is_norm

    def test_incompatible_non_divisible(self):
        v = gordian_extremal_divisibility(alex("unlink2"),
                                          alex("trefoil_trefoil"))
        assert not v.compatible
        assert v.quotient is None

    def test_component_mismatch(self):
        with pytest.raises(ValueError):
            gordian_extremal_divisibility(alex("hopf"), alex("unlink3"))


class TestSplittingSequenceKnotConstraint:
    def test_equal_products_pass(self):
        p = embed_univariate(P(TREF, 1), 0, 2)
        assert splitting_sequence_knot_constraint(p, p).is_norm

    def test_unpaired_factor_certifies_impossible(self):
        p = embed_univariate(P(TREF, 1), 0, 2)
        v = splitting_sequence_knot_constraint(p, LaurentPoly.one(2))
        assert not v.is_norm

    def test_norm_ratio_passes(self):
        p = embed_univariate(P(TREF, 1), 0, 2)
        q = p * P("t1*t2+3", 2) * P("t1*t2+3", 2).involute()
        assert splitting_sequence_knot_constraint(p, q).is_norm


class TestForcedKnotComplexity:
    def test_odd_factor_forces_a_knot(self):
        # L9a54: t3^2 - t3 + 1 appears once in the third variable, so a
        # shortest splitting sequence leaves a knot with at least three
        # crossings on that component
        a = alex("L9a54")
        fc = forced_knot_complexity(a.delta, P(TREF, 1), var_index=2)
        assert fc.multiplicity == 1
        assert fc.min_alexander_degree == 2
        assert fc.min_crossings == 3

    def test_even_multiplicity_forces_nothing(self):
        squared = embed_univariate(P(TREF, 1), 0, 2) ** 2
        with pytest.raises(ValueError):
            forced_knot_complexity(squared, P(TREF, 1), var_index=0)


class TestBandClasping:
    def test_published_two_bridge_shape(self):
        p = P("(1-t1+t1^2)*(1-t2+t2^2)*(t1^-1-1+t2)*(t1-1+t2^-1)", 2)
        v = band_clasping_check(p, P(TREF, 1), P(TREF, 1))
        assert v.compatible and not v.trivial_clasping
        expected = P("t1-1+t2^-1", 2)
        assert al.unit_equal(v.g, expected) \
            or al.unit_equal(v.g, expected.involute())
        recombined = v.g * v.g.involute() \
            * embed_univariate(P(TREF, 1), 0, 2) \
            * embed_univariate(P(TREF, 1), 1, 2)
        assert al.unit_equal(recombined, p)

    def test_trivial_clasping(self):
        p = embed_univariate(P(TREF, 1), 0, 2) \
            * embed_univariate(P(TREF, 1), 1, 2)
        v = band_clasping_check(p, P(TREF, 1), P(TREF, 1))
        assert v.compatible and v.trivial_clasping

    def test_negligible_slack_not_allowed(self):
        # unlike the splitting tests, a leftover (t1-1)(t2-1) must pair
        # off exactly and cannot be absorbed as negligible
        p = embed_univariate(P(TREF, 1), 0, 2) * P("(t1-1)*(t2-1)", 2)
        v = band_clasping_check(p, LaurentPoly.one(1), P(TREF, 1))
        assert not v.compatible
        assert v.blocking_factors

    def test_non_divisible_products(self):
        v = band_clasping_check(P("t1*t2-1", 2), P(TREF, 1), P(TREF, 1))
        assert not v.compatible

    def test_zero_and_bad_arity(self):
        assert not band_clasping_check(LaurentPoly.zero(2),
                                       P(TREF, 1), P(TREF, 1)).compatible
        with pytest.raises(ValueError):
            band_clasping_check(P("t1*t2*t3", 3), P(TREF, 1), P(TREF, 1))


class TestBuildReport:
    def test_bounds_table(self):
        expect = {
            "hopf": (1, 1, 1),
            "whitehead": (1, 2, 1),
            "L6a4": (2, 2, 2),
            "L9a1": (2, 2, 1),
            "L9a54": (3, 4, 2),
            "unlink3": (0, 0, 0),
        }
        for name, (u, sp, wsp) in expect.items():
            r = build_report(load_fixture(name))
            assert r.bounds["unlinking"][0] == u, name
            assert r.bounds["splitting"][0] == sp, name
            assert r.bounds["weakSplitting"][0] == wsp, name

    def test_whitehead_parity_reason(self):
        r = build_report(load_fixture("whitehead"))
        assert RULE_PARITY in r.bounds["splitting"][1]
        assert r.parity_constraint == 0

    def test_open_problems_marked_inconclusive(self):
        for name in ("L9a30", "L9a15", "L9a17", "L9a2", "L9a10"):
            r = build_report(load_fixture(name))
            assert r.inconclusive == ["unlinking"], name

    def test_annotations_ride_along(self):
        r = build_report(load_fixture("L9a54"))
        assert r.annotations.get("note_u") == "3"

    def test_bounds_do_not_exceed_annotated_values(self, corpus):
        """Soundness: no lower bound may beat a recorded true value."""
        key_of = {"note_u": "unlinking", "note_sp": "splitting",
                  "note_wsp": "weakSplitting"}
        checked = 0
        for d in corpus:
            notes = d.notes
            # L12n1320's note_sp 3 is the table link's published value;
            # the fixture's polynomial forces linking number 0, so its
            # bound is the even 2, and 3 still serves as an upper bound
            for key, quantity in key_of.items():
                if key in notes:
                    r = build_report(d)
                    assert r.bounds[quantity][0] <= int(notes[key]), \
                        (d.name, quantity)
                    checked += 1
        assert checked >= 8

    def test_rank_reason_always_first(self, corpus):
        for d in corpus:
            r = build_report(d)
            for q, (bound, reasons) in r.bounds.items():
                assert reasons[0] == RULE_RANK, (d.name, q)


# ---------------------------------------------------------------------------
# the three-call route, kept as the reference for delta_bounds

def _three_call_bound(a, m, rule, test):
    bound = m - 1 - a.beta
    reasons = [RULE_RANK]
    verdict = None
    if not a.delta.is_zero():
        verdict = test(a.delta)
        if not verdict.is_norm and bound <= m - 1:
            bound = m
            reasons.append(rule)
    return bound, reasons, verdict


def _three_call_splitting_verdict(delta, component_polys, m):
    """Divide delta by the product of the component polynomials, then
    factor the quotient again."""
    prod = LaurentPoly.one(m)
    for i, p in enumerate(component_polys):
        prod = prod * embed_univariate(p, i, m)
    try:
        quotient = divide_exact(delta, prod)
    except NotDivisible:
        return NormVerdict(is_norm=False, blocking_factors=(prod,))
    return is_norm_up_to_negligible(quotient)


def three_call_bounds(a, component_polys, m):
    """{quantity: (bound, reasons, verdict)}, each norm test factoring on
    its own; the splitting entry is before the parity step."""
    return {
        "unlinking": _three_call_bound(a, m, RULE_UNLINK_NORM,
                                       is_norm_up_to_negligible),
        "splitting": _three_call_bound(
            a, m, RULE_SPLIT_NORM,
            lambda p: _three_call_splitting_verdict(p, component_polys, m)),
        "weakSplitting": _three_call_bound(
            a, m, RULE_WSP_NORM,
            lambda p: norm_verdict(factor_irreducible(p),
                                   skip_univariate=True)),
    }


def _beta_zero_braid_closures():
    return [d for d in random_braid_closures(seeded(31), 120)
            if al.alexander_data(d).beta == 0]


class TestOneFactorizationMatchesThreeCalls:
    @staticmethod
    def _check(d):
        """Compare delta_bounds and build_report with the three-call route.

        Returns (a component is knotted, so the quotient differs from
        delta; the product of the component polynomials does not divide
        delta), both False when delta = 0.
        """
        r = build_report(d)
        alex = al.alexander_data(d)
        comps = component_polynomials(d)
        ref = three_call_bounds(alex, comps, d.ncomps)
        assert delta_bounds(alex, comps) == ref, d.name
        sp_bound, sp_reasons, _ = ref["splitting"]
        sp_refined = parity_refine(sp_bound, d.total_linking_number())
        if sp_refined != sp_bound:
            sp_reasons = sp_reasons + [RULE_PARITY]
        ref["splitting"] = (sp_refined, sp_reasons, ref["splitting"][2])
        for q, (bound, reasons, verdict) in ref.items():
            assert r.bounds[q] == (bound, reasons), (d.name, q)
            assert r.norm_verdicts[q] == verdict, (d.name, q)
        if alex.delta.is_zero():
            return False, False
        prod = LaurentPoly.one(d.ncomps)
        for i, p in enumerate(comps):
            prod = prod * embed_univariate(p, i, d.ncomps)
        knotted = any(not p.is_unit() for p in comps)
        return knotted, not al.divides(prod, alex.delta)

    def test_corpus(self, corpus):
        for d in corpus:
            self._check(d)

    def test_seeded_braid_closures(self):
        seen = [(d.ncomps, *self._check(d))
                for d in _beta_zero_braid_closures()]
        assert sum(m >= 2 for m, _, _ in seen) >= 30
        # links with knotted components, where the quotient differs from
        # delta; some of their products do not divide delta at all
        assert sum(m >= 2 and knotted for m, knotted, _ in seen) >= 10
        assert any(m >= 2 and not_divisible for m, _, not_divisible in seen)

    def test_hand_built_cases(self):
        tref = P(TREF, 1)
        cases = [
            # quotient is (t1-1)(t2-1), negligible
            (P(f"({TREF.replace('t', 't1')})*(t1-1)*(t2-1)", 2),
             [tref, LaurentPoly.one(1)]),
            # the product does not divide delta
            (P("(t1-1)*(t2-1)", 2), [tref, LaurentPoly.one(1)]),
            # the trefoil factor is in t1 but the knotted component is 2
            (P(f"({TREF.replace('t', 't1')})*(t1*t2-1)", 2),
             [LaurentPoly.one(1), tref]),
            # delta has the class once, the product needs it twice
            (P(f"({TREF.replace('t', 't1')})*(t2*t1^-1-1)", 2),
             [tref ** 2, LaurentPoly.one(1)]),
            # the same component polynomial twice, quotient a norm
            (P(f"({TREF.replace('t', 't1')})*({TREF.replace('t', 't2')})"
               "*(t1*t2+2)*(t1^-1*t2^-1+2)", 2), [tref, tref]),
            # a knot: delta over its own polynomial is a unit
            (tref * P("-t^3", 1), [tref]),
            # the component cancels 2t1-1 but not its conjugate class t1-2,
            # which must be the blocking factor
            (P("(2*t1-1)*(t1-2)^2*(t1*t2-1)", 2),
             [P("2*t^2-5*t+2", 1), LaurentPoly.one(1)]),
            # integer content must divide as well
            (P("2*(t1-1)", 2), [P("3", 1), LaurentPoly.one(1)]),
        ]
        for delta, comps in cases:
            m = delta.nvars
            a = AlexanderData(m=m, beta=0, delta=delta, delta_tor=delta)
            assert delta_bounds(a, comps) == three_call_bounds(a, comps, m), \
                al.format_poly(delta)

    def test_one_factor_call_per_distinct_polynomial(self, corpus,
                                                     factor_calls):
        for d in corpus + _beta_zero_braid_closures()[:20]:
            alex = al.alexander_data(d)
            comps = component_polynomials(d)
            factor_calls.clear()
            build_report(d)
            inputs = [unit_normal_form(p) for p in factor_calls]
            assert len(inputs) == len(set(inputs)), d.name
            if alex.delta.is_zero():
                assert not factor_calls, d.name
            else:
                assert alex.delta in factor_calls, d.name
                assert len(inputs) <= 1 + len(
                    {unit_normal_form(p) for p in comps if not p.is_unit()})
