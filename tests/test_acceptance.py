"""Acceptance checklist: one pass/fail line per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s``)
and then asserts, so a failing criterion fails loudly instead of being
papered over.  Where a published value cannot hold for its own input,
the test checks the published rule on a value that can, and asserts the
reason the published value is out of reach: L8a16's polynomial has
determinant 0, which no non-split alternating link has, and
L12n1320's polynomial forces linking number 0, so parity cannot lift
its splitting bound to 3.
"""

import pytest

import alexlink as al
from alexlink.invariants import AlexanderData, one_variable_alexander
from alexlink.laurent import LaurentPoly, embed_univariate
from alexlink.obstructions import (RULE_PARITY, RULE_SPLIT_NORM,
                                   RULE_UNLINK_NORM, RULE_WSP_NORM,
                                   band_clasping_check, build_report,
                                   delta_bounds, parity_refine)
from alexlink.search import bounded_split_search, certify_gap

from conftest import FIXTURE_DIR, evaluate, load_fixture


def P(text, nvars):
    return al.parse_poly(text, nvars)


def check(label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"{label}{tail}"


def bounds_of(name):
    r = build_report(load_fixture(name))
    return r, {q: v[0] for q, v in r.bounds.items()}


# ---------------------------------------------------------------------------
# criterion 1: published-value reproduction


L8A16_TARGET = "(t1-1)*(t2-1)*(t3-1)*(t2*t3-1)"
L8A16_ANALYSIS = ("(t-1)*delta(t,t,t) vanishes at t = -1, so the published "
                  "polynomial has determinant 0, but a non-split "
                  "alternating link has determinant >= 1, so no L8a16 "
                  "diagram realizes it; the bounds are checked on the "
                  "polynomial itself")
L12N1320_TARGET = "(t1-1)*(t2-1)*(t1^2*t2^2-t1*t2^2+3*t1*t2-t1+1)"


def determinant(delta):
    """|Delta_L(-1)| for Delta_L(t) = (t-1) * delta(t,..,t) (Torres)."""
    one_var = delta.eval_diagonal() * P("t-1", 1)
    return abs(sum(c * (-1) ** e for (e,), c in one_var.terms.items()))


class TestCriterion1PaperValues:
    def test_l8a16_delta_and_bounds(self):
        target = P(L8A16_TARGET, 3)
        a = AlexanderData(m=3, beta=0, delta=target, delta_tor=target)
        # unknotted components; only the splitting bound, not checked
        # here, depends on them
        bounds = delta_bounds(a, [LaurentPoly.one(1)] * 3)
        u, u_reasons, _ = bounds["unlinking"]
        wsp, wsp_reasons, _ = bounds["weakSplitting"]
        # the factor t2*t3 - 1 uses two variables and occurs once, so
        # neither norm test can pair it off
        ok = (u == 3 and RULE_UNLINK_NORM in u_reasons
              and wsp == 3 and RULE_WSP_NORM in wsp_reasons)
        # why no diagram is loaded: delta(t,t,t) = (t-1)^4 (t+1), so the
        # determinant vanishes; the alternating fixture L9a54 is the
        # control that the determinant is read off correctly
        ok = ok and al.unit_equal(target.eval_diagonal(),
                                  P("(t-1)^4*(t+1)", 1))
        ok = ok and determinant(target) == 0
        ok = ok and determinant(
            al.alexander_data(load_fixture("L9a54")).delta) > 0
        check("1: L8a16 polynomial gives unlinking/weak-splitting bounds = 3",
              ok, L8A16_ANALYSIS)

    def test_l9a54(self):
        r, b = bounds_of("L9a54")
        ok = (al.unit_equal(r.delta,
                            P("(t3-1)*(t2-1)*(t1-1)*(t3^2-t3+1)", 3))
              and b["unlinking"] == 3)
        check("1: L9a54 delta and unlinking bound = 3", ok)

    def test_l9a1(self):
        r, b = bounds_of("L9a1")
        ok = (al.unit_equal(r.delta, P("(t2-1)*(t1-1)*(2t2^2-3t2+2)", 2))
              and b["unlinking"] == 2)
        check("1: L9a1 delta and unlinking bound = 2", ok)

    def test_l12n1320_delta_and_factorization(self):
        r, _ = bounds_of("L12n1320")
        ok = al.unit_equal(r.delta, P(L12N1320_TARGET, 2))
        mults = sorted(m for q, m in al.factor_irreducible(r.delta).factors)
        ok = ok and mults == [1, 1, 1]
        check("1: L12n1320 delta matches the published 12-term polynomial "
              "and its 3-factor factorization", ok)

    def test_l12n1320_splitting_bound_three(self):
        # By Torres, delta(t1, 1) = (t1^lk - 1)/(t1 - 1) * delta_K1(t1);
        # the published polynomial vanishes at t2 = 1, so lk = 0 and the
        # splitting number is even: parity leaves the norm rule's bound 2
        # as it is, and the published 3 cannot hold with this polynomial
        published = P(L12N1320_TARGET, 2)
        d = load_fixture("L12n1320")
        r = build_report(d)
        bound, reasons = r.bounds["splitting"]
        ok = (al.unit_equal(r.delta, published)
              and evaluate(published, [(1, 0), (0, 0)], 2).is_zero()
              and d.total_linking_number() == 0
              and bound == 2 and RULE_SPLIT_NORM in reasons
              and RULE_PARITY not in reasons)
        check("1: L12n1320 splitting bound = 2: norm rule fires, linking "
              "number 0 leaves parity idle", ok,
              f"computed bound {bound}, reasons {reasons}")
        # the norm rule plus parity reaching 3 end to end, on L9a10 (lk = 1)
        d = load_fixture("L9a10")
        bound, reasons = build_report(d).bounds["splitting"]
        check("1: L9a10 splitting bound = 3 via norm rule + parity",
              d.total_linking_number() % 2 == 1 and bound == 3
              and RULE_SPLIT_NORM in reasons and RULE_PARITY in reasons,
              f"computed bound {bound}, reasons {reasons}")

    def test_parity_rule_on_published_numbers(self):
        # the published argument: bound 2 with odd total linking number
        check("1: parity refinement lifts bound 2 with odd linking sum to 3",
              parity_refine(2, 1) == 3)

    def test_l12n1320_weak_splitting_excludes_one(self):
        _, b = bounds_of("L12n1320")
        check("1: L12n1320 weak splitting bound excludes 1",
              b["weakSplitting"] >= 2)

    def test_unlinking_two_family(self):
        ok = True
        for name in ("L6a4", "L9a46", "L9a53"):
            r, b = bounds_of(name)
            ok = ok and not r.delta.is_zero() and b["unlinking"] == 2
        check("1: L6a4, L9a46, L9a53 have delta != 0 and unlinking bound 2",
              ok)

    def test_band_clasping_polynomial(self):
        p = P("(1-t1+t1^2)*(1-t2+t2^2)*(t1^-1-1+t2)*(t1-1+t2^-1)", 2)
        tref = P("t^2-t+1", 1)
        v = band_clasping_check(p, tref, tref)
        g_target = P("t1-1+t2^-1", 2)
        ok = v.compatible and (al.unit_equal(v.g, g_target)
                               or al.unit_equal(v.g, g_target.involute()))
        check("1: band-clasping check extracts g = s-1+t^-1 with trefoil "
              "inputs", ok)


# ---------------------------------------------------------------------------
# criterion 2: structural results at desk scale


class TestCriterion2Structure:
    def test_unlinks(self):
        ok = True
        for m in (2, 3, 4):
            r, b = bounds_of(f"unlink{m}")
            ok = ok and r.beta == m - 1 and r.delta_tor.is_one() \
                and set(b.values()) == {0}
        check("2: unlink fixtures have beta = m-1, torsion order 1, "
              "all bounds 0", ok)

    def test_split_unions(self):
        tref = P("t^2-t+1", 1)
        ok = True
        a = al.alexander_data(load_fixture("trefoil_trefoil"))
        ok = ok and a.beta == 1 and al.unit_equal(
            a.delta_tor,
            embed_univariate(tref, 0, 2) * embed_univariate(tref, 1, 2))
        a = al.alexander_data(load_fixture("trefoil_unknot"))
        ok = ok and a.beta == 1 and al.unit_equal(
            a.delta_tor, embed_univariate(tref, 0, 2))
        check("2: split unions have beta = m-1 and torsion order "
              "the product of component polynomials", ok)

    def test_kawauchi_relation(self, corpus):
        from alexlink.invariants import CONWAY_CROSSING_BUDGET
        ok, n = True, 0
        for d in corpus:
            if d.ncomps < 2 or d.ncrossings > CONWAY_CROSSING_BUDGET:
                continue
            a = al.alexander_data(d)
            diag = a.delta.eval_diagonal() * P("t-1", 1)
            ok = ok and al.unit_equal(diag, one_variable_alexander(d))
            n += 1
        check("2: diagonal relation delta(t,..,t)*(t-1) matches the "
              f"one-variable polynomial on {n} corpus links", ok and n >= 10)


# ---------------------------------------------------------------------------
# criterion 3: property suites (delegated; asserted green here)


class TestCriterion3Properties:
    def test_property_suites_present_and_green(self):
        # the randomized and corpus-wide property suites live in
        # test_laurent.py, test_factor.py, test_diagram.py and
        # test_invariants.py; spot-check the corpus-wide pieces here
        import subprocess, sys
        r = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "tests/test_laurent.py", "tests/test_factor.py",
             "tests/test_diagram.py", "tests/test_invariants.py"],
            capture_output=True, text=True, cwd=str(FIXTURE_DIR.parents[2]))
        check("3: randomized and corpus property suites all pass",
              r.returncode == 0, r.stdout.strip().splitlines()[-1]
              if r.stdout.strip() else "no output")


# ---------------------------------------------------------------------------
# criterion 4: end-to-end consistency of search and obstructions


class TestCriterion4EndToEnd:
    def test_search_never_beats_lower_bounds(self, corpus):
        from alexlink.search import SEARCH_CROSSING_BUDGET
        ok, n = True, 0
        for d in corpus:
            if d.ncrossings > SEARCH_CROSSING_BUDGET:
                continue
            report = build_report(d)
            for mode in ("inter", "any"):
                result = bounded_split_search(d, 2, mode=mode)
                try:
                    certify_gap(report, result)  # raises if upper < lower
                except AssertionError:
                    ok = False
                n += 1
        check("4: search upper bounds never fall below obstruction lower "
              f"bounds ({n} link/mode runs)", ok)

    def test_hopf_sandwich(self):
        d = load_fixture("hopf")
        gap = certify_gap(build_report(d),
                          bounded_split_search(d, 1, mode="inter"))
        check("4: Hopf link splitting number sandwiched to [1,1]",
              gap.intervals["splitting"] == (1, 1)
              and gap.exact["splitting"])


# ---------------------------------------------------------------------------
# criterion 5: external values acknowledged, open problems inconclusive


class TestCriterion5Honesty:
    def test_open_links_inconclusive(self):
        names = ("L9a30", "L9a15", "L9a17", "L9a2", "L9a10")
        ok = all(build_report(load_fixture(n)).inconclusive == ["unlinking"]
                 for n in names)
        check("5: the five open-problem fixtures are reported inconclusive, "
              "never guessed", ok)

    def test_external_annotations_not_reproduced_but_sound(self, corpus):
        key_of = {"note_u": "unlinking", "note_sp": "splitting",
                  "note_wsp": "weakSplitting"}
        ok, n = True, 0
        for d in corpus:
            notes = d.notes
            for key, q in key_of.items():
                if key in notes:
                    r = build_report(d)
                    ok = ok and r.bounds[q][0] <= int(notes[key])
                    n += 1
        check("5: externally annotated values are carried as annotations "
              f"and never exceeded by computed bounds ({n} checks)",
              ok and n >= 8)
