"""Alexander data, Conway polynomials and their consistency relations."""

import random

import pytest

import alexlink as al
from alexlink.invariants import (conway_polynomial, embed_univariate,
                                 matrix_rank, minor_gcd,
                                 one_variable_alexander, reduce_unit_pivots)
from alexlink.laurent import LaurentPoly, unit_normal_form

from conftest import corpus_diagrams, load_fixture


def P(text, nvars):
    return al.parse_poly(text, nvars)


def matrix_rank_numeric(rows, nvars, trials=3, seed=0):
    """Randomized-evaluation rank modulo a large prime.

    Evaluates the variables at random units mod p and takes the maximal
    integer-matrix rank over several trials.  Never exceeds the true
    rank; used as a fast cross-check against matrix_rank.
    """
    if not rows:
        return 0
    p = (1 << 61) - 1
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        vals = [rng.randrange(2, p - 1) for _ in range(nvars)]
        inv = [pow(v, p - 2, p) for v in vals]

        def ev(poly):
            total = 0
            for exps, c in poly.terms.items():
                t = c % p
                for i, e in enumerate(exps):
                    base = vals[i] if e > 0 else inv[i]
                    t = t * pow(base, abs(e), p) % p
                total = (total + t) % p
            return total

        m = [[ev(x) for x in row] for row in rows]
        nr, nc = len(m), len(m[0])
        rank = 0
        for col in range(nc):
            piv = next((r for r in range(rank, nr) if m[r][col] % p), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            pinv = pow(m[rank][col], p - 2, p)
            for r in range(rank + 1, nr):
                f = m[r][col] * pinv % p
                if f:
                    for c in range(col, nc):
                        m[r][c] = (m[r][c] - f * m[rank][c]) % p
            rank += 1
        best = max(best, rank)
    return best


def deleted_column_minor_gcd(d, col):
    """The raw deleted-column minor gcd A_col of the full Jacobian.

    Satisfies A_i * (t_j - 1) = A_j * (t_i - 1) up to units for any two
    columns i, j.
    """
    rows, arc_component = al.fox_jacobian(d)
    kept = [[x for c, x in enumerate(row) if c != col] for row in rows]
    a = minor_gcd(kept, len(arc_component) - 1, d.ncomps)
    return a if a.is_zero() else unit_normal_form(a)


def unreduced_alexander_data(d):
    """(beta, delta, delta_tor) from the full Jacobian, with no pivots.

    Rank and rank-r minor gcd of the whole matrix; for beta = 0, the
    minor gcd without column 0 divided by t_j - 1 of that column's
    component (m >= 2).
    """
    rows, arc_component = al.fox_jacobian(d)
    m = d.ncomps
    r = matrix_rank(rows)
    beta = (len(arc_component) - r - 1) + d.nfree
    if beta > 0:
        return beta, LaurentPoly.zero(m), minor_gcd(rows, r, m)
    delta = deleted_column_minor_gcd(d, 0)
    if m > 1:
        tj = LaurentPoly.var(m, arc_component[0]) - LaurentPoly.one(m)
        delta = al.divide_exact(delta, tj)
    return 0, delta, delta


class TestRank:
    def test_exact_vs_numeric_corpus(self):
        for d in corpus_diagrams():
            if d.ncrossings == 0:
                continue
            rows, _ = al.fox_jacobian(d)
            assert matrix_rank(rows) == matrix_rank_numeric(rows, d.ncomps), \
                d.name

    def test_zero_matrix(self):
        z = LaurentPoly.zero(1)
        assert matrix_rank([[z, z], [z, z]]) == 0

    def test_full_rank(self):
        one = LaurentPoly.one(1)
        t = LaurentPoly.var(1, 0)
        z = LaurentPoly.zero(1)
        assert matrix_rank([[one, t], [z, t - one]]) == 2


class TestUnitPivotReduction:
    def test_matches_unreduced_route_on_corpus(self, corpus):
        for d in corpus:
            if d.ncrossings == 0:
                continue
            a = al.alexander_data(d)
            beta, delta, delta_tor = unreduced_alexander_data(d)
            assert a.beta == beta, d.name
            assert al.unit_equal(a.delta, delta), d.name
            assert al.unit_equal(a.delta_tor, delta_tor), d.name

    def test_reduced_sizes_add_up_on_corpus(self, corpus):
        for d in corpus:
            if d.ncrossings == 0:
                continue
            rows, _ = al.fox_jacobian(d)
            reduced, k = reduce_unit_pivots(rows)
            assert len(reduced) == len(rows) - k, d.name
            assert all(len(row) == len(rows[0]) - k for row in reduced)
            assert k + matrix_rank(reduced) == matrix_rank(rows), d.name

    def test_no_unit_entry_comes_back_unchanged(self):
        rows = [[P("1+t", 1), P("2", 1), P("0", 1)],
                [P("t^2-1", 1), P("0", 1), P("3*t^-1", 1)]]
        assert reduce_unit_pivots(rows) == (rows, 0)

    def test_markowitz_order(self):
        # The 1 at (0,0) costs (3-1)*(3-1) = 4 and the t at (1,1) costs
        # (2-1)*(3-1) = 2, so t is taken although it comes later.  The
        # fill leaves no unit, so the reduction stops after one pivot.
        rows = [[P("1", 1), P("2", 1), P("3", 1)],
                [P("2", 1), P("t", 1), P("0", 1)],
                [P("3", 1), P("5", 1), P("7", 1)]]
        reduced, k = reduce_unit_pivots(rows)
        assert k == 1
        assert reduced == [[P("1-4*t^-1", 1), P("3", 1)],
                           [P("3-10*t^-1", 1), P("7", 1)]]
        assert al.unit_equal(minor_gcd(rows, 3, 1), minor_gcd(reduced, 2, 1))

    def test_markowitz_ties_go_to_lower_row_then_column(self):
        one, two, three, t = (P(x, 1) for x in ("1", "2", "3", "t"))
        assert reduce_unit_pivots([[one, two], [t, three]]) == \
            ([[P("3-2*t", 1)]], 1)
        assert reduce_unit_pivots([[one, t], [two, three]]) == \
            ([[P("3-2*t", 1)]], 1)

    def test_empty_reduced_matrix(self):
        one, t = P("1", 1), P("t", 1)
        assert reduce_unit_pivots([[one, t]]) == ([], 1)
        assert reduce_unit_pivots([[one], [-t]]) == ([[]], 1)
        for empty in ([], [[]]):
            assert matrix_rank(empty) == 0
            assert minor_gcd(empty, 0, 2).is_one()
            assert minor_gcd(empty, 1, 2).is_zero()

    def test_hopf_has_no_unit_pivot(self):
        """Each Hopf component passes under once, so at each crossing the
        incoming and outgoing under-arcs coincide and the -1 merges into
        t - 1: no entry is a unit and the 2 x 2 Jacobian stays whole."""
        d = load_fixture("hopf")
        rows, _ = al.fox_jacobian(d)
        assert reduce_unit_pivots(rows) == (rows, 0)
        assert al.alexander_data(d).delta.is_one()


class TestKnownValues:
    def test_trefoil(self):
        a = al.alexander_data(load_fixture("trefoil"))
        assert a.beta == 0
        assert al.unit_equal(a.delta, P("t^2-t+1", 1))
        assert al.unit_equal(a.delta_tor, a.delta)

    def test_hopf(self):
        a = al.alexander_data(load_fixture("hopf"))
        assert a.beta == 0
        assert al.unit_equal(a.delta, P("1", 2))

    def test_whitehead(self):
        a = al.alexander_data(load_fixture("whitehead"))
        assert al.unit_equal(a.delta, P("(t1-1)*(t2-1)", 2))

    def test_unlinks(self):
        for m in (2, 3, 4):
            a = al.alexander_data(load_fixture(f"unlink{m}"))
            assert a.m == m
            assert a.beta == m - 1
            assert a.delta.is_zero()
            assert a.delta_tor.is_one()

    def test_split_unions(self):
        tref = P("t^2-t+1", 1)
        a = al.alexander_data(load_fixture("trefoil_trefoil"))
        assert a.beta == 1 and a.delta.is_zero()
        expected = embed_univariate(tref, 0, 2) * embed_univariate(tref, 1, 2)
        assert al.unit_equal(a.delta_tor, expected)
        a = al.alexander_data(load_fixture("trefoil_unknot"))
        assert a.beta == 1 and a.delta.is_zero()
        assert al.unit_equal(a.delta_tor, embed_univariate(tref, 0, 2))


class TestCorpusProperties:
    def test_beta_at_most_m_minus_one(self, corpus):
        for d in corpus:
            a = al.alexander_data(d)
            assert 0 <= a.beta <= d.ncomps - 1 or d.ncomps == 1 and a.beta == 0

    def test_delta_symmetry(self, corpus):
        for d in corpus:
            a = al.alexander_data(d)
            if not a.delta.is_zero():
                assert al.unit_equal(a.delta, a.delta.involute()), d.name
            assert al.unit_equal(a.delta_tor, a.delta_tor.involute()), d.name

    def test_delta_tor_never_zero(self, corpus):
        for d in corpus:
            assert not al.alexander_data(d).delta_tor.is_zero()

    def test_beta_zero_means_delta_equals_tor(self, corpus):
        for d in corpus:
            a = al.alexander_data(d)
            if a.beta == 0:
                assert al.unit_equal(a.delta, a.delta_tor)
            else:
                assert a.delta.is_zero()

    def test_deleted_column_consistency(self, corpus):
        """A_i * (t_j - 1) ≐ A_j * (t_i - 1) over the generator columns."""
        for d in corpus:
            if d.ncrossings == 0 or d.ncrossings > 9:
                continue
            rows, arc_comp = al.fox_jacobian(d)
            m = d.ncomps
            cols = list(range(len(arc_comp)))
            pick = [cols[0], cols[len(cols) // 2], cols[-1]]
            minors = {c: deleted_column_minor_gcd(d, c) for c in set(pick)}
            for i in minors:
                for j in minors:
                    ti = LaurentPoly.var(m, arc_comp[i]) - LaurentPoly.one(m)
                    tj = LaurentPoly.var(m, arc_comp[j]) - LaurentPoly.one(m)
                    assert al.unit_equal(minors[i] * tj, minors[j] * ti), d.name


class TestDiagramInvariance:
    @pytest.mark.parametrize("pair", [("hopf", "hopf_big"),
                                      ("trefoil", "trefoil_big")])
    def test_same_link_same_invariants(self, pair):
        a = al.alexander_data(load_fixture(pair[0]))
        b = al.alexander_data(load_fixture(pair[1]))
        assert a.beta == b.beta
        assert al.unit_equal(a.delta, b.delta)
        assert al.unit_equal(a.delta_tor, b.delta_tor)


class TestConway:
    def test_unknot(self):
        d = al.parse_pd("", nfree=1)
        assert conway_polynomial(d) == {0: 1}

    def test_hopf(self):
        assert conway_polynomial(load_fixture("hopf")) == {1: 1}

    def test_trefoil(self):
        assert conway_polynomial(load_fixture("trefoil")) == {2: 1, 0: 1}

    def test_whitehead(self):
        assert conway_polynomial(load_fixture("whitehead")) == {3: -1}

    def test_split_vanishes(self):
        assert conway_polynomial(load_fixture("trefoil_trefoil")) == {}
        assert conway_polynomial(load_fixture("unlink2")) == {}

    def test_budget(self):
        from alexlink.invariants import ConwayBudgetExceeded
        # split union of six trefoils: 18 crossings, over the budget
        tref = [(4, 2, 5, 1), (2, 6, 3, 5), (6, 4, 1, 3)]
        text = ", ".join("X[%d,%d,%d,%d]" % tuple(6 * k + x for x in c)
                         for k in range(6) for c in tref)
        with pytest.raises(ConwayBudgetExceeded):
            conway_polynomial(al.parse_pd(text))


class TestSatoLevine:
    def test_whitehead(self):
        assert al.sato_levine(load_fixture("whitehead")) == 1

    def test_requires_lk_zero(self):
        from alexlink.diagram import PDError
        with pytest.raises(PDError):
            al.sato_levine(load_fixture("hopf"))

    def test_requires_two_components(self):
        from alexlink.diagram import PDError
        with pytest.raises(PDError):
            al.sato_levine(load_fixture("trefoil"))


class TestOneVariable:
    def test_trefoil(self):
        p = one_variable_alexander(load_fixture("trefoil"))
        assert al.unit_equal(p, P("t^2-t+1", 1))

    def test_kawauchi_relation_corpus(self, corpus):
        """Delta(t,...,t)*(t-1) ≐ one-variable Delta for multi-component."""
        from alexlink.invariants import CONWAY_CROSSING_BUDGET
        for d in corpus:
            if d.ncomps < 2 or d.ncrossings > CONWAY_CROSSING_BUDGET:
                continue
            a = al.alexander_data(d)
            diag = a.delta.eval_diagonal() * P("t-1", 1)
            single = one_variable_alexander(d)
            assert al.unit_equal(diag, single), d.name


class TestComponentPolynomials:
    def test_trefoil_union(self):
        polys = al.component_polynomials(load_fixture("trefoil_trefoil"))
        assert len(polys) == 2
        for p in polys:
            assert al.unit_equal(p, P("t^2-t+1", 1))

    def test_unknotted_components(self):
        for name in ("hopf", "whitehead", "L6a4", "L9a54"):
            for p in al.component_polynomials(load_fixture(name)):
                assert p.is_one() or al.unit_equal(p, P("1", 1)), name
