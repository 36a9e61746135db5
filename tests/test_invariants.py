"""Alexander data, Conway polynomials and their consistency relations."""

import copy
import json
import random
import re
from functools import reduce
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alexlink as al
from alexlink import factor
from alexlink import invariants
from alexlink.diagram import PDError, serialize_pd
from alexlink.invariants import (CONWAY_CROSSING_BUDGET, AlexanderData,
                                 _conway_skein, _determinant,
                                 _linking_cofactor, conway_polynomial,
                                 matrix_rank, one_variable_alexander,
                                 reduce_unit_pivots)
from alexlink.laurent import (EXPONENT_LIMIT, ExponentLimitExceeded,
                              LaurentPoly, ZeroInputError, embed_univariate,
                              unit_normal_form)

from conftest import (braid_closure, braid_closure_pd, corpus_diagrams,
                      load_fixture, random_braid_closures, random_braid_words,
                      seeded, shift, sympy_gcd)
from test_diagram import reference_delete_components


def P(text, nvars):
    return al.parse_poly(text, nvars)


def matrix_rank_numeric(rows, nvars, trials=3, seed=0):
    """Randomized-evaluation rank modulo a large prime.

    Evaluates the variables at random units mod p and takes the maximal
    integer-matrix rank over several trials.  Never exceeds the true
    rank; used as a fast cross-check against the exact rank.
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


def bareiss_rank(rows):
    """Rank over the quotient field, by fraction-free Bareiss elimination.

    The reference for matrix_rank, which reads the rank off minors:
    Bareiss divides exactly by the previous pivot instead.
    """
    if not rows:
        return 0
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    prev_pivot = None
    for col in range(nc):
        pivot_row = None
        for r in range(rank, nr):
            if not m[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                num = m[r][c] * pivot - m[r][col] * m[rank][c]
                m[r][c] = num if prev_pivot is None else \
                    al.divide_exact(num, prev_pivot)
            m[r][col] = LaurentPoly.zero(pivot.nvars)
        prev_pivot = pivot
        rank += 1
        if rank == nr:
            break
    return rank


def minor_gcd(rows, size, nvars):
    """GCD of all size x size minors of a matrix over nvars variables.

    Returns 1 for size 0, whatever the matrix, and the zero polynomial
    when every minor vanishes.  factor.gcd_many draws the minors, each
    computed only when it asks for it through one ``_determinant`` memo,
    as alexander_data draws a block's; here the whole matrix is taken
    at once, so it is the reference for the block route.
    """
    if size == 0:
        return LaurentPoly.one(nvars)
    if size > len(rows) or size > len(rows[0]):
        return LaurentPoly.zero(nvars)
    memo = {}
    try:
        return factor.gcd_many(_determinant(rows, ri, ci, memo)
                               for ri in combinations(range(len(rows)), size)
                               for ci in combinations(range(len(rows[0])),
                                                      size))
    except ZeroInputError:
        return LaurentPoly.zero(nvars)


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
    """AlexanderData from the full Jacobian, with no pivots.

    Rank and rank-r minor gcd of the whole matrix; for beta = 0, the
    minor gcd without column 0 divided by t_j - 1 of that column's
    component (m >= 2).
    """
    rows, arc_component = al.fox_jacobian(d)
    m = d.ncomps
    r = bareiss_rank(rows)
    beta = (len(arc_component) - r - 1) + d.nfree
    if beta > 0:
        return AlexanderData(m=m, beta=beta, delta=LaurentPoly.zero(m),
                             delta_tor=minor_gcd(rows, r, m))
    delta = deleted_column_minor_gcd(d, 0)
    if m > 1:
        tj = LaurentPoly.var(m, arc_component[0]) - LaurentPoly.one(m)
        delta = unit_normal_form(al.divide_exact(delta, tj))
    return AlexanderData(m=m, beta=0, delta=delta, delta_tor=delta)


def minor_gcd_alexander_data(d):
    """AlexanderData by Bareiss and then the gcd of the rank-sized minors.

    The same reduced Jacobian as alexander_data, with minor_gcd on every
    diagram, beta = 0 included.
    """
    rows, arc_component = al.fox_jacobian(d)
    m = d.ncomps
    reduced, k, _ = reduce_unit_pivots(rows)
    rank = bareiss_rank(reduced)
    beta = (len(arc_component) - k - rank - 1) + d.nfree
    delta_tor = minor_gcd(reduced, rank, m)
    delta = delta_tor if beta == 0 else LaurentPoly.zero(m)
    return AlexanderData(m=m, beta=beta, delta=delta, delta_tor=delta_tor)


def reference_minor_gcd(rows, size, nvars):
    """minor_gcd with an accumulation loop of its own.

    Asks sympy's gcd (conftest.sympy_gcd) on every nonzero minor after
    the first until the running gcd is 1; minor_gcd must agree with it
    exactly.
    """
    if size == 0:
        return LaurentPoly.one(nvars)
    if size > len(rows) or size > len(rows[0]):
        return LaurentPoly.zero(nvars)
    memo = {}
    acc = None
    for ri in combinations(range(len(rows)), size):
        for ci in combinations(range(len(rows[0])), size):
            det = _determinant(rows, ri, ci, memo)
            if det.is_zero():
                continue
            acc = unit_normal_form(det) if acc is None else \
                sympy_gcd(acc, det)
            if acc.is_one():
                return acc
    return acc if acc is not None else LaurentPoly.zero(nvars)


def split_trefoils(n):
    """PD text of the split union of n trefoils (3n crossings)."""
    tref = [(4, 2, 5, 1), (2, 6, 3, 5), (6, 4, 1, 3)]
    return ", ".join("X[%d,%d,%d,%d]" % tuple(6 * k + x for x in c)
                     for k in range(n) for c in tref)


def reference_reduce_unit_pivots(rows):
    """reduce_unit_pivots with a dense loop of its own.

    Rescans the whole live matrix for every pivot, with the same
    Markowitz cost and tie-break; the sparse loop must agree exactly.
    """
    m = [list(r) for r in rows]
    live_rows = list(range(len(m)))
    live_cols = list(range(len(m[0]))) if m else []
    k = 0
    while True:
        nonzero = [(r, c) for r in live_rows for c in live_cols
                   if not m[r][c].is_zero()]
        row_nz = dict.fromkeys(live_rows, 0)
        col_nz = dict.fromkeys(live_cols, 0)
        for r, c in nonzero:
            row_nz[r] += 1
            col_nz[c] += 1
        pivots = [((row_nz[r] - 1) * (col_nz[c] - 1), r, c)
                  for r, c in nonzero if m[r][c].is_unit()]
        if not pivots:
            break
        _, p, q = min(pivots)
        (exps, sign), = m[p][q].terms.items()
        inverse = tuple(-e for e in exps)
        pivot_row = {c: shift(m[p][c], inverse, sign) for c in live_cols
                     if c != q and not m[p][c].is_zero()}
        for r in live_rows:
            f = m[r][q]
            if r != p and not f.is_zero():
                for c, x in pivot_row.items():
                    m[r][c] = m[r][c] - f * x
        live_rows.remove(p)
        live_cols.remove(q)
        k += 1
    return [[m[r][c] for c in live_cols] for r in live_rows], k, live_cols


def reduced_jacobian(d):
    """The unit-pivot-reduced Fox Jacobian M' of d and its rank."""
    reduced, _, _ = reduce_unit_pivots(al.fox_jacobian(d)[0])
    return reduced, bareiss_rank(reduced)


class TestRank:
    def test_exact_vs_numeric_corpus(self):
        for d in corpus_diagrams():
            if d.ncrossings == 0:
                continue
            rows, _ = al.fox_jacobian(d)
            assert bareiss_rank(rows) == matrix_rank_numeric(rows, d.ncomps), \
                d.name

    def test_zero_matrix(self):
        z = LaurentPoly.zero(1)
        assert bareiss_rank([[z, z], [z, z]]) == 0
        assert matrix_rank([[z, z], [z, z]], 1, {}) == 0

    def test_full_rank(self):
        one = LaurentPoly.one(1)
        t = LaurentPoly.var(1, 0)
        z = LaurentPoly.zero(1)
        assert bareiss_rank([[one, t], [z, t - one]]) == 2
        assert matrix_rank([[one, t], [z, t - one]], 2, {}) == 2


class TestUnitPivotReduction:
    def test_matches_unreduced_route_on_corpus(self, corpus):
        for d in corpus:
            if d.ncrossings == 0:
                continue
            assert al.alexander_data(d) == unreduced_alexander_data(d), \
                d.name

    def test_reduced_sizes_add_up_on_corpus(self, corpus):
        for d in corpus:
            if d.ncrossings == 0:
                continue
            rows, _ = al.fox_jacobian(d)
            reduced, k, cols = reduce_unit_pivots(rows)
            assert len(reduced) == len(rows) - k, d.name
            assert len(cols) == len(rows[0]) - k, d.name
            assert cols == sorted(set(cols)), d.name
            assert all(len(row) == len(cols) for row in reduced)
            assert k + bareiss_rank(reduced) == bareiss_rank(rows), d.name

    def test_no_unit_entry_comes_back_unchanged(self):
        rows = [[P("1+t", 1), P("2", 1), P("0", 1)],
                [P("t^2-1", 1), P("0", 1), P("3*t^-1", 1)]]
        assert reduce_unit_pivots(rows) == (rows, 0, [0, 1, 2])

    def test_markowitz_order(self):
        # The 1 at (0,0) costs (3-1)*(3-1) = 4 and the t at (1,1) costs
        # (2-1)*(3-1) = 2, so t is taken although it comes later.  The
        # fill leaves no unit, so the reduction stops after one pivot.
        rows = [[P("1", 1), P("2", 1), P("3", 1)],
                [P("2", 1), P("t", 1), P("0", 1)],
                [P("3", 1), P("5", 1), P("7", 1)]]
        reduced, k, cols = reduce_unit_pivots(rows)
        assert (k, cols) == (1, [0, 2])
        assert reduced == [[P("1-4*t^-1", 1), P("3", 1)],
                           [P("3-10*t^-1", 1), P("7", 1)]]
        assert al.unit_equal(minor_gcd(rows, 3, 1),
                             minor_gcd(reduced, 2, 1))

    def test_markowitz_ties_go_to_lower_row_then_column(self):
        one, two, three, t = (P(x, 1) for x in ("1", "2", "3", "t"))
        assert reduce_unit_pivots([[one, two], [t, three]]) == \
            ([[P("3-2*t", 1)]], 1, [1])
        assert reduce_unit_pivots([[one, t], [two, three]]) == \
            ([[P("3-2*t", 1)]], 1, [1])

    def test_empty_reduced_matrix(self):
        one, t = P("1", 1), P("t", 1)
        assert reduce_unit_pivots([[one, t]]) == ([], 1, [1])
        assert reduce_unit_pivots([[one], [-t]]) == ([[]], 1, [])
        for empty in ([], [[]]):
            assert bareiss_rank(empty) == 0
            assert minor_gcd(empty, 0, 2).is_one()
            assert minor_gcd(empty, 1, 2).is_zero()

    def test_sparse_loop_matches_dense_reference(self, corpus):
        closures = random_braid_closures(seeded(68), 150,
                                         strands=(2, 3, 4, 5))
        cases = TestCorankOneRoute.with_components(
            corpus + closures + split_unions())
        for d in cases:
            if d.ncrossings == 0:
                continue
            rows, _ = al.fox_jacobian(d)
            assert reduce_unit_pivots(rows) == \
                reference_reduce_unit_pivots(rows), d.name

    def test_sparse_loop_matches_dense_reference_on_random_matrices(self):
        rng = seeded(69)
        for _ in range(300):
            nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
            rows = [[rng.choice([P("0", 2), P("0", 2), P("1", 2),
                                 P("-t1", 2), P("t2^-1", 2), P("t1-1", 2),
                                 P("2", 2), P("t1*t2+1", 2)])
                     for _ in range(nc)] for _ in range(nr)]
            assert reduce_unit_pivots(rows) == \
                reference_reduce_unit_pivots(rows), rows

    def test_sparse_loop_matches_dense_reference_on_large_closures(self):
        """8-strand closures of 40-80 crossings, whose fill grows entries
        of a hundred terms and more."""
        longest = 0
        for d in random_braid_closures(seeded(84), 20, strands=(8,),
                                       length=(40, 80)):
            rows, _ = al.fox_jacobian(d)
            reduced = reduce_unit_pivots(rows)
            assert reduced == reference_reduce_unit_pivots(rows), d.name
            longest = max([longest] + [len(x.terms) for row in reduced[0]
                                       for x in row])
        assert longest >= 100

    @pytest.mark.parametrize("rows", [
        # the pivot 1 clears t^(2^59) below it: the fill t^(2^60)
        [["1", "t^E"], ["t^E", "2"]],
        # the pivot t^(2^59) scales its row by t^-(2^59)
        [["t^E", "t^E"]],
    ])
    def test_fill_past_the_exponent_limit_raises(self, rows):
        """Bounds add up through the fill as LaurentPoly's products do."""
        def matrix(e):
            return [[P(x.replace("E", str(e)), 1) for x in row]
                    for row in rows]

        with pytest.raises(ExponentLimitExceeded):
            reduce_unit_pivots(matrix(EXPONENT_LIMIT // 2))
        below = matrix(EXPONENT_LIMIT // 4)
        assert reduce_unit_pivots(below) == \
            reference_reduce_unit_pivots(below)

    def test_reduction_leaves_its_input_alone(self):
        """The fill writes in place only into key dicts the reduction
        made: fox_jacobian shares each class's entries and one -1 across
        its rows, and after the reduction those rows and entries equal a
        deep copy taken before it, bounds included."""
        pivots = 0
        for d in random_braid_closures(seeded(92), 40, strands=(2, 3, 4)):
            for c in [None] + list(range(d.ncomps)):
                rows, _ = al.fox_jacobian(d, c)
                before = copy.deepcopy(rows)
                _, k, _ = reduce_unit_pivots(rows)
                assert rows == before, (d.name, c)
                assert [[x._bound for x in row] for row in rows] == \
                    [[x._bound for x in row] for row in before], (d.name, c)
                pivots += k
        assert pivots >= 200

    def test_hopf_has_no_unit_pivot(self):
        """Each Hopf component passes under once, so at each crossing the
        incoming and outgoing under-arcs coincide and the -1 merges into
        t - 1: no entry is a unit and the 2 x 2 Jacobian stays whole."""
        d = load_fixture("hopf")
        rows, _ = al.fox_jacobian(d)
        assert reduce_unit_pivots(rows) == (rows, 0, [0, 1])
        assert al.alexander_data(d).delta.is_one()


class TestMinorGcdThroughGcdMany:
    def test_matches_reference_loop(self, corpus):
        diagrams = corpus + [al.parse_pd(split_trefoils(2))] + \
            random_braid_closures(seeded(61), 30)
        for d in diagrams:
            if d.ncrossings == 0:
                continue
            reduced, rank = reduced_jacobian(d)
            # rank + 1: every minor vanishes and both return zero
            for size in range(rank + 2):
                assert minor_gcd(reduced, size, d.ncomps) == \
                    reference_minor_gcd(reduced, size, d.ncomps), \
                    (d.name, size)

    def test_three_split_trefoils_ask_sympy_less(self, monkeypatch,
                                                 sympy_polys):
        import sympy
        d = al.parse_pd(split_trefoils(3))
        reduced, rank = reduced_jacobian(d)
        g = minor_gcd(reduced, rank, 3)
        assert sympy_polys == []
        sympy_gcds = []
        real = sympy.gcd

        def counting(*args, **kwargs):
            sympy_gcds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sympy, "gcd", counting)
        assert g == reference_minor_gcd(reduced, rank, 3)
        # the reference asks sympy on every minor: 63 calls
        assert len(sympy_gcds) == 63


def split_union(*texts, nfree=0):
    """The split union of PD texts, each after the one before, and
    ``nfree`` free loops."""
    out, offset = [], 0
    for text in texts:
        pd = [tuple(map(int, c)) for c in
              re.findall(r"X\[(\d+),(\d+),(\d+),(\d+)\]", text)]
        out.extend(tuple(e + offset for e in c) for c in pd)
        offset += max(e for c in pd for e in c)
    return al.parse_pd(", ".join("X[%d,%d,%d,%d]" % c for c in out),
                       nfree=nfree)


SHORT_WORDS = {"strands": (2, 3, 4), "length": (5, 11)}


def knot_words(rng, count):
    """Seeded braid words on 2-4 strands whose closure is a knot."""
    out = []
    while len(out) < count:
        (word, n), = random_braid_words(rng, 1, **SHORT_WORDS)
        if braid_closure(word, n).ncomps == 1:
            out.append((word, n))
    return out


def split_unions():
    """Split unions of two and three closures, with links among them."""
    rng = seeded(65)
    out = [al.parse_pd(split_trefoils(n)) for n in (2, 3)]
    for _ in range(22):
        pieces = random_braid_words(rng, rng.choice((2, 2, 3)),
                                    strands=(2, 3), length=(3, 7))
        out.append(split_union(*(braid_closure_pd(w, n) for w, n in pieces)))
    return out


@pytest.fixture
def minor_gcd_calls(monkeypatch):
    """Every block whose order alexander_data takes as the gcd of its
    rank-sized minors, as (block, size, nvars, gcd): the invariants.gcd_many
    calls, each with the block and the rank that invariants.matrix_rank
    has just found, since the order is taken right after the rank."""
    calls, ranked = [], []
    rank, gcd = invariants.matrix_rank, invariants.gcd_many

    def ranking(rows, bound, memo):
        ranked.append((rows, rank(rows, bound, memo)))
        return ranked[-1][1]

    def counting(minors):
        block, size = ranked[-1]
        calls.append((block, size, block[0][0].nvars, gcd(minors)))
        return calls[-1][-1]

    monkeypatch.setattr(invariants, "matrix_rank", ranking)
    monkeypatch.setattr(invariants, "gcd_many", counting)
    return calls


def sizes(minor_gcd_calls):
    """(size, nvars) of each call that the minor_gcd_calls fixture saw."""
    return [(size, nvars) for _, size, nvars, _ in minor_gcd_calls]


@pytest.fixture
def corank_one_blocks(monkeypatch):
    """Every block that invariants.matrix_rank finds square of corank 1,
    whose order alexander_data reads off the minor that certified it."""
    blocks = []
    real = invariants.matrix_rank

    def recording(rows, bound, memo):
        rank = real(rows, bound, memo)
        if len(rows) == len(rows[0]) == rank + 1:
            blocks.append(rows)
        return rank

    monkeypatch.setattr(invariants, "matrix_rank", recording)
    return blocks


class TestCorankOneRoute:
    """One corank-1 minor where the crossing part has beta = 0.

    Bareiss and then minor_gcd on every diagram, and the unreduced full
    Jacobian, are the references.
    """

    @staticmethod
    def with_components(diagrams):
        return [s for d in diagrams for s in
                [d] + [reference_delete_components(d, {c})
                       for c in range(d.ncomps)]]

    def test_equals_minor_gcd_route(self, corpus):
        closures = random_braid_closures(seeded(66), 200,
                                         strands=(2, 3, 4, 5))
        cases = self.with_components(corpus + closures + split_unions())
        assert {d.ncomps for d in cases} >= {1, 2, 3, 4, 5}
        for d in cases:
            if d.ncrossings == 0:
                continue
            assert al.alexander_data(d) == minor_gcd_alexander_data(d), \
                d.name

    def test_equals_unreduced_route(self, corpus):
        # past 12 crossings the full Jacobian's minor gcds take minutes
        closures = random_braid_closures(seeded(67), 200,
                                         strands=(2, 3, 4, 5), length=(4, 9))
        unions = [d for d in split_unions() if d.ncrossings <= 12]
        assert {len(d.split_partition()) for d in unions} == {2, 3}
        cases = self.with_components(corpus + closures + unions)
        assert {d.ncomps for d in cases} >= {1, 2, 3, 4}
        for d in cases:
            if d.ncrossings == 0:
                continue
            assert al.alexander_data(d) == unreduced_alexander_data(d), \
                d.name

    def test_no_sympy_gcd_when_beta_is_zero(self, sympy_polys,
                                            minor_gcd_calls):
        links = [load_fixture(name)
                 for name in ("hopf", "whitehead", "L6a4", "L9a54")]
        data = [al.alexander_data(d) for d in links]
        assert sympy_polys == []
        assert minor_gcd_calls == []
        for d, a in zip(links, data):
            assert a.beta == 0 and d.ncomps >= 2, d.name
            assert a == minor_gcd_alexander_data(d), d.name

    def test_minor_gcd_only_on_blocks_of_higher_corank(self, sympy_polys,
                                                       minor_gcd_calls):
        # pieces with beta = 0 give one corank-1 block each
        unions = 0
        for d in split_unions():
            pieces = [reference_delete_components(d, p)
                      for p in d.split_partition()]
            if any(al.alexander_data(p).beta for p in pieces):
                continue
            del sympy_polys[:]
            del minor_gcd_calls[:]
            a = al.alexander_data(d)
            assert a.beta == len(pieces) - 1 > 0, d.name
            assert sympy_polys == [] and minor_gcd_calls == [], d.name
            assert a == minor_gcd_alexander_data(d), d.name
            unions += 1
        assert unions >= 10
        # connected diagrams with beta = 1 whose one block is 2 x 3 of
        # rank 1, 2 x 3 of rank 1 and 3 x 4 of rank 2
        for word, n, size in (([1, 2, -1, -2, -1, -2], 3, 1),
                              ([-1, 2, 2, 1, 2, 1, -2], 3, 1),
                              ([-3, 2, -1, -1, 4, -2, -3], 5, 2)):
            d = braid_closure(word, n)
            del minor_gcd_calls[:]
            a = al.alexander_data(d)
            assert len(d.split_partition()) == 1 and a.beta == 1, word
            assert sizes(minor_gcd_calls) == [(size, d.ncomps)], word
            assert a == minor_gcd_alexander_data(d), word
        # connected diagrams of the 2- and 3-component unlinks: M'
        # reduces to zero, so there is no block and no minor
        for word, n in (([1, -1], 2), ([1, -1, 1, -1], 2),
                        ([1, -1, 2, -2], 3)):
            d = braid_closure(word, n)
            del minor_gcd_calls[:]
            a = al.alexander_data(d)
            assert len(d.split_partition()) == 1, word
            assert a.beta == n - 1 and a.delta_tor.is_one(), word
            assert minor_gcd_calls == [], word
            assert a == minor_gcd_alexander_data(d), word


class TestEmptyPresentation:
    """A crossing-free diagram takes the general route: its Wirtinger
    presentation has no relation, so rank 0, no blocks and order 1."""

    @pytest.mark.parametrize("k, name", [
        (1, None), (2, None), (3, None), (4, None),
        (2, "unlink2"), (3, "unlink3"), (4, "unlink4"),
    ])
    def test_unlink_of_k_circles(self, k, name):
        d = load_fixture(name) if name else al.parse_pd("", nfree=k)
        assert (d.ncomps, d.nfree, d.ncrossings) == (k, k, 0)
        assert al.fox_jacobian(d) == ([], [])
        alex = al.alexander_data(d)
        assert alex == AlexanderData(
            m=k, beta=k - 1,
            delta=LaurentPoly.one(k) if k == 1 else LaurentPoly.zero(k),
            delta_tor=LaurentPoly.one(k))
        assert al.component_polynomials(d) == \
            al.component_polynomials(d, alex) == [LaurentPoly.one(1)] * k
        assert conway_polynomial(d, alex) == conway_polynomial(d) == \
            ({0: 1} if k == 1 else {})


class TestBlockRoute:
    """Rank and torsion order of M' block by block.

    Bareiss and minor_gcd on the whole matrix are the references.
    """

    def test_block_diagonal_matrix_with_zero_row_and_column(self):
        zero = LaurentPoly.zero(2)
        blocks = [
            # rank 2, order its determinant
            [[P("t1-1", 2), P("t2", 2)], [P("t1+1", 2), P("2", 2)]],
            # 2 x 3 of rank 2, order (t1+2)^2
            [[P("t1+2", 2), zero, P("2*t1+4", 2)],
             [zero, P("t1+2", 2), P("t2*(t1+2)", 2)]],
            [[P("t2^2+1", 2)]],
        ]
        dense = [[zero] * 7 for _ in range(6)]
        r0 = c0 = 0
        for block in blocks:
            for i, row in enumerate(block):
                dense[r0 + i][c0:c0 + len(row)] = row
            r0, c0 = r0 + len(block), c0 + len(block[0])
        # row 5 and column 6 stay zero; rows and columns are then permuted
        row_order, col_order = [3, 5, 0, 4, 1, 2], [4, 6, 1, 3, 0, 5, 2]
        rows = [[dense[r][c] for c in col_order] for r in row_order]
        found = invariants._blocks(rows, col_order)
        assert sorted(sorted(cols) for _, cols in found) == \
            [[0, 1], [2, 3, 4], [5]]
        assert sorted(len(b) for b, _ in found) == [1, 2, 2]
        ranks = [bareiss_rank(b) for b, _ in found]
        order = LaurentPoly.one(2)
        for (b, _), r in zip(found, ranks):
            order = order * minor_gcd(b, r, 2)
        rank = bareiss_rank(rows)
        assert sum(ranks) == rank == 5
        assert unit_normal_form(order) == minor_gcd(rows, rank, 2) == \
            unit_normal_form(P("(2*t1-2-t1*t2-t2)*(t1+2)^2*(t2^2+1)", 2))

    def test_one_block_is_the_matrix_itself(self):
        reduced, _ = reduced_jacobian(load_fixture("whitehead"))
        (block, cols), = invariants._blocks(reduced, [7, 8])
        assert block == reduced and cols == [7, 8]

    def test_seeded_split_unions(self):
        rng = seeded(73)
        unlink = braid_closure_pd([1, -1], 2)
        knots = knot_words(rng, 20)
        links = [(w, n) for w, n in random_braid_words(
            rng, 40, strands=(2, 3), length=(2, 5))
            if braid_closure(w, n).ncomps > 1]
        cases = []
        for i in range(20):
            pieces = []
            for _ in range(rng.choice((2, 3, 4))):
                kind = rng.choice(("knot", "link", "mirror", "unlink"))
                if kind == "unlink":
                    pieces.append(unlink)
                    continue
                word, n = rng.choice(links if kind == "link" else knots)
                if kind == "mirror":
                    word = [-g for g in word]
                pieces.append(braid_closure_pd(word, n))
            cases.append(split_union(*pieces, nfree=int(i % 4 == 3)))
        small = 0
        for d in cases:
            a = al.alexander_data(d)
            assert a == minor_gcd_alexander_data(d), d.name
            # the full Jacobian's minor gcds take seconds past 12
            # crossings or 4 components
            if d.ncrossings <= 12 and d.ncomps <= 4:
                assert a == unreduced_alexander_data(d), d.name
                small += 1
        assert small >= 5
        assert {len(d.split_partition()) - d.nfree for d in cases} == \
            {2, 3, 4}

    def test_one_block_per_route(self, minor_gcd_calls, corank_one_blocks):
        # the trefoil's 2 x 2 block has corank 1; the other piece, a
        # connected diagram with beta = 1, gives a 2 x 3 block of rank 1
        d = split_union(split_trefoils(1),
                        braid_closure_pd([1, 2, -1, -2, -1, -2], 3))
        a = al.alexander_data(d)
        assert [len(b) for b in corank_one_blocks] == [2]
        assert sizes(minor_gcd_calls) == [(1, 4)]
        assert a == minor_gcd_alexander_data(d) == unreduced_alexander_data(d)
        assert a.beta == 2


def jacobian_blocks(d):
    """(block, bound) for each block of the reduced Fox Jacobians of d,
    the link's and each self-crossing component's, as _rank_and_order
    takes them: the bound is min(rows, columns - 1)."""
    jacobians = [al.fox_jacobian(d)] if d.ncrossings else []
    jacobians += [al.fox_jacobian(d, c) for c in range(d.ncomps)
                  if (c, c) in map(d.crossing_components,
                                   range(d.ncrossings))]
    for rows, _ in jacobians:
        reduced, _, cols = reduce_unit_pivots(rows)
        for block, block_cols in invariants._blocks(reduced, cols):
            yield block, min(len(block), len(block_cols) - 1)


@pytest.fixture
def below_bound(monkeypatch):
    """The row count of every block whose rank invariants.matrix_rank
    finds below its bound, walking minors smaller than the bound's."""
    runs = []
    real = invariants.matrix_rank

    def recording(rows, bound, memo):
        rank = real(rows, bound, memo)
        if rank < bound:
            runs.append(len(rows))
        return rank

    monkeypatch.setattr(invariants, "matrix_rank", recording)
    return runs


def rank_by_minors(rows, bound):
    """matrix_rank(rows, bound) on a fresh memo, and the minors of size
    ``bound`` that it expanded, as {(row indices, column indices): det}
    (their own expansions are all smaller)."""
    memo = {}
    rank = matrix_rank(rows, bound, memo)
    return rank, {key: det for key, det in memo.items()
                  if len(key[0]) == bound}


def walked_every_minor(rows, size, minors):
    """Whether ``minors`` holds every size x size minor of rows, all 0."""
    return len(minors) == comb(len(rows), size) * comb(len(rows[0]), size) \
        and all(det.is_zero() for det in minors.values())


@st.composite
def braid_words(draw, length=12):
    """(word, strands): a braid word on 2-5 strands using every generator,
    of at most ``length`` letters; ``length`` is at least 4."""
    n = draw(st.integers(2, 5))
    letter = st.builds(lambda g, s: g * s, st.integers(1, n - 1),
                       st.sampled_from([1, -1]))
    every = [draw(st.sampled_from([g, -g])) for g in range(1, n)]
    more = draw(st.lists(letter, max_size=length + 1 - n))
    return draw(st.permutations(every + more)), n


class TestCertifiedRank:
    """matrix_rank, the largest nonzero minor under the Fox bound, against
    Bareiss elimination, the reference."""

    def test_equals_bareiss_on_every_block(self, corpus):
        cases = (corpus + golden_generated_diagrams() + split_unions()
                 + random_braid_closures(seeded(74), 300, strands=(3, 4, 5),
                                         length=(10, 18)))
        blocks = [b for d in cases for b in jacobian_blocks(d)]
        assert len(blocks) >= 500
        certified = below = 0
        for block, bound in blocks:
            rank = bareiss_rank(block)
            assert matrix_rank(block, bound, {}) == rank <= bound
            certified += len(block) > 2 and rank == bound
            below += rank < bound
        # blocks of three or more rows at the bound, certified by the
        # minor alone
        assert certified >= 100 and below >= 2

    def test_trefoil_takes_one_rank(self, monkeypatch):
        bounds = []
        real = invariants.matrix_rank

        def recording(rows, bound, memo):
            bounds.append(bound)
            return real(rows, bound, memo)

        monkeypatch.setattr(invariants, "matrix_rank", recording)
        al.alexander_data(load_fixture("trefoil"))
        # one 2 x 2 block, whose kernel vector bounds its rank by 1
        assert bounds == [1]

    def test_zero_minor_falls_back(self):
        t, one = LaurentPoly.var(1, 0), LaurentPoly.one(1)
        zero = LaurentPoly.zero(1)
        # the last row is t times the middle one, and the certificate
        # minor (rows 1-2, columns 1-2) vanishes though the rank is 2
        rows = [[t - one, one, t], [one, zero, t + one],
                [t, zero, t * t + t]]
        rank, minors = rank_by_minors(rows, 2)
        assert rank == bareiss_rank(rows) == 2
        # rows 1-2 give only zero minors; rows 0 and 2, columns 1-2, the
        # first nonzero one
        assert minors[(1, 2), (1, 2)].is_zero()
        assert list(minors)[-1] == ((0, 2), (1, 2)) and len(minors) == 4
        assert not minors[(0, 2), (1, 2)].is_zero()

    def test_large_exponents_cost_one_power_each(self):
        # the minor multiplies sparse terms, never a dense table of
        # powers over the exponent range
        big = LaurentPoly.var(1, 0, 1 << 50)
        one, zero = LaurentPoly.one(1), LaurentPoly.zero(1)
        rows = [[big - one, zero, zero], [one, big.involute(), zero],
                [zero, one, big + one]]
        rank, minors = rank_by_minors(rows, 3)
        assert rank == 3 and list(minors) == [((0, 1, 2), (0, 1, 2))]

    def test_two_rows_certified_by_one_entry(self):
        # a rank-1 block with kernel vector (t1 - 1, t2 - 1), as the
        # fundamental formula gives; its last entry is the minor
        rows = [[P("t2-1", 2), P("1-t1", 2)],
                [P("t1*t2-t1", 2), P("t1-t1^2", 2)]]
        rank, minors = rank_by_minors(rows, 1)
        assert rank == 1 and list(minors) == [((1,), (1,))]
        assert bareiss_rank(rows) == 1

    def test_non_square_blocks_certified_on_last_columns(self):
        t, one = LaurentPoly.var(1, 0), LaurentPoly.one(1)
        zero = LaurentPoly.zero(1)
        # the first two columns are equal, the last two are not
        wide = [[one, one, t, zero], [t, t, zero, one]]
        assert _determinant(wide, (0, 1), (0, 1), {}).is_zero()
        rank, minors = rank_by_minors(wide, 2)
        assert rank == 2 and list(minors) == [((0, 1), (2, 3))]
        # a link's 3 x 2 block, bounded by 1 and certified by its last
        # entry
        d = braid_closure([-1, -2, -1, -1, -4, 4, -4, 1, -3, -4, -4, -3,
                           4, 3, 1, 3], 5)
        reduced, _, cols = reduce_unit_pivots(al.fox_jacobian(d)[0])
        (block, block_cols), = invariants._blocks(reduced, cols)
        assert (len(block), len(block_cols)) == (3, 2)
        rank, minors = rank_by_minors(block, 1)
        assert rank == 1 and list(minors) == [((2,), (1,))]
        assert bareiss_rank(block) == 1

    def test_connected_diagram_of_a_split_link(self, below_bound):
        # component 1 passes over component 0 at every crossing between
        # them and never crosses itself, so it lifts off: the link is
        # split, though its diagram is connected
        d = braid_closure([-1, -1, -2, -3, -3, -3, 2, -1], 4)
        assert d.ncomps == 2 and len(d.split_partition()) == 1
        assert {(u, o) for u, o in map(d.crossing_components,
                                       range(d.ncrossings))} == \
            {(0, 0), (0, 1)}
        reduced, _, cols = reduce_unit_pivots(al.fox_jacobian(d)[0])
        (block, block_cols), = invariants._blocks(reduced, cols)
        bound = min(len(block), len(block_cols) - 1)
        assert (len(block), len(block_cols), bound) == (3, 4, 3)
        rank, minors = rank_by_minors(block, bound)
        assert rank == bareiss_rank(block) == 2
        # all four 3-minors vanish, and the descent expanded each
        assert walked_every_minor(block, bound, minors)
        assert al.alexander_data(d) == minor_gcd_alexander_data(d)
        assert al.alexander_data(d).beta == 1
        assert below_bound == [3, 3]

    # connected diagrams with beta = 1, mined from random_braid_words(
    # seeded(11), 3000, (3, 4, 5), (6, 16)): the one block's rank is one
    # below its bound, so every minor of the bound's size vanishes and
    # the rank comes from the smaller ones
    @pytest.mark.parametrize("word, n", [
        ([2, -1, 3, -2, -1, -2, 1], 4),
        ([4, 4, 3, -2, -2, -3, -1], 5),
        ([2, -2, -2, -3, -3, 2, 1, 1], 4),
        ([1, -1, -3, -3, 2, 1, -2, -2, 1, -2, 2], 4),
    ])
    def test_rank_below_the_bound_falls_back(self, below_bound, word, n):
        d = braid_closure(word, n)
        assert len(d.split_partition()) == 1
        (block, bound), = jacobian_blocks(d)
        rank, minors = rank_by_minors(block, bound)
        assert rank == bareiss_rank(block) == bound - 1
        assert walked_every_minor(block, bound, minors)
        assert al.alexander_data(d).beta == 1
        assert below_bound == [len(block)]

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(braid_words())
    def test_equals_bareiss_on_generated_blocks(self, case):
        for block, bound in jacobian_blocks(braid_closure(*case)):
            assert matrix_rank(block, bound, {}) == bareiss_rank(block), case


# Words of random_braid_words(seeded(11), 3000, (3, 4, 5), (6, 16)) whose
# Alexander data reaches fallback routes, as tests/mine_fallback_words.py
# finds them: a block's rank below its bound and minor_gcd on a block
# that is not square of corank 1
BELOW = "rank below the bound"
FALLBACK_WORDS = [
    ([4, 4, 3, -2, -2, -3, -1], 5, {BELOW, "minor_gcd"}),
    ([2, -1, 3, -2, -1, -2, 1], 4, {BELOW, "minor_gcd"}),
    ([2, -2, -2, -3, -3, 2, 1, 1], 4, {BELOW, "minor_gcd"}),
    ([-1, -1, -2, -3, -2, -1, -1, 3, 1, -2, -3, -3, 1, 2, 3, 2], 4,
     {BELOW, "minor_gcd"}),
    ([-1, -2, 1, 2, 1, 2], 3, {"minor_gcd"}),
    ([-1, -1, -2, -1, 2, 1, -2, 1], 3, {"minor_gcd"}),
    ([-3, -3, 2, 3, 4, 2, 4, 1], 5, {"minor_gcd"}),
    ([-2, -2, -1, -2, -1, -2, 2, 1, 1, -1, -1, 2, 1], 3, {"minor_gcd"}),
]


def check_against_references(d):
    """Each block's rank against Bareiss, and the Alexander data against
    the unreduced Jacobian's."""
    for block, bound in jacobian_blocks(d):
        assert matrix_rank(block, bound, {}) == bareiss_rank(block), d.name
    assert al.alexander_data(d) == unreduced_alexander_data(d), d.name


class TestFallbackRoutes:
    """Mined closures that leave the certificates, each route against its
    reference: Bareiss for the rank, the unreduced Jacobian for the
    Alexander data, and reference_minor_gcd for each minor_gcd result."""

    @pytest.mark.parametrize("word, n, routes", FALLBACK_WORDS)
    def test_route_runs_and_agrees(self, below_bound, minor_gcd_calls,
                                   sympy_polys, word, n, routes):
        d = braid_closure(word, n)
        al.alexander_data(d)
        reached = {BELOW: below_bound, "minor_gcd": minor_gcd_calls}
        assert {r for r, calls in reached.items() if calls} == routes
        # every first minor's factorization is settled without sympy
        assert sympy_polys == []
        assert minor_gcd_calls
        for rows, size, nvars, g in minor_gcd_calls:
            assert g == reference_minor_gcd(rows, size, nvars), word
        check_against_references(d)

    # the unreduced Jacobian's minor gcds take seconds past 12 crossings
    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from([(word, n) for word, n, _ in FALLBACK_WORDS
                            if len(word) <= 8]), st.data())
    def test_moved_words_agree(self, case, data):
        """The mined words of at most 8 letters after a mirror, a
        conjugation or a stabilisation, which keep some of them below
        the rank bound and take others there, each against the
        references."""
        word, n = case
        move = data.draw(st.sampled_from(["mirror", "conjugate",
                                          "stabilise"]))
        sign = data.draw(st.sampled_from([1, -1]))
        if move == "mirror":
            word = [-g for g in word]
        elif move == "conjugate":
            g = sign * data.draw(st.integers(1, n - 1))
            word = [g] + word + [-g]
        else:
            word, n = word + [sign * n], n + 1
        check_against_references(braid_closure(word, n))


def test_mining_script_restores_what_it_wraps():
    """tests/mine_fallback_words.py on its first 400 words reaches every
    route it counts, and leaves no function wrapped."""
    import mine_fallback_words
    wrapped = [(invariants, "matrix_rank"), (invariants, "gcd_many"),
               (factor, "to_sympy")]
    before = [getattr(module, name) for module, name in wrapped]
    found = mine_fallback_words.mine(400)
    assert set(found) == {BELOW, "minor_gcd", mine_fallback_words.FACTOR}
    assert all(found.values()), {r: len(w) for r, w in found.items()}
    assert [getattr(module, name) for module, name in wrapped] == before


class TestOneMemoPerBlock:
    """Each block's rank and order read one _determinant memo, so no
    minor is expanded twice."""

    @staticmethod
    def cases(corpus):
        return corpus + split_unions() + random_braid_closures(
            seeded(75), 300, strands=(3, 4, 5), length=(8, 16))

    def test_certificate_minor_expanded_once(self, corpus, monkeypatch,
                                             corank_one_blocks):
        """A square corank-1 block's minor without row and column 0
        certifies its rank and gives its order: one expansion, then a
        memo hit."""
        misses, hits = [], []
        determinant = invariants._determinant

        def counting(rows, row_idx, col_idx, memo):
            seen = misses if (row_idx, col_idx) not in memo else hits
            seen.append((rows, row_idx, col_idx))
            return determinant(rows, row_idx, col_idx, memo)

        monkeypatch.setattr(invariants, "_determinant", counting)
        for d in self.cases(corpus):
            al.alexander_data(d)
            al.component_polynomials(d)
        assert len(corank_one_blocks) >= 400
        assert max(len(block) for block in corank_one_blocks) >= 4
        for block in corank_one_blocks:
            rest = tuple(range(1, len(block)))
            for seen in (misses, hits):
                assert sum(rows is block and ri == ci == rest
                           for rows, ri, ci in seen) == 1

    def test_one_rank_and_one_memo_per_block(self, corpus, monkeypatch):
        """Each block is ranked once, on a memo of its own, and its
        order reads minors of that block through that memo only."""
        blocks, ranked, gcds = [], [], []
        real = {name: getattr(invariants, name) for name in
                ("_blocks", "matrix_rank", "_determinant", "gcd_many")}

        def split(rows, cols):
            found = real["_blocks"](rows, cols)
            blocks.extend(block for block, _ in found)
            return found

        def rank(rows, bound, memo):
            # the minors this block's order reads, and its route
            ranked.append({"rows": rows, "memo": memo, "reads": [],
                           "route": "corank one"})
            r = real["matrix_rank"](rows, bound, memo)
            ranked[-1]["rank"] = r
            return r

        def minor(rows, row_idx, col_idx, memo):
            if "rank" in ranked[-1]:
                ranked[-1]["reads"].append((rows, memo))
            return real["_determinant"](rows, row_idx, col_idx, memo)

        def gcd_of_minors(minors):
            gcds.append(ranked[-1]["rows"])
            ranked[-1]["route"] = "minor gcd"
            return real["gcd_many"](minors)

        for name, fn in (("_blocks", split), ("matrix_rank", rank),
                         ("_determinant", minor),
                         ("gcd_many", gcd_of_minors)):
            monkeypatch.setattr(invariants, name, fn)
        for d in self.cases(corpus):
            al.alexander_data(d)
            al.component_polynomials(d)
        assert len(blocks) >= 400
        assert {b["route"] for b in ranked} == {"corank one", "minor gcd"}
        assert len(ranked) == len(blocks)
        assert len(gcds) == sum(b["route"] == "minor gcd" for b in ranked)
        memos = [b["memo"] for b in ranked]
        assert len({id(memo) for memo in memos}) == len(memos)
        for block, b in zip(blocks, ranked):
            assert b["rows"] is block and b["reads"]
            assert all(rows is block and memo is b["memo"]
                       for rows, memo in b["reads"])
            square = len(block) == len(block[0]) == b["rank"] + 1
            assert (b["route"] == "corank one") == square


class TestMetamorphic:
    """Braid moves, mirrors and split unions on seeded closures; the
    mirror, conjugation and stabilisation also on closures that
    hypothesis generates."""

    @staticmethod
    def check_mirror(word, n):
        a = al.alexander_data(braid_closure(word, n))
        b = al.alexander_data(braid_closure([-g for g in word], n))
        assert (a.m, a.beta) == (b.m, b.beta), word
        assert al.unit_equal(b.delta, a.delta.involute()), word
        assert al.unit_equal(b.delta_tor, a.delta_tor.involute()), word

    def test_mirror_involutes_delta(self):
        for word, n in random_braid_words(seeded(68), 60, **SHORT_WORDS):
            self.check_mirror(word, n)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(braid_words())
    def test_mirror_involutes_delta_generated(self, case):
        self.check_mirror(*case)

    @staticmethod
    def check_conjugation_and_stabilisation(word, n, g, sign):
        """A knot's delta survives a cyclic shift, conjugation by sigma_g
        and a stabilisation by sigma_n^sign."""
        base = al.alexander_data(braid_closure(word, n)).delta
        moved = [(word[1:] + word[:1], n),
                 ([g] + word + [-g], n),
                 (word + [sign * n], n + 1)]
        for w, k in moved:
            a = al.alexander_data(braid_closure(w, k))
            assert a.beta == 0 and al.unit_equal(a.delta, base), (w, k)

    def test_conjugation_and_stabilisation_keep_delta(self):
        rng = seeded(69)
        for word, n in knot_words(rng, 40):
            g = rng.choice([1, -1]) * rng.randrange(1, n)
            self.check_conjugation_and_stabilisation(
                word, n, g, rng.choice([1, -1]))

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(braid_words().filter(lambda case: braid_closure(*case).ncomps == 1),
           st.data())
    def test_conjugation_and_stabilisation_keep_delta_generated(self, case,
                                                                data):
        word, n = case
        g = data.draw(st.integers(1, n - 1)) * \
            data.draw(st.sampled_from([1, -1]))
        self.check_conjugation_and_stabilisation(
            word, n, g, data.draw(st.sampled_from([1, -1])))

    @staticmethod
    def check_split_union(u, n, v, k):
        """The split union of two closures, each a knot or a 2-component
        link, has beta = 1 + beta1 + beta2, delta = 0, delta_tor ≐ the
        product of the pieces' orders, each in its own variables, and
        Conway polynomial 0 at any size.  Its component polynomials are
        the pieces' own, in order, both read off the link's blocks (a
        knot piece's component) and off each component's own Jacobian."""
        d = split_union(braid_closure_pd(u, n), braid_closure_pd(v, k))
        beta, expected, offset = 1, LaurentPoly.one(d.ncomps), 0
        pieces = [braid_closure(u, n), braid_closure(v, k)]
        for piece in pieces:
            pa = al.alexander_data(piece)
            beta += pa.beta
            expected = expected * in_union(pa.delta_tor, piece, d, offset)
            offset += max(piece.comp_of_edge)
        a = al.alexander_data(d)
        assert a.beta == beta and a.delta.is_zero(), (u, v)
        assert al.unit_equal(a.delta_tor, expected), (u, v)
        assert conway_polynomial(d, a) == {}, (u, v)
        polys = al.component_polynomials(d, a)
        assert polys == al.component_polynomials(d), (u, v)
        assert polys == [p for piece in pieces
                         for p in al.component_polynomials(piece)], (u, v)

    def test_split_union_multiplies_delta_tor(self):
        words = knot_words(seeded(70), 24)
        pairs = list(zip(words[::2], words[1::2]))
        # the Conway polynomial has no crossing budget
        assert max(len(u) + len(v) for (u, _), (v, _) in pairs) > 16
        for (u, n), (v, k) in pairs:
            self.check_split_union(u, n, v, k)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(*[braid_words(8).filter(
        lambda case: braid_closure(*case).ncomps <= 2)] * 2)
    def test_split_union_multiplies_delta_tor_generated(self, first, second):
        self.check_split_union(*first, *second)

    def test_split_union_of_links_adds_beta(self):
        """beta(L1 u L2) = beta1 + beta2 + 1, delta is 0, and delta_tor is
        the product of the pieces' orders, each in its own variables."""
        rng = seeded(71)
        components = []
        while len(components) < 12:
            pieces = random_braid_words(rng, 2, strands=(2, 3), length=(4, 8))
            texts = [braid_closure_pd(w, n) for w, n in pieces]
            diagrams = [braid_closure(w, n) for w, n in pieces]
            if all(piece.ncomps == 1 for piece in diagrams):
                continue
            d = split_union(*texts)
            m = d.ncomps
            beta, expected, offset = 1, LaurentPoly.one(m), 0
            for piece in diagrams:
                pa = al.alexander_data(piece)
                beta += pa.beta
                expected = expected * in_union(pa.delta_tor, piece, d,
                                               offset)
                offset += max(piece.comp_of_edge)
            a = al.alexander_data(d)
            assert m == sum(piece.ncomps for piece in diagrams), pieces
            assert a.beta == beta and a.delta.is_zero(), pieces
            assert al.unit_equal(a.delta_tor, expected), pieces
            components.append(m)
        assert max(components) >= 4


def in_union(p, piece, d, offset):
    """p, a polynomial in the variables of ``piece``, in those of the
    split union d, where the piece's edges are shifted by ``offset``:
    the piece's component c is the union's comp_of_edge[e + offset]."""
    var = {c: d.comp_of_edge[e + offset]
           for e, c in piece.comp_of_edge.items()}
    terms = {}
    for exps, coeff in p.terms.items():
        key = [0] * d.ncomps
        for c, x in enumerate(exps):
            key[var[c]] = x
        terms[tuple(key)] = coeff
    return LaurentPoly(d.ncomps, terms)


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
        # split union of six trefoils: 18 crossings, over the skein's
        # budget, which guards only the skein reference
        tref = [(4, 2, 5, 1), (2, 6, 3, 5), (6, 4, 1, 3)]
        text = ", ".join("X[%d,%d,%d,%d]" % tuple(6 * k + x for x in c)
                         for k in range(6) for c in tref)
        d = al.parse_pd(text)
        with pytest.raises(ConwayBudgetExceeded):
            one_variable_alexander(d)
        assert conway_polynomial(d) == {}


class TestSatoLevine:
    def test_whitehead(self):
        assert al.sato_levine(load_fixture("whitehead")) == 1

    def test_reads_the_anchored_route(self, corpus, skein_calls,
                                      chain_calls, unbudgeted):
        d = load_fixture("whitehead")
        assert al.sato_levine(d) == 1
        assert chain_calls[0] is d and skein_calls == []
        cases = corpus + random_braid_closures(seeded(95), 200,
                                               strands=(3, 4), length=(6, 20))
        links = [d for d in cases if d.ncomps == 2
                 and d.linking_number(0, 1) == 0]
        assert len(links) >= 20
        assert max(d.ncrossings for d in links) > CONWAY_CROSSING_BUDGET
        for d in links:
            del skein_calls[:]
            nabla = al.sato_levine(d)
            assert skein_calls == [], d.name
            assert nabla == -_conway_skein(d).get(3, 0), d.name

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


def reference_component_polynomials(d):
    """The sub-diagram route: each component kept alone by the reference
    deletion, through alexander_data."""
    return [al.alexander_data(reference_delete_components(d, {c})).delta
            for c in range(d.ncomps)]


def golden_generated_diagrams():
    """The 100 diagrams of tests/golden/generated_diagrams.jsonl."""
    path = Path(__file__).parent / "golden" / "generated_diagrams.jsonl"
    return [al.parse_pd(case["pd"], nfree=case["freeloops"],
                        name=case["name"])
            for case in map(json.loads, path.read_text().splitlines())]


class TestComponentPolynomials:
    """Each component's own Jacobian, read off the link's crossings,
    against the sub-diagram route kept in the tests."""

    def test_equals_sub_diagram_route(self, corpus):
        rng = seeded(90)
        loops = [split_union(*(braid_closure_pd(w, n) for w, n in
                               random_braid_words(rng, k, strands=(2, 3),
                                                  length=(3, 7))),
                             nfree=nfree)
                 for k in (2, 3) for nfree in (1, 2) for _ in range(5)]
        cases = (corpus + golden_generated_diagrams()
                 + random_braid_closures(seeded(91), 400,
                                         strands=(2, 3, 4, 5))
                 + split_unions() + loops)
        links = [d for d in cases if d.ncomps > 1]
        assert len(links) >= 300
        assert {d.ncomps for d in links} >= {2, 3, 4, 5}
        assert sum(d.nfree > 0 for d in cases) >= 20
        for d in cases:
            expected = reference_component_polynomials(d)
            assert al.component_polynomials(d) == expected, d.name
            assert al.component_polynomials(d, al.alexander_data(d)) == \
                expected, d.name

    @pytest.mark.parametrize("word, crossings, polys", [
        # component 1 runs over the trefoil twice and never under
        ([1, 1, 1, -2, 2], [(0, 0)] * 3 + [(0, 1)] * 2, ["t^2-t+1", "1"]),
        # component 1 crosses only the trefoil: under once, over once
        ([1, 1, 1, 2, 2], [(0, 0)] * 3 + [(1, 0), (0, 1)], ["t^2-t+1", "1"]),
    ])
    def test_named_components(self, word, crossings, polys):
        d = braid_closure(word, 3)
        assert [d.crossing_components(i)
                for i in range(d.ncrossings)] == crossings
        got = al.component_polynomials(d)
        assert got == reference_component_polynomials(d)
        assert [unit_normal_form(P(p, 1)) for p in polys] == got

    def test_free_loop(self):
        d = load_fixture("trefoil_unknot")
        assert (d.ncomps, d.nfree) == (2, 1)
        got = al.component_polynomials(d)
        assert got == reference_component_polynomials(d)
        assert got == [unit_normal_form(P("t^2-t+1", 1)), LaurentPoly.one(1)]

    def test_trefoil_union(self):
        polys = al.component_polynomials(load_fixture("trefoil_trefoil"))
        assert len(polys) == 2
        for p in polys:
            assert al.unit_equal(p, P("t^2-t+1", 1))

    def test_unknotted_components(self):
        for name in ("hopf", "whitehead", "L6a4", "L9a54"):
            for p in al.component_polynomials(load_fixture(name)):
                assert p.is_one() or al.unit_equal(p, P("1", 1)), name

    def test_knot_reuses_delta(self, corpus, monkeypatch):
        """A knot is its own component: its delta, no second Fox route."""
        knots = [d for d in corpus + random_braid_closures(seeded(64), 150)
                 if d.ncomps == 1]
        assert len(knots) >= 20
        calls = []
        real = invariants.alexander_data

        def counting(d):
            calls.append(d)
            return real(d)

        for d in knots:
            alex = al.alexander_data(d)
            assert al.component_polynomials(d) == \
                al.component_polynomials(d, alex) == [alex.delta], d.name
        monkeypatch.setattr(invariants, "alexander_data", counting)
        for d in knots:
            al.component_polynomials(d, real(d))
        assert calls == []

    def test_fox_route_agrees_with_skein(self, corpus):
        """The skein on each component's sub-diagram is the reference."""
        closures = random_braid_closures(seeded(62), 50)
        assert max(d.ncrossings for d in closures) <= CONWAY_CROSSING_BUDGET
        for d in corpus + closures:
            for c, p in enumerate(al.component_polynomials(d)):
                sub = reference_delete_components(d, {c})
                assert al.unit_equal(p, one_variable_alexander(sub)), \
                    (d.name, c)


@pytest.fixture
def skein_calls(monkeypatch):
    """Every _conway_skein call, recursive ones included."""
    calls = []
    real = invariants._conway_skein

    def counting(d, memo=None):
        calls.append(d)
        return real(d, memo)

    monkeypatch.setattr(invariants, "_conway_skein", counting)
    return calls


@pytest.fixture
def chain_calls(monkeypatch):
    """Every _chain_step call, the children's included."""
    calls = []
    real = invariants._chain_step

    def counting(d, lk):
        calls.append(d)
        return real(d, lk)

    monkeypatch.setattr(invariants, "_chain_step", counting)
    return calls


@pytest.fixture
def unbudgeted(monkeypatch):
    """Lifts the skein's crossing budget, so that _conway_skein is a
    reference at any size."""
    monkeypatch.setattr(invariants, "CONWAY_CROSSING_BUDGET", 10 ** 6)


def fox_route_cases(corpus):
    """The corpus, 80 seeded closures and four named ones.

    The named closures are T(3,3), T(4,4), its mirror and the chain
    s1^2 s2^2 s3^2, whose linking cofactors are 3, 16, -16 and 1.
    """
    words = [([1, 2] * 3, 3), ([1, 2, 3] * 4, 4), ([-1, -2, -3] * 4, 4),
             ([1, 1, 2, 2, 3, 3], 4)]
    braids = [al.parse_pd(braid_closure_pd(w, n), name=f"braid{n}:{w}")
              for w, n in words]
    return corpus + random_braid_closures(seeded(63), 80) + braids


class TestConwayFoxRoute:
    """The skein, _conway_skein, is the reference for the Fox route."""

    def test_equals_skein(self, corpus, skein_calls, chain_calls,
                          unbudgeted):
        cases = fox_route_cases(corpus)
        assert {d.ncomps for d in cases} == {1, 2, 3, 4}
        fox = {}
        for d in cases:
            del skein_calls[:], chain_calls[:]
            nabla = conway_polynomial(d)
            stepped = bool(chain_calls)
            assert skein_calls == [], d.name
            assert nabla == _conway_skein(d), d.name
            cofactor = 1 if d.ncomps == 1 else _linking_cofactor(d)
            # the chain step runs exactly where the cofactor is 0 and
            # the Alexander polynomial is not
            assert stepped == (cofactor == 0 and bool(nabla)), d.name
            if not stepped:
                fox.setdefault(d.ncomps, []).append(cofactor)
        assert sorted(fox) == [1, 2, 3, 4]
        assert {3, 16, -16, 1} <= set(fox[3] + fox[4])

    def test_anchored_step_only_where_cofactor_is_zero(self, skein_calls,
                                                       chain_calls):
        for name in ("trefoil", "hopf", "L9a10", "L9a15"):
            conway_polynomial(load_fixture(name))
            assert chain_calls == skein_calls == [], name
        # all linking numbers 0: Whitehead, the Borromean rings, L9a54
        for name in ("whitehead", "L6a4", "L9a54"):
            del chain_calls[:]
            d = load_fixture(name)
            conway_polynomial(d)
            assert chain_calls[0] is d, name
        assert skein_calls == []

    def test_three_components_cofactor_zero_with_nonzero_lk(self,
                                                            skein_calls,
                                                            chain_calls):
        d = load_fixture("L9a46")
        lks = [d.linking_number(i, j) for i in range(3) for j in range(i)]
        assert any(lks) and _linking_cofactor(d) == 0
        nabla = conway_polynomial(d)
        assert chain_calls[0] is d and skein_calls == []
        assert nabla == _conway_skein(d) == {4: -1}

    def test_no_chain_is_an_error(self):
        # a split diagram with a nonzero delta: no switch between its
        # components can make the linking cofactor nonzero
        d = load_fixture("trefoil_trefoil")
        bad = AlexanderData(m=2, beta=0, delta=P("1", 2),
                            delta_tor=P("1", 2))
        with pytest.raises(PDError, match="no switch chain"):
            conway_polynomial(d, bad)

    def test_cofactor_is_hoste_laplacian_minor(self):
        d = al.parse_pd(braid_closure_pd([1, 2, 3] * 4, 4))
        # every pair links once: K4 has 16 spanning trees
        assert _linking_cofactor(d) == 16
        assert _linking_cofactor(load_fixture("L9a15")) == \
            load_fixture("L9a15").linking_number(0, 1) == 2

    def test_record_reuses_alexander_data(self, monkeypatch):
        from alexlink import cli
        calls = []
        real = invariants.alexander_data

        def counting(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(invariants, "alexander_data", counting)
        monkeypatch.setattr(cli, "alexander_data", counting)
        d = load_fixture("trefoil")
        rec = cli._invariants_record(d, "trefoil.lnk", None)
        assert rec["conway"] == "z^2 + 1"
        # a knot's component polynomial is the record's own delta
        assert len(calls) == 1
        calls.clear()
        jacobians = []
        real_fox = invariants.fox_jacobian

        def counting_fox(d, c=None):
            jacobians.append(c)
            return real_fox(d, c)

        monkeypatch.setattr(invariants, "fox_jacobian", counting_fox)
        d = load_fixture("hopf")
        cli._invariants_record(d, "hopf.lnk", None)
        # one for the record; Hopf's components have no crossing with
        # themselves, so they take no Jacobian of their own
        assert len(calls) == 1
        assert jacobians == [None]

    @pytest.mark.parametrize("name, expected", [
        ("trefoil_trefoil", [None]),
        ("trefoil_unknot", [None]),
        # Whitehead's components are 1 and 2 here, and 2 crosses itself
        ("trefoil u whitehead", [None, 2]),
    ])
    def test_isolated_components_take_no_jacobian(self, name, expected,
                                                  monkeypatch):
        """One Jacobian for the link, and one of its own only for a
        component that crosses another component and itself: a
        component that crosses no other reads its polynomial off the
        link's blocks, in the record and in the obstruction report."""
        from alexlink import cli, obstructions
        if name == "trefoil u whitehead":
            d = split_union(*(serialize_pd(load_fixture(f))
                              for f in ("trefoil", "whitehead")))
        else:
            d = load_fixture(name)
        jacobians = []
        real_fox = invariants.fox_jacobian

        def counting_fox(d, c=None):
            jacobians.append(c)
            return real_fox(d, c)

        monkeypatch.setattr(invariants, "fox_jacobian", counting_fox)
        rec = cli._invariants_record(d, f"{name}.lnk", None)
        assert jacobians == expected
        jacobians.clear()
        report = obstructions.build_report(d)
        assert jacobians == expected
        polys = al.component_polynomials(d)
        assert polys[0] == unit_normal_form(P("t^2-t+1", 1))
        assert report.component_polys == polys
        assert rec["componentPolys"] == [al.format_poly(p) for p in polys]

    def test_asymmetric_input_rejected(self):
        d = load_fixture("trefoil")
        bad = AlexanderData(m=1, beta=0, delta=P("t^2+t+2", 1),
                            delta_tor=P("t^2+t+2", 1))
        with pytest.raises(PDError, match="not symmetric"):
            conway_polynomial(d, bad)

    def test_sign_anchor_mismatch_rejected(self):
        # symmetric, but nabla(0) = 3 for a knot, 2z against lk = 1
        cases = [("trefoil", P("t^2+t+1", 1)), ("hopf", P("2", 2))]
        for name, delta in cases:
            d = load_fixture(name)
            bad = AlexanderData(m=d.ncomps, beta=0, delta=delta,
                                delta_tor=delta)
            with pytest.raises(PDError, match="linking cofactor"):
                conway_polynomial(d, bad)

    def test_sign_fixed_by_anchor(self):
        # -delta and t^5 * delta give the same Conway polynomial
        for name in ("trefoil", "hopf", "L9a15"):
            d = load_fixture(name)
            a = al.alexander_data(d)
            shift = LaurentPoly.var(a.m, 0, 5)
            for delta in (-a.delta, shift * a.delta):
                other = AlexanderData(m=a.m, beta=0, delta=delta,
                                      delta_tor=delta)
                assert conway_polynomial(d, other) == \
                    conway_polynomial(d), name


def steps(d):
    """Whether conway_polynomial takes the chain step at d: a link with
    linking cofactor 0 whose delta(t,...,t) is not 0."""
    return d.ncomps > 1 and _linking_cofactor(d) == 0 and \
        not al.alexander_data(d).delta.eval_diagonal().is_zero()


def pure_braid_closures(rng, count):
    """``count`` seeded closures of pure braid words on 3-4 strands, at
    most 16 letters, where conway_polynomial steps.  Each syllable is
    sigma_g^(±2), or that conjugated by sigma_h, so the closure has one
    component per strand."""
    out = []
    while len(out) < count:
        n = rng.choice((3, 4))
        word = []
        for _ in range(rng.randrange(3, 6)):
            g, h = (rng.choice([1, -1]) * rng.randrange(1, n)
                    for _ in range(2))
            word += [h, g, g, -h] if abs(h) != abs(g) and \
                rng.random() < 0.5 else [g, g]
        if len(word) > 16 or {abs(g) for g in word} != set(range(1, n)):
            continue
        d = braid_closure(word, n)
        if steps(d):
            out.append(d)
    return out


def first_switch_chain(d):
    """The first of the smallest sets of crossings between two components
    whose switching makes d's linking cofactor nonzero, searched over
    every such crossing."""
    lk = d.linking_matrix()
    between = [v for v in range(d.ncrossings)
               if len(set(d.crossing_components(v))) == 2]
    return next(s for size in range(1, len(between) + 1)
                for s in combinations(between, size)
                if _linking_cofactor(d, lk, s))


def pure_braid_word(syllables):
    """The word of the product of A_ij^e over ``syllables``, triples
    (i, j, e) with 1 <= i < j.  A_ij = s_(j-1)..s_(i+1) s_i^2
    s_(i+1)^-1..s_(j-1)^-1 crosses strands i and j twice, so the
    closure's lk(i,j) is the exponent sum of A_ij."""
    word = []
    for i, j, e in syllables:
        conj = list(range(j - 1, i, -1))
        word += conj + [i if e > 0 else -i] * (2 * abs(e)) + \
            [-g for g in reversed(conj)]
    return word


class TestAnchoredStep:
    """Where the linking cofactor is 0, _chain_step switches the first of
    the smallest sets S of crossings between components that makes it
    nonzero, and asks conway_polynomial for |S| + 1 children;
    _conway_skein is the reference."""

    def test_equals_skein_on_seeded_closures(self, skein_calls):
        closures = random_braid_closures(
            seeded(92), 500, strands=(2, 3, 4, 5), length=(4, 14))
        stepped = [d for d in closures if steps(d)]
        assert len(stepped) >= 6 and {d.ncomps for d in stepped} == {2, 3}
        for d in closures:
            del skein_calls[:]
            nabla = conway_polynomial(d)
            assert skein_calls == [], d.name
            assert nabla == _conway_skein(d), d.name

    def test_three_and_four_components(self, monkeypatch, chain_calls,
                                       skein_calls):
        links = pure_braid_closures(seeded(93), 60)
        assert {d.ncomps for d in links} == {3, 4}
        leaves = []
        real = invariants.alexander_data

        def counting(d):
            leaves.append(d)
            return real(d)

        monkeypatch.setattr(invariants, "alexander_data", counting)
        sizes = set()
        for d in links:
            del leaves[:], chain_calls[:], skein_calls[:]
            nabla = conway_polynomial(d, real(d))
            assert chain_calls[0] is d and skein_calls == [], d.name
            # every node asks |S| + 1 children, the one with all of S
            # switched first
            chains = [first_switch_chain(n) for n in chain_calls]
            assert len(leaves) == sum(len(c) + 1 for c in chains), d.name
            first = reduce(lambda n, v: n.crossing_change(v), chains[0], d)
            assert (leaves[0].crossings, leaves[0].signs) == \
                (first.crossings, first.signs), d.name
            sizes.update(map(len, chains))
            assert nabla == _conway_skein(d), d.name
        assert sizes == {1, 2}

    def test_four_and_five_components_without_single_switch(
            self, skein_calls, chain_calls, unbudgeted):
        # every pair linked once, in a 4 x 4 linking matrix whose
        # cofactor no single change of a linking number makes nonzero,
        # and a 5 x 5 one with the same property
        cases = [
            (4, [(1, 4, -1), (2, 4, 1), (1, 3, 1), (3, 4, -1), (1, 2, -1),
                 (2, 3, -1)], {7: 2, 9: 1}),
            (4, [(1, 2, 1), (1, 4, 1), (1, 3, -1), (3, 4, 1), (2, 3, 1),
                 (2, 4, -1)], {5: 1}),
            (5, [(4, 5, -1), (2, 3, 1), (1, 5, 1), (1, 4, -1), (3, 4, 1),
                 (1, 3, -1), (3, 5, -1)], {6: -4, 8: -2}),
        ]
        for n, syllables, expected in cases:
            d = braid_closure(pure_braid_word(syllables), n)
            lk = d.linking_matrix()
            assert d.ncomps == n and d.ncrossings > CONWAY_CROSSING_BUDGET
            assert _linking_cofactor(d, lk) == 0
            assert [lk[i - 1][j - 1] for i, j, _ in syllables] == \
                [e for _, _, e in syllables]
            for i, j in combinations(range(n), 2):
                for step in (1, -1):
                    moved = [list(row) for row in lk]
                    moved[i][j] += step
                    moved[j][i] += step
                    assert _linking_cofactor(d, moved) == 0, (n, i, j)
            del skein_calls[:], chain_calls[:]
            nabla = conway_polynomial(d)
            assert chain_calls[0] is d and skein_calls == [], n
            assert len(first_switch_chain(d)) == 2, n
            assert nabla == _conway_skein(d) == expected, n

    def test_two_components_two_fox_leaves(self, corpus, monkeypatch,
                                           skein_calls):
        cases = corpus + random_braid_closures(seeded(94), 300,
                                               strands=(3, 4), length=(6, 12))
        links = [d for d in cases if d.ncomps == 2
                 and d.ncrossings <= CONWAY_CROSSING_BUDGET and steps(d)]
        assert len(links) >= 15
        children = []
        real = invariants.alexander_data

        def counting(d):
            children.append(d)
            return real(d)

        monkeypatch.setattr(invariants, "alexander_data", counting)
        for d in links:
            alex = real(d)
            del children[:], skein_calls[:]
            nabla = conway_polynomial(d, alex)
            # the switched child has lk = ±1, the smoothed one is a knot
            switched, smoothed = children
            assert switched.ncomps == 2, d.name
            assert abs(switched.linking_number(0, 1)) == 1, d.name
            assert smoothed.ncomps == 1, d.name
            assert skein_calls == [], d.name
            assert nabla == _conway_skein(d), d.name

    def test_no_raising_crossing_needs_no_skein(self, skein_calls,
                                                chain_calls):
        d = braid_closure([1, 2, -1, -1, 3, -2, -2, 3, -2, 1], 4)
        nabla = conway_polynomial(d)
        assert chain_calls == [d] and skein_calls == []
        assert nabla == _conway_skein(d) == {5: -1}
        # with crossing 1 changed, every change between two components
        # lowers some |lk|, and the cofactor is still 0
        stuck = d.crossing_change(1)
        assert _linking_cofactor(stuck) == 0
        assert not any(u != o and stuck.linking_number(u, o)
                       * stuck.signs[v] <= 0 for v, (u, o) in enumerate(
                           map(stuck.crossing_components,
                               range(stuck.ncrossings))))
        del chain_calls[:], skein_calls[:]
        nabla = conway_polynomial(stuck)
        assert chain_calls[0] is stuck and skein_calls == []
        assert nabla == _conway_skein(stuck)
