"""Factorization, gcd and the norm-pairing decision procedures."""

import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alexlink as al
from alexlink.factor import (factor_irreducible, gcd_many,
                             is_negligible_factor, norm_verdict, to_sympy,
                             from_sympy)
from alexlink import factor
from alexlink.laurent import LaurentPoly, ZeroInputError, unit_normal_form

from conftest import (braid_closure, content, random_negligible, random_poly,
                      random_unit, seeded, sympy_gcd)

N_RANDOM = 1000

# closures from tests/mine_fallback_words.py whose delta reaches sympy's
# Poly.factor_list, with the variable count of each rest that does: the
# last three are the only multivariate ones among its first 8000 words
FACTOR_FALLBACK_WORDS = [
    ([2, 1, 1, 1, 2, -2, 2, 2, 2, 2, 2, -1], 3, [1]),
    ([1, -2, -1, 2, 1, -2, -2, -1, -1, 2, 2, -1, -1, -2, -2], 3, [1]),
    ([-2, -1, -2, -2, 1, 2, -2, 2, 2, 2, -1, -1, 2, -1], 3, [1]),
    ([-2, -1, -1, -2, -2, 2, -2, -1, -1, -2, -1, -1, -2, -2, -1, -2], 3,
     [1]),
    ([-3, -2, 3, 2, 2, 1, 1, 2, 3, -2, 2, -2, 1, 3], 4, [2]),
    ([3, 1, 1, 1, -3, -1, 2, 2, 2, -2, 2, 1, -2, -2, -3, 1], 4, [2]),
    ([-2, -2, -4, -1, -2, 3, -4, 2, 2, -4, 3, -4, 1, 1, -4], 5, [2]),
]


def P(text, nvars):
    return al.parse_poly(text, nvars)


def is_constant(p):
    return all(all(e == 0 for e in exps) for exps in p.terms)


def recombine(f):
    """The product unit * prod(factor^multiplicity) of a Factorization."""
    out = f.unit
    for q, mult in f.factors:
        for _ in range(mult):
            out = out * q
    return out


def multiplicity(f, q):
    """The multiplicity of q's class among the factors of f, 0 if absent."""
    return dict(f.factors).get(unit_normal_form(q), 0)


def is_norm_modulo_univariate(p):
    return norm_verdict(factor_irreducible(p), skip_univariate=True)


class TestFactorization:
    @staticmethod
    def _mults(f):
        """factor multiplicities keyed by a unit-insensitive rendering"""
        out = {}
        for q, m in f.factors:
            text = al.format_poly(q)
            if text.startswith("-"):
                text = al.format_poly(-q)
            out[text] = m
        return out

    def test_simple(self):
        f = al.factor_irreducible(P("(t1-1)*(t2-1)", 2))
        assert self._mults(f) == {"t1 - 1": 1, "t2 - 1": 1}

    def test_multiplicity(self):
        f = al.factor_irreducible(P("(t-1)^3*(t+1)", 1))
        assert self._mults(f) == {"t - 1": 3, "t + 1": 1}

    def test_integer_content_primes(self):
        f = al.factor_irreducible(P("12t - 12", 1))
        assert self._mults(f) == {"2": 2, "3": 1, "t - 1": 1}

    def test_unit_input(self):
        f = al.factor_irreducible(P("-t1^2*t2^-1", 2))
        assert f.factors == ()
        assert recombine(f) == P("-t1^2*t2^-1", 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            al.factor_irreducible(LaurentPoly.zero(1))

    def test_multiplicity_query(self):
        f = al.factor_irreducible(P("(t-1)^2*(t^2+1)", 1))
        assert multiplicity(f, P("t-1", 1)) == 2
        assert multiplicity(f, P("1-t", 1)) == 2  # same class up to units
        assert multiplicity(f, P("t+1", 1)) == 0

    def test_roundtrip_random(self):
        rng = seeded(21)
        for _ in range(N_RANDOM):
            nvars = rng.choice([1, 2])
            p = random_poly(rng, nvars) * random_unit(rng, nvars)
            assert recombine(al.factor_irreducible(p)) == p

    def test_factors_are_normalized_irreducibles(self):
        rng = seeded(22)
        for _ in range(50):
            nvars = rng.choice([1, 2])
            p = random_poly(rng, nvars) * random_poly(rng, nvars)
            for q, mult in al.factor_irreducible(p).factors:
                assert mult >= 1
                assert q == unit_normal_form(q)
                sub = al.factor_irreducible(q)
                assert len(sub.factors) == 1 and sub.factors[0][1] == 1


def _expression_path_factorization(p):
    """The factorization through a sympy expression, kept as the reference.

    Converts the ordinary part to an expression and calls the symbolic
    ``sympy.factor_list``; factor_irreducible calls ``Poly.factor_list``
    on the Poly directly.  Normalization and the exact recombination
    check are the same on both routes.
    """
    import sympy
    from alexlink.factor import _symbols
    n = p.nvars
    if p.is_unit():
        return al.Factorization(unit=p, factors=())
    coeff, raw = sympy.factor_list(to_sympy(p).as_expr(), *_symbols(n))
    factors = {}
    for prime, mult in sympy.factorint(abs(int(coeff))).items():
        factors[LaurentPoly.const(n, int(prime))] = mult
    for fac, mult in raw:
        q = unit_normal_form(from_sympy(sympy.Poly(fac, *_symbols(n)), n))
        if not q.is_one():
            factors[q] = factors.get(q, 0) + mult
    ordered = tuple(sorted(factors.items(),
                           key=lambda fm: sorted(fm[0].terms.items())))
    prod = LaurentPoly.one(n)
    for f, mult in ordered:
        prod = prod * f ** mult
    return al.Factorization(unit=al.divide_exact(p, prod), factors=ordered)


class TestContentPrimes:
    """An integer content's primes: trial division up to 1000, and
    sympy's factorint only on a cofactor from 1000^2 up that the
    factorization must split."""

    CONTENTS = [1, 2, 6, 997, 997 ** 2, 991 * 997, 999983, 1009 * 1013,
                1000003 * 1000033, 2 ** 10 * 3 * 1000003 ** 2]

    def test_trial_division(self):
        import sympy
        rng = seeded(77)
        for m in self.CONTENTS + [rng.randrange(1, 10 ** rng.randrange(2, 16))
                                  for _ in range(200)]:
            powers = factor._prime_powers(m)
            assert math.prod(q ** e for q, e in powers) == m, m
            assert [q for q, _ in powers] == sorted({q for q, _ in powers})
            proved = [(q, e) for q, e in powers if q < 1000 ** 2]
            assert all(sympy.isprime(q) and m % q ** e == 0
                       and m % q ** (e + 1) for q, e in proved), m
            unproved = powers[len(proved):]
            assert len(unproved) <= 1 and all(e == 1 for _, e in unproved), m

    def test_content_factors_match_factorint(self):
        import sympy
        rng = seeded(78)
        for m in self.CONTENTS + [rng.randrange(1, 10 ** rng.randrange(2, 16))
                                  for _ in range(100)]:
            f = factor_irreducible(P(f"{m}*(t-2)", 1))
            assert {int(q.terms[(0,)]): e for q, e in f.factors
                    if not q.variables_used()} == sympy.factorint(m), m

    def test_unproved_cofactor_split(self):
        f = factor_irreducible(P("1000003*1000033*(t-2)", 1))
        assert f.unit == P("-1", 1)
        assert dict(f.factors) == {P("1000003", 1): 1, P("1000033", 1): 1,
                                   P("2-t", 1): 1}

    def test_content_six_asks_no_sympy(self, monkeypatch):
        import sympy
        monkeypatch.setattr(sympy, "factorint", None)
        f = factor_irreducible(P("6*(t^2-t+1)", 1))
        assert dict(f.factors) == {P("2", 1): 1, P("3", 1): 1,
                                   P("t^2-t+1", 1): 1}

    def test_degree_one_split_keeps_a_coefficient_cofactor_whole(
            self, monkeypatch):
        # the split reads the content of the top t1-coefficient, a
        # 150-bit semiprime that factorint took minutes to split; the
        # candidates need only divisors, so it is kept whole
        import sympy
        n = (2 ** 61 - 1) * (2 ** 89 - 1)
        monkeypatch.setattr(sympy, "factorint", None)
        left, right = P(f"{n}*t1*t2 + t2^2 + 1", 2), \
            P("t1^2*t2^2 + t1 + t2 + 1", 2)
        f = factor_irreducible(left * right)
        assert dict(f.factors) == {unit_normal_form(left): 1,
                                   unit_normal_form(right): 1}


class TestPolyPathMatchesExpressionPath:
    def test_random_products(self):
        rng = seeded(29)
        for _ in range(150):
            nvars = rng.choice([1, 2, 3])
            p = random_unit(rng, nvars)
            for _ in range(rng.randrange(1, 4)):
                p = p * random_poly(rng, nvars, max_exp=2)
            p = p * rng.choice([1, 1, 2, -6, 12])
            assert al.factor_irreducible(p) == \
                _expression_path_factorization(p), al.format_poly(p)

    def test_repeated_and_conjugate_factors(self):
        for text, nvars in [("(t1*t2-1)^2*(t1-t2)*(t1^-1-t2^-1)", 2),
                            ("-4*t1^-2*(t1+t2+t3)^3*(t2*t3-1)", 3),
                            ("(t^2-t+1)^3*(t-1)^2", 1), ("-7*t1^3*t2^-1", 2)]:
            p = P(text, nvars)
            assert al.factor_irreducible(p) == \
                _expression_path_factorization(p), text


def sympy_factorization(p):
    """The sympy-only route, kept as the reference for the certificates.

    sympy's ``Poly.factor_list`` factors the whole ordinary part and
    ``factorint`` its integer content, with no certificate on the way.
    """
    import sympy
    n = p.nvars
    if p.is_unit():
        return al.Factorization(unit=p, factors=())
    coeff, raw = to_sympy(p).factor_list()
    factors = {}
    for prime, mult in sympy.factorint(abs(int(coeff))).items():
        factors[LaurentPoly.const(n, int(prime))] = mult
    for fac, mult in raw:
        q = unit_normal_form(from_sympy(fac, n))
        if not q.is_one():
            factors[q] = factors.get(q, 0) + mult
    ordered = tuple(sorted(factors.items(),
                           key=lambda fm: sorted(fm[0].terms.items())))
    prod = LaurentPoly.one(n)
    for f, mult in ordered:
        prod = prod * f ** mult
    return al.Factorization(unit=al.divide_exact(p, prod), factors=ordered)


@st.composite
def certificate_products(draw):
    """A product in 1-4 variables of a unit, powers of 1 - t_i, an
    integer content, a conjugate pair f * conj(f) and small factors:
    sparse ones, ones of degree 1 in some t_k whose two t_k-coefficients
    are free of t_k and need not be monomials, and ones of degree 2-8 in
    some t_k, whose images in Z[t_k] have that degree."""
    nvars = draw(st.integers(1, 4))
    exps = st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars)

    def small(free_of=None, max_size=3):
        terms = draw(st.dictionaries(exps.map(tuple), st.integers(-3, 3),
                                     min_size=1, max_size=max_size))
        if free_of is not None:
            terms = {e[:free_of] + (0,) + e[free_of + 1:]: c
                     for e, c in terms.items()}
        p = LaurentPoly(nvars, terms)
        return LaurentPoly.one(nvars) if p.is_zero() else p

    def linear():
        k = draw(st.integers(0, nvars - 1))
        return small(k, 2) * LaurentPoly.var(nvars, k) + small(k, 2)

    def dense():
        k = draw(st.integers(0, nvars - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=9))
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or -1
        return sum((c * LaurentPoly.var(nvars, k, e)
                    * LaurentPoly.monomial(nvars, draw(exps))
                    for e, c in enumerate(coeffs)),
                   LaurentPoly.zero(nvars))

    p = LaurentPoly.monomial(nvars, draw(exps), draw(st.sampled_from([1, -1])))
    for i in range(nvars):
        p = p * (1 - LaurentPoly.var(nvars, i)) ** draw(st.integers(0, 2))
    p = p * draw(st.sampled_from([1, 2, 6, 9, 10]))
    if draw(st.booleans()):
        f = small()
        p = p * f * f.involute()
    for _ in range(draw(st.integers(0, 2))):
        p = p * draw(st.sampled_from([small, linear, dense]))()
    return p if not p.is_zero() else LaurentPoly.one(nvars)


class TestCertificates:
    """The certified route against the sympy-only one, and each branch."""

    def test_corpus_polynomials(self, corpus):
        polys = []
        for d in corpus:
            alex = al.alexander_data(d)
            polys += [alex.delta, alex.delta_tor]
            polys += al.component_polynomials(d, alex)
        polys = [p for p in polys if not p.is_zero()]
        assert len(polys) >= 60
        assert sum(len(p.variables_used()) >= 2 for p in polys) >= 20
        for p in polys:
            assert al.factor_irreducible(p) == sympy_factorization(p), \
                al.format_poly(p)

    @settings(max_examples=150, deadline=None)
    @given(certificate_products())
    def test_products(self, p):
        assert al.factor_irreducible(p) == sympy_factorization(p)

    @pytest.mark.parametrize("text, nvars", [
        ("1 + t1*t2", 2), ("t1*t2*t3 - t1 + 1", 3),
        ("-t1*t2*t3 + t1*t2 + t1*t3 - t2 - t3 + 1", 3),
        ("6*(t1-1)^2*(t2*t1 + 2*t2^-1 + 1)", 2),
        # reducible: the degree-one split finds a factor, here t3 - t1*t2*t4,
        # whose t3-free term is b = 1 shifted by t1*t2*t4
        ("(t1*t2*t4 - t3)*(t1^2*t2^2*t4 - t3)", 4),
        ("(t1*t2 - t1 + 1)*(t1*t2 - t2 + 1)", 2)])
    def test_linear_rule_asks_no_sympy(self, monkeypatch, text, nvars):
        def refuse(p):
            raise AssertionError("sympy asked for a polynomial")

        p = P(text, nvars)
        expected = sympy_factorization(p)
        monkeypatch.setattr(factor, "to_sympy", refuse)
        assert al.factor_irreducible(p) == expected

    @pytest.mark.parametrize("text, nvars", [
        ("t1^2*t2^2 + t1*t2 + 1", 2), ("t^4 - 3*t^3 + 5*t^2 - 3*t + 1", 1),
        ("t1^2*t2^2*t3 - t1*t2 + t1^2 + t2^2*t3^2 + 1", 3)])
    def test_image_certifies_higher_degree(self, sympy_polys, text, nvars):
        p = P(text, nvars)
        fact = al.factor_irreducible(p)
        (q, mult), = fact.factors
        assert mult == 1 and min(map(q.degree_span, q.variables_used())) >= 2
        # the image is certified in pure Python: no sympy call at all
        assert sympy_polys == []
        assert fact == sympy_factorization(p)

    def test_reducible_images_split_without_sympy(self, sympy_polys):
        # each image, 1 - 9*t1^2 or 1 - 4*t2^2, has a square discriminant;
        # the degree-one split finds 1 - t1*t2
        p = P("1 - t1^2*t2^2", 2)
        fact = al.factor_irreducible(p)
        assert sympy_polys == []
        assert [q for q, _ in fact.factors] == \
            [P("1 - t1*t2", 2), P("1 + t1*t2", 2)]
        assert fact == sympy_factorization(p)

    @pytest.mark.parametrize("text, nvars, reached, count", [
        # irreducible, and reducible mod every prime: one call, one factor
        ("t^4 + 1", 1, [1], 1),
        # reducible into quadratics with no rational root
        ("(t^2 - t + 1)^2", 1, [1], 1),
        ("t1^4*t2^4 + t1^2*t2^2 + 1", 2, [2], 2)])
    def test_no_certificate_reaches_sympy(self, sympy_polys, text, nvars,
                                          reached, count):
        p = P(text, nvars)
        fact = al.factor_irreducible(p)
        assert [x.nvars for x in sympy_polys] == reached
        assert len(fact.factors) == count
        assert fact == sympy_factorization(p)

    def test_content_split_asks_no_sympy(self, sympy_polys):
        # the t2-coefficients t1^3 - t1^2 + t1 and 1 - 2*t1 + 2*t1^2 - t1^3
        # share t1^2 - t1 + 1, read off the first one's factorization
        p = P("(t1^2 - t1 + 1)*(t1*t2 - t1 + 1)", 2)
        fact = al.factor_irreducible(p)
        assert sympy_polys == []
        assert [q for q, _ in fact.factors] == \
            [P("t1*t2 - t1 + 1", 2), P("t1^2 - t1 + 1", 2)]
        assert fact == sympy_factorization(p)

    def test_prime_dividing_the_leading_coefficient_is_skipped(self):
        # (3t + 1)(t^2 + 1) is t^2 + 1 mod 3, which has no root there; with
        # the degree dropped that would certify a reducible cubic
        image = [1, 3, 1, 3]
        assert all(factor._eval_mod([1, 0, 1], x, 3) for x in range(3))
        assert not factor._image_irreducible(image)
        # 3t^3 + t + 1 has no rational root: a prime above 3 certifies it
        assert factor._image_irreducible([1, 1, 0, 3])
        p = P("(3*t + 1)*(t^2 + 1)", 1)
        assert al.factor_irreducible(p) == sympy_factorization(p)

    def test_split_search_is_capped(self, monkeypatch, sympy_polys):
        """A top coefficient with 2^10 divisors: the degree-one split stops
        at its cap, and sympy factors the rest."""
        p = P("((t2+1)*(t2+2)*(t2+3)*(t2+4)*(t2+5)*(t2+6)*(t2+7)*(t2+8)"
              "*(t2+9)*(t2+10)*t1^2 + t1 + 1)*(t1^2*t2^2 + t1 + t2^2 + 1)", 2)
        drawn, screened = [], []
        divisors, screen = factor._divisors, factor._homogeneous_at

        def counting_divisors(parts):
            for d in divisors(parts):
                drawn.append(d)
                yield d

        def counting_screen(*args):
            screened.append(args)
            return screen(*args)

        monkeypatch.setattr(factor, "_divisors", counting_divisors)
        monkeypatch.setattr(factor, "_homogeneous_at", counting_screen)
        fact = al.factor_irreducible(p)
        assert [x.nvars for x in sympy_polys] == [2]
        assert len(drawn) < 2 ** 10
        # the cap, plus the splits that factor the top coefficient itself
        cap = factor._SPLIT_TRIES * len(p.terms)
        assert cap <= len(screened) < cap + 100
        assert fact == sympy_factorization(p)

    @pytest.mark.parametrize("word, n, reached", FACTOR_FALLBACK_WORDS)
    def test_mined_fallbacks_agree(self, sympy_polys, word, n, reached):
        """Seeded closures whose delta reaches sympy (mined by
        tests/mine_fallback_words.py), univariate and multivariate rests
        alike, against the sympy-only route."""
        delta = al.alexander_data(braid_closure(word, n)).delta
        fact = al.factor_irreducible(delta)
        assert [len(x.variables_used()) for x in sympy_polys] == reached
        assert fact == sympy_factorization(delta)

    @pytest.mark.parametrize("text", [
        # no t_k-coefficient of these is a single term, and each has a
        # factor free of some variable of degree 1
        "(t1 + 1)*(t2 + 2)", "(t1 + 1)*(t1 + t2 + 2)",
        "(t1*t2 + t2 + 2)*(t2 + 3)",
        # t1's top coefficient vanishes at t2 = 3, where the image is the
        # irreducible t1 + 10 of lower degree
        "(t1*t2^2 - 3*t1*t2 + 1)*(t1 + t2^2 + 1)"])
    def test_reducible_rest_is_not_certified(self, text):
        p = P(text, 2)
        fact = al.factor_irreducible(p)
        assert len(fact.factors) == 2
        assert fact == sympy_factorization(p)

    def test_lost_factor_raises_under_optimisation(self):
        code = (
            "from alexlink import factor, parse_poly\n"
            "real = factor._irreducible_factors\n"
            "def drop_one(p):\n"
            "    found = real(p)\n"
            "    found.pop(max(found, key=lambda q: len(q.terms)))\n"
            "    return found\n"
            "factor._irreducible_factors = drop_one\n"
            "try:\n"
            "    factor.factor_irreducible(parse_poly('(t1-1)*(t2+2)', 2))\n"
            "except AssertionError as exc:\n"
            "    print(__debug__, 'raised:', exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(al.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.startswith("False raised:"), proc.stderr
        assert "inconsistent factorization" in proc.stdout


def _interpolate(xs, ys):
    """Coefficients, constant first, of the polynomial of degree below
    len(xs) through the points (xs[i], ys[i]): Lagrange's formula, exact
    over the rationals."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, denom = [1], 1  # prod over j != i of (t - xs[j])
        for j, xj in enumerate(xs):
            if j != i:
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += Fraction(yi * b, denom)
    return coeffs


def _univariate_irreducible_by_brute_force(p):
    """Interpolation-based divisor search confirming irreducibility over Z.

    Candidate divisors of degree k are pinned down by their values at
    k+1 integer points; each value must divide p there.  Integer content
    is assumed already split off (p is primitive).
    """
    deg = p.degree_span(0)
    if deg <= 1:
        return True
    low = min(e for (e,) in p.terms)
    pts = list(range(-(deg // 2), deg // 2 + 2))
    for k in range(1, deg // 2 + 1):
        xs = pts[:k + 1]
        # the ordinary polynomial p * t^-low at each point
        vals = [sum(c * x ** (e - low) for (e,), c in p.terms.items())
                for x in xs]
        if any(v == 0 for v in vals):
            return False  # integer root: a linear factor exists
        choices = [[s * d for d in range(1, abs(v) + 1) if v % d == 0
                    for s in (1, -1)] for v in vals]
        for combo in itertools.product(*choices):
            g = _interpolate(xs, combo)
            if g[k] == 0 or any(c.denominator != 1 for c in g):
                continue
            q = LaurentPoly(1, {(e,): int(c) for e, c in enumerate(g)})
            if len(q.terms) <= 1:
                continue  # monomials are units of the Laurent ring
            if al.divides(q, p):
                return False
    return True


def _divides_mod(g, f, p):
    """Does g, monic, divide f over F_p?  Coefficients constant first."""
    f = [c % p for c in f]
    for top in range(len(f) - 1, len(g) - 2, -1):
        c = f[top]
        for i, gi in enumerate(g):
            f[top - len(g) + 1 + i] = (f[top - len(g) + 1 + i] - c * gi) % p
    return not any(f)


class TestImageCertificates:
    """The pure-Python certificates on univariate images."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_rabin_against_trial_division(self, p):
        """Irreducible over F_p exactly when no monic polynomial of degree
        1 to n/2 divides it, for every f of degree 4 to 6 drawn."""
        rng = seeded(91)
        for _ in range(150):
            n = rng.randrange(4, 7)
            f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
            irreducible = not any(
                _divides_mod(list(low) + [1], f, p)
                for d in range(1, n // 2 + 1)
                for low in itertools.product(range(p), repeat=d))
            assert factor._rabin(f, p) == irreducible, (f, p)

    def test_quadratic_by_discriminant(self):
        assert factor._image_irreducible([1, -1, 1])      # t^2 - t + 1
        assert factor._image_irreducible([2, 0, 1])       # t^2 + 2
        assert not factor._image_irreducible([-9, 0, 1])  # square
        assert not factor._image_irreducible([1, 2, 1])   # disc 0


class TestBruteForceIrreducibilityOracle:
    def test_known_irreducibles(self):
        for text in ["t^2-t+1", "t^2+1", "2t^2-3t+2", "t^4-t^3+t^2-t+1"]:
            assert _univariate_irreducible_by_brute_force(P(text, 1))

    def test_known_reducibles(self):
        for text in ["t^2-1", "t^2+2t+1", "t^3-t^2+t-1"]:
            assert not _univariate_irreducible_by_brute_force(P(text, 1))

    def test_oracle_agrees_with_factorization(self):
        rng = seeded(23)
        checked = 0
        for _ in range(300):
            p = random_poly(rng, 1, max_terms=4, max_exp=3)
            if p.degree_span(0) < 2 or p.degree_span(0) > 6:
                continue
            f = al.factor_irreducible(p)
            nonconst = [(q, m) for q, m in f.factors if not is_constant(q)]
            claim_irred = (len(nonconst) == 1 and nonconst[0][1] == 1
                           and nonconst[0][0].degree_span(0) == p.degree_span(0))
            prim = al.divide_exact(p, LaurentPoly.const(1, max(content(p), 1)))
            assert _univariate_irreducible_by_brute_force(prim) == claim_irred
            checked += 1
        assert checked > 50


class TestGcd:
    def test_basic(self):
        g = al.gcd(P("(t-1)*(t+1)", 1), P("(t-1)*(t+2)", 1))
        assert al.unit_equal(g, P("t-1", 1))

    def test_coprime(self):
        assert al.gcd(P("t1-1", 2), P("t2-1", 2)).is_one()

    def test_with_zero(self):
        p = P("t^2-1", 1)
        assert al.unit_equal(al.gcd(p, LaurentPoly.zero(1)), p)
        with pytest.raises(ZeroInputError):
            al.gcd(LaurentPoly.zero(1), LaurentPoly.zero(1))

    def test_with_zero_checks_the_ring_before_sympy(self):
        # in a fresh interpreter: sympy may be loaded here already
        code = (
            "import sys\n"
            "from alexlink import LaurentPoly, gcd, parse_poly\n"
            "p = parse_poly('t1^-1*t2 - t1^-1', 2)\n"
            "print(gcd(LaurentPoly.zero(2), p), 'sympy' in sys.modules)\n"
            "try:\n"
            "    gcd(LaurentPoly.zero(1), p)\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__, 'sympy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(al.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.splitlines() == [
            "-t2 + 1 False", "VariableCountMismatch False"], proc.stderr

    def test_gcd_many_short_circuit(self):
        g = gcd_many([P("t1-1", 2), P("t2-1", 2), P("(t1-1)*(t2-1)", 2)])
        assert g.is_one()

    def test_gcd_many_asks_no_sympy(self, sympy_polys):
        # 1 - t^-1 divides both later terms
        g = gcd_many([P("1-t^-1", 1), P("(t-1)*(t+2)", 1),
                      LaurentPoly.zero(1), P("t^3-t^5", 1)])
        assert g == unit_normal_form(P("t-1", 1))
        # a does not divide b; their gcd t - 1 divides c
        a, b, c = P("(t-1)*(t+1)", 1), P("(t-1)*(t+2)", 1), P("t^2-1", 1)
        g = gcd_many([a, b, c])
        assert g == sympy_gcd(a, b) == unit_normal_form(P("t-1", 1))
        assert sympy_polys == []

    @pytest.mark.parametrize("drawn, expected", [
        # a unit first: nothing more is drawn
        (["t1^2*t2^-1"], "1"),
        # the factors go on the second member, the content 2 on the fourth
        (["2*(t1-1)*(t2+3)", "4*(t1-1)", "0", "6*(t1+1)", "3*t2"], "1"),
        # the content alone keeps the gcd above 1 until the last member
        (["4*t1", "6*(t2-1)", "2*(t1+t2)", "5"], "1"),
        (["2*(t1-1)^2*t2", "(t1-1)^3", "(1-t1^-1)*(t2+1)"], "t1-1")])
    def test_gcd_many_stops_drawing_at_one(self, drawn, expected):
        def members():
            for text in drawn:
                yield P(text, 2)
            if not P(expected, 2).is_one():
                return
            raise AssertionError("a member drawn after the gcd reached 1")

        assert gcd_many(members()) == unit_normal_form(P(expected, 2))

    def test_matches_sympy_gcd(self):
        """gcd and gcd_many against sympy's gcd on seeded members in one
        to three variables, with negative exponents, contents above 1 and
        zero members."""
        rng = seeded(27)
        seen = {"zero member": 0, "content": 0, "all zero": 0}
        for _ in range(300):
            nvars = rng.choice([1, 2, 3])
            common = random_poly(rng, nvars, max_exp=2) * rng.choice([1, 2, 6])
            members = [LaurentPoly.zero(nvars) if rng.random() < 0.2 else
                       common * random_poly(rng, nvars, max_exp=2)
                       * rng.choice([1, 2, 3, 4])
                       for _ in range(rng.randrange(2, 5))]
            seen["zero member"] += any(p.is_zero() for p in members)
            if all(p.is_zero() for p in members):
                seen["all zero"] += 1
                with pytest.raises(ZeroInputError):
                    gcd_many(iter(members))
                continue
            expected = functools.reduce(
                sympy_gcd, [p for p in members if not p.is_zero()],
                LaurentPoly.zero(nvars))
            seen["content"] += content(expected) > 1
            assert gcd_many(iter(members)) == expected
            a, b = members[0], members[-1]
            if a.is_zero() and b.is_zero():
                with pytest.raises(ZeroInputError):
                    al.gcd(a, b)
            else:
                assert al.gcd(a, b) == sympy_gcd(a, b)
        assert min(seen.values()) >= 3, seen

    def test_gcd_divides_random(self):
        rng = seeded(24)
        for _ in range(N_RANDOM):
            nvars = rng.choice([1, 2])
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars)
            g = al.gcd(a, b)
            assert al.divides(g, a) and al.divides(g, b)

    def test_common_divisor_divides_gcd(self):
        rng = seeded(25)
        for _ in range(200):
            nvars = rng.choice([1, 2])
            c = random_poly(rng, nvars)
            a = c * random_poly(rng, nvars)
            b = c * random_poly(rng, nvars)
            assert al.divides(c, al.gcd(a, b))

    def test_gcd_matches_factorization(self):
        rng = seeded(26)
        for _ in range(100):
            nvars = rng.choice([1, 2])
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars)
            fa = {q: m for q, m in al.factor_irreducible(a).factors}
            fb = {q: m for q, m in al.factor_irreducible(b).factors}
            expected = al.LaurentPoly.one(nvars)
            for q in fa:
                if q in fb:
                    expected = expected * q ** min(fa[q], fb[q])
            assert al.unit_equal(al.gcd(a, b), expected)


class TestNormTests:
    def test_negligible_factor_shape(self):
        for i in range(3):
            one_minus = 1 - LaurentPoly.var(3, i)
            assert is_negligible_factor(one_minus)
            assert not is_negligible_factor(-one_minus)   # not normalised
            assert not is_negligible_factor(1 + LaurentPoly.var(3, i))
            assert not is_negligible_factor(1 - LaurentPoly.var(3, i, 2))
        for text in ["2", "t1 - 2", "1 - t1*t2", "t1^2 - t1 + 1"]:
            assert not is_negligible_factor(unit_normal_form(P(text, 2)))

    def test_norm_with_negligible(self):
        f = P("t1*t2 + 2", 2)
        p = f * f.involute() * P("-t1*(1-t2)", 2)
        v = al.is_norm_up_to_negligible(p)
        assert v.is_norm
        assert al.unit_equal(v.witness * v.witness.involute()
                             * al.divide_exact(p, v.witness
                                               * v.witness.involute()), p)

    def test_non_norm(self):
        v = al.is_norm_up_to_negligible(P("t2*t3-1", 3))
        assert not v.is_norm
        assert v.blocking_factors

    def test_torus_factor_blocks(self):
        # the quadratic t^2 - t + 1 is symmetric but appears once
        v = al.is_norm_up_to_negligible(P("(t1^2-t1+1)", 2))
        assert not v.is_norm

    def test_even_symmetric_power_is_norm(self):
        v = al.is_norm_up_to_negligible(P("(t1^2-t1+1)^2", 2))
        assert v.is_norm

    def test_modulo_univariate(self):
        p = P("(t1^2-t1+1)*(2t2^2-3t2+2)", 2)
        assert not al.is_norm_up_to_negligible(p).is_norm
        assert is_norm_modulo_univariate(p).is_norm

    def test_constants_count_as_univariate(self):
        assert not al.is_norm_up_to_negligible(P("2", 2)).is_norm
        assert is_norm_modulo_univariate(P("2", 2)).is_norm

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            al.is_norm_up_to_negligible(LaurentPoly.zero(1))

    def test_random_norms_accepted(self):
        rng = seeded(27)
        for _ in range(N_RANDOM):
            nvars = rng.choice([1, 2])
            f = random_poly(rng, nvars)
            n = random_negligible(rng, nvars)
            p = f * f.involute() * n
            assert al.is_norm_up_to_negligible(p).is_norm

    def test_norm_equivalent_reflexive_symmetric(self):
        rng = seeded(28)
        for _ in range(200):
            nvars = rng.choice([1, 2])
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars)
            assert al.norm_equivalent(a, a).is_norm
            assert (al.norm_equivalent(a, b).is_norm
                    == al.norm_equivalent(b, a).is_norm)

    def test_norm_equivalent_detects_norm_ratio(self):
        a = P("(t1-2)*(t1*t2+3)", 2)
        f = P("t1+t2", 2)
        b = a * f * f.involute() * P("(1-t1)", 2)
        assert al.norm_equivalent(a, b).is_norm
        c = a * P("t1*t2+5", 2)
        assert not al.norm_equivalent(a, c).is_norm


class TestOddMultiplicity:
    def test_examples(self):
        p = P("(t^2-t+1)^3*(t-2)", 1)
        q = P("t^2-t+1", 1)
        r = al.odd_multiplicity_divisor(p, q)
        assert r.multiplicity == 3 and r.forced_divides
        r = al.odd_multiplicity_divisor(P("(t^2-t+1)^2", 1), q)
        assert r.multiplicity == 2 and not r.forced_divides

    def test_published_band_clasping_polynomial(self):
        p = P("(1-t1+t1^2)*(1-t2+t2^2)*(t1^-1-1+t2)*(t1-1+t2^-1)", 2)
        q = P("t2^2-t2+1", 2)
        assert al.odd_multiplicity_divisor(p, q).multiplicity == 1
        q1 = P("t1^2-t1+1", 2)
        assert al.odd_multiplicity_divisor(p, q1).multiplicity == 1

    def test_preconditions(self):
        q = P("t^2-t+1", 1)
        with pytest.raises(ValueError):
            al.odd_multiplicity_divisor(P("t", 1), P("t^2-1", 1))
        with pytest.raises(ValueError):
            al.odd_multiplicity_divisor(P("t", 1), P("1-t", 1))
        with pytest.raises(ValueError, match="negligible"):
            al.odd_multiplicity_divisor(P("t2", 2), P("-t1*t2^-1+t1", 2))
        with pytest.raises(ValueError):
            al.odd_multiplicity_divisor(P("t", 1), P("t-2", 1))
        with pytest.raises(ZeroInputError):
            al.odd_multiplicity_divisor(LaurentPoly.zero(1), q)
