"""Ring arithmetic, normal forms, division and the text syntax."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alexlink as al
from alexlink import laurent
from alexlink.laurent import (COEFFICIENT_BIT_BUDGET, EXPONENT_LIMIT,
                              ExponentLimitExceeded, LaurentPoly,
                              NotDivisible, VariableCountMismatch,
                              ZeroInputError, embed_univariate,
                              unit_normal_form)

from conftest import (content, evaluate, is_negligible, negligible_decompose,
                      random_negligible, random_poly, random_unit, seeded,
                      shift)

N_RANDOM = 1000


class RefPoly:
    """The tuple-keyed arithmetic: exponent tuples as keys, no packing.

    The reference for LaurentPoly's packed monomials: every operation
    works on ``terms`` directly, the way the ring was first written.
    """

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = {tuple(e): c for e, c in terms.items() if c}

    def __eq__(self, other):
        return self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return RefPoly(self.nvars, terms)

    def __neg__(self):
        return RefPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return RefPoly(self.nvars, out)

    def involute(self):
        return RefPoly(self.nvars, {tuple(-x for x in e): c
                                    for e, c in self.terms.items()})

    def shift(self, exps, sign=1):
        return RefPoly(self.nvars, {tuple(x + y for x, y in zip(e, exps)):
                                    sign * c for e, c in self.terms.items()})

    def to_polynomial(self):
        mins = tuple(map(min, zip(*self.terms)))
        return mins, {tuple(x - m for x, m in zip(e, mins)): c
                      for e, c in self.terms.items()}

    def unit_normal_form(self):
        _, shifted = self.to_polynomial()
        if shifted[min(shifted)] < 0:
            shifted = {e: -c for e, c in shifted.items()}
        return RefPoly(self.nvars, shifted)

    def divide_exact(self, b):
        """Long division of the shifted ordinary polynomials, lex order."""
        if not self.terms:
            return RefPoly(self.nvars, {})
        n = self.nvars
        shift_a, rest = self.to_polynomial()
        shift_b, pb = b.to_polynomial()
        lead_b = max(pb)
        quot = {}
        while rest:
            lead_r = max(rest)
            qe = tuple(x - y for x, y in zip(lead_r, lead_b))
            if any(e < 0 for e in qe) or rest[lead_r] % pb[lead_b]:
                raise NotDivisible
            qc = rest[lead_r] // pb[lead_b]
            quot[qe] = qc
            for eb, c in pb.items():
                key = tuple(x + y for x, y in zip(qe, eb))
                rest[key] = rest.get(key, 0) - qc * c
                if not rest[key]:
                    del rest[key]
        return RefPoly(n, quot).shift(
            tuple(x - y for x, y in zip(shift_a, shift_b)))


def ref(p):
    return RefPoly(p.nvars, p.terms)


def unit_vector(n, i):
    return tuple(int(j == i) for j in range(n))


def recombine(dec):
    """sign * t^monomial * prod (1-t_i)^exponents[i] * core."""
    n = dec.core.nvars
    out = shift(dec.core, dec.monomial, dec.sign)
    for i, s in enumerate(dec.one_minus_t_exponents):
        out = out * (LaurentPoly.one(n) - LaurentPoly.var(n, i)) ** s
    return out


def same(p, r):
    """p (a LaurentPoly) has exactly the terms of r (a RefPoly)."""
    return p.nvars == r.nvars and p.terms == r.terms


checked = settings(max_examples=150, deadline=None, derandomize=True,
                   database=None)


@st.composite
def polys(draw, nvars=None, nonzero=False, exps=st.integers(-4, 4)):
    """(p, q, r): three polynomials in one ring of 1 to 3 variables."""
    n = nvars or draw(st.integers(1, 3))
    out = []
    for _ in range(3):
        terms = draw(st.dictionaries(
            st.tuples(*[exps] * n), st.integers(-6, 6),
            min_size=1 if nonzero else 0, max_size=5))
        if nonzero and not any(terms.values()):
            terms[(0,) * n] = 1
        out.append(LaurentPoly(n, terms))
    return out


class TestAgainstTupleReference:
    @checked
    @given(polys())
    def test_ring_operations_match(self, pqr):
        p, q, _ = pqr
        assert same(p + q, ref(p) + ref(q))
        assert same(p - q, ref(p) - ref(q))
        assert same(-p, -ref(p))
        assert same(p * q, ref(p) * ref(q))
        assert same(p.involute(), ref(p).involute())

    @checked
    @given(polys())
    def test_ring_axioms(self, pqr):
        p, q, r = pqr
        n = p.nvars
        zero, one = LaurentPoly.zero(n), LaurentPoly.one(n)
        assert p + q == q + p and p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero == p and p * one == p and (p * zero).is_zero()
        assert (p - p).is_zero() and p + (-p) == zero
        assert hash(p * q) == hash(q * p)

    @checked
    @given(polys(nonzero=True), st.data())
    def test_unit_normal_form_and_involute_match(self, pqr, data):
        p, _, _ = pqr
        assert same(unit_normal_form(p), ref(p).unit_normal_form())
        assert same(p.involute(), ref(p).involute())
        assert p.involute().involute() == p
        exps = data.draw(st.tuples(*[st.integers(-50, 50)] * p.nvars))
        sign = data.draw(st.sampled_from([1, -1]))
        assert same(shift(p, exps, sign), ref(p).shift(exps, sign))
        assert unit_normal_form(shift(p, exps, sign)) == unit_normal_form(p)

    @checked
    @given(polys(nonzero=True))
    def test_divide_exact_matches(self, pqr):
        a, b, c = pqr
        assert same(al.divide_exact(a * b, b), ref(a))
        # a + c is usually not a multiple of b: both must agree either way
        try:
            expected = ref(a + c).divide_exact(ref(b))
        except NotDivisible:
            with pytest.raises(NotDivisible):
                al.divide_exact(a + c, b)
        else:
            assert same(al.divide_exact(a + c, b), expected)

    @checked
    @given(polys(exps=st.integers(1 - EXPONENT_LIMIT, EXPONENT_LIMIT - 1)))
    def test_terms_round_trip(self, pqr):
        for p in pqr:
            assert LaurentPoly(p.nvars, p.terms) == p
            assert LaurentPoly(p.nvars, p.terms).terms == p.terms

    @checked
    @given(st.integers(1, 3), st.data())
    def test_terms_are_the_input_cleaned(self, n, data):
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(-EXPONENT_LIMIT + 1,
                                    EXPONENT_LIMIT - 1)] * n),
            st.integers(-3, 3), max_size=6))
        p = LaurentPoly(n, terms)
        assert p.terms == {e: c for e, c in terms.items() if c}
        assert same(p, RefPoly(n, terms))
        assert sorted(p.terms) == sorted(RefPoly(n, terms).terms)


def check_ring_maps(p):
    """p's diagonal map agrees with ``evaluate``."""
    assert p.eval_diagonal() == evaluate(p, [(1,)] * p.nvars, 1)


class TestRingMapsAgainstEvaluate:
    """The packed maps against the general substitution ``evaluate``."""

    @checked
    @given(st.integers(1, 4), st.data())
    def test_maps_match(self, n, data):
        exps = data.draw(st.sampled_from([
            st.integers(-6, 6),
            st.integers(1 - EXPONENT_LIMIT // 4, EXPONENT_LIMIT // 4 - 1)]))
        p = LaurentPoly(n, data.draw(st.dictionaries(
            st.tuples(*[exps] * n), st.integers(-6, 6), max_size=6)))
        check_ring_maps(p)
        u = LaurentPoly(1, {(e,): c for (e, *_), c in p.terms.items()})
        for m in range(1, 5):
            for i in range(m):
                assert embed_univariate(u, i, m) == \
                    evaluate(u, [unit_vector(m, i)], m)

    def test_seeded_cancellation(self):
        rng = seeded(16)
        for _ in range(300):
            # eight terms in at most four variables: many merge or cancel
            check_ring_maps(random_poly(rng, rng.randrange(1, 5), max_terms=8,
                                        max_exp=2, allow_zero=True))

    def test_diagonal_checks_the_limit(self):
        half = EXPONENT_LIMIT // 2
        p = LaurentPoly(2, {(half, half): 1, (half, -half): 1})
        with pytest.raises(ExponentLimitExceeded):
            evaluate(p, [(1,), (1,)], 1)
        with pytest.raises(ExponentLimitExceeded):
            p.eval_diagonal()
        q = LaurentPoly(2, {(half, -half): 2, (1 - half, half - 1): 1})
        assert q.eval_diagonal() == evaluate(q, [(1,), (1,)], 1) == P("3", 1)

    def test_bad_arguments(self):
        p = P("t1*t2 - 1", 2)
        for i in (-1, 2):
            with pytest.raises(ValueError):
                embed_univariate(P("t-1", 1), i, 2)
        with pytest.raises(VariableCountMismatch):
            embed_univariate(p, 0, 2)


class TestExponentLimit:
    def test_constructor_checks_the_limit(self):
        LaurentPoly(2, {(EXPONENT_LIMIT - 1, 1 - EXPONENT_LIMIT): 1})
        for exps in [(EXPONENT_LIMIT, 0), (0, -EXPONENT_LIMIT)]:
            with pytest.raises(ExponentLimitExceeded):
                LaurentPoly(2, {exps: 1})
        with pytest.raises(ExponentLimitExceeded):
            LaurentPoly.var(3, 1, EXPONENT_LIMIT)
        assert issubclass(ExponentLimitExceeded, ValueError)

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_repeated_squaring_raises_and_never_aliases(self, nvars):
        for i in range(nvars):
            x = LaurentPoly.var(nvars, i)
            p = x * x.involute() - x + 3    # exponents -1, 0 and 1
            power = 1
            while True:
                try:
                    p = p * p
                except ExponentLimitExceeded:
                    break
                power *= 2
                # the product is a polynomial in t_i alone: no exponent
                # has carried into another variable's digit
                assert p.variables_used() == {i}
                assert {exps[i] for exps in p.terms} <= \
                    set(range(-power, power + 1))
                assert len(p.terms) <= 2 * power + 1
                if power >= 16:
                    break
            mono = x
            e = 1
            while True:
                try:
                    mono = mono * mono
                except ExponentLimitExceeded:
                    break
                e *= 2
                assert e < EXPONENT_LIMIT
                assert mono.terms == {tuple(e if j == i else 0
                                            for j in range(nvars)): 1}
            assert e == EXPONENT_LIMIT // 2
            assert (mono * x).terms == {
                tuple(e + 1 if j == i else 0 for j in range(nvars)): 1}
            with pytest.raises(ExponentLimitExceeded):
                mono ** 2
            with pytest.raises(ExponentLimitExceeded):
                mono.involute() * mono.involute()
            with pytest.raises(ExponentLimitExceeded):
                shift(mono, (e,) * nvars)

    def test_division_and_normal_form_stay_exact_near_the_limit(self):
        big = EXPONENT_LIMIT - 2
        a = LaurentPoly(2, {(big, -big): 3, (0, 0): -1})
        b = LaurentPoly(2, {(0, 1): 1, (1, 0): 2})
        assert al.divide_exact(a * b, b) == a
        # the least monomial in lex order, t2^big, gets coefficient +1
        assert unit_normal_form(a).terms == {(big, 0): -3, (0, big): 1}
        with pytest.raises(NotDivisible):
            al.divide_exact(a, b)
        c = LaurentPoly(2, {(big, 0): 1})
        with pytest.raises(ExponentLimitExceeded):
            al.divide_exact(c, c.involute())


def P(text, nvars):
    return al.parse_poly(text, nvars)


class TestBasics:
    def test_zero_and_one(self):
        z = LaurentPoly.zero(2)
        assert z.is_zero() and not z.is_one()
        assert LaurentPoly.one(2).is_one()

    def test_terms_are_cleaned(self):
        p = LaurentPoly(1, {(0,): 2, (1,): 0})
        assert p.terms == {(0,): 2}

    def test_variable_count_mismatch(self):
        with pytest.raises(VariableCountMismatch):
            P("t1", 1) + P("t1", 2)

    def test_int_coercion(self):
        p = P("t1", 2)
        assert p + 1 == P("t1+1", 2)
        assert 2 * p == P("2t1", 2)
        assert 1 - p == P("1-t1", 2)

    def test_pow(self):
        p = P("t+1", 1)
        assert p ** 3 == P("t^3+3t^2+3t+1", 1)
        assert p ** 0 == 1

    def test_is_unit(self):
        assert P("t1*t2^-3", 2).is_unit()
        assert P("-t^2", 1).is_unit()
        assert not P("2t", 1).is_unit()
        assert not P("t+1", 1).is_unit()

    def test_involute(self):
        p = P("t1^2*t2 - 3", 2)
        assert p.involute() == P("t1^-2*t2^-1 - 3", 2)

    def test_eval_diagonal(self):
        p = P("t1*t2 - t1", 2)
        assert p.eval_diagonal() == P("t^2 - t", 1)


class TestParserFormatter:
    def test_parse_basic(self):
        assert P("(t1-1)*(t2-1)", 2) == P("t1*t2 - t1 - t2 + 1", 2)

    def test_implicit_multiplication(self):
        assert P("2t1(t2-1)", 2) == P("2*t1*t2 - 2*t1", 2)

    def test_negative_exponent(self):
        assert P("t^-2", 1) == LaurentPoly.var(1, 0, -2)
        assert P("-t1^-1*t2", 2) == LaurentPoly(2, {(-1, 1): -1})

    def test_negative_exponent_rejected_on_sums(self):
        with pytest.raises(al.PolyParseError):
            P("(t+1)^-1", 1)

    def test_bare_t_only_univariate(self):
        assert P("t", 1) == LaurentPoly.var(1, 0)
        with pytest.raises(al.PolyParseError):
            P("t", 2)

    def test_out_of_range_variable(self):
        with pytest.raises(al.PolyParseError):
            P("t3", 2)

    def test_error_has_position(self):
        with pytest.raises(al.PolyParseError) as exc:
            P("t1 + %", 2)
        assert "^" in str(exc.value)

    LIMIT_MESSAGE = (f"an exponent could reach {EXPONENT_LIMIT}, beyond the "
                     f"limit of ±{EXPONENT_LIMIT - 1}")
    DIGITS_MESSAGE = "a number of 5000 digits exceeds the bound of 4096 bits"

    @pytest.mark.parametrize("text, nvars, message, pos", [
        ("t+1)", 1, "unexpected trailing input", 3),
        ("t1 t2 3 )", 2, "unexpected trailing input", 8),
        ("(t+1", 1, "expected ')'", 4),
        ("( t + 1 ", 1, "expected ')'", 8),
        ("t1 + t", 2, "variable needs an index, e.g. t1", 5),
        ("t 1", 2, "variable needs an index, e.g. t1", 0),
        ("t1*t3", 2, "variable t3 outside ring with 2 variables", 3),
        ("t0", 1, "variable t0 outside ring with 1 variables", 0),
        ("t1 + %", 2, "expected a coefficient, variable or '('", 5),
        ("", 1, "expected a coefficient, variable or '('", 0),
        ("2* ", 1, "expected a coefficient, variable or '('", 3),
        ("--t+ -", 1, "expected a coefficient, variable or '('", 6),
        ("t^x", 1, "expected an integer", 2),
        ("t^ - x", 1, "expected an integer", 5),
        ("t^--2", 1, "expected an integer", 3),
        ("t1 t2 ^", 2, "expected an integer", 7),
        ("(t+1)^-1", 1, "negative exponents only allowed on monomials", 8),
        ("(2t)^-1", 1, "negative exponents only allowed on unit monomials",
         7),
        ("(-2*t1)^ -3", 2,
         "negative exponents only allowed on unit monomials", 11),
        ("7^3000000", 1, "power with coefficients of up to 8422065 bits "
         "exceeds the bound of 4096 bits", 9),
        ("(9999999*t+1)^ 250", 1, "power with coefficients of up to 5813 "
         "bits exceeds the bound of 4096 bits", 18),
        ("t^1152921504606846976", 1, LIMIT_MESSAGE, 21),
        ("t1^1152921504606846975*t1 + t2", 2, LIMIT_MESSAGE, 26),
        ("(t^1073741824)^1073741824", 1, LIMIT_MESSAGE, 25),
        # int() and str() refuse past 4,300 digits: each is refused
        # before it is read or multiplied out
        pytest.param("1" * 5000 + "*t", 1, DIGITS_MESSAGE, 0, id="literal"),
        pytest.param("t^" + "1" * 5000, 1, DIGITS_MESSAGE, 2, id="exponent"),
        pytest.param("t^-" + "1" * 5000, 1, DIGITS_MESSAGE, 3,
                     id="negative-exponent"),
        pytest.param("t" + "1" * 5000, 2, DIGITS_MESSAGE, 1, id="index"),
        pytest.param("2^4000*2^4000*2^4000*2^4000*2^4000*t", 1,
                     "product with coefficients of up to 8000 bits exceeds "
                     "the bound of 4096 bits", 13, id="product"),
        pytest.param("(2^2048+2^2040)(2^2048)", 1,
                     "product with coefficients of up to 4096 bits exceeds "
                     "the bound of 4096 bits", 23, id="juxtaposed-product"),
    ])
    def test_error_message_and_position(self, text, nvars, message, pos):
        with pytest.raises(al.PolyParseError) as exc:
            P(text, nvars)
        assert exc.value.pos == pos
        assert str(exc.value) == (f"{message} at position {pos}\n"
                                  f"  {text}\n  {' ' * pos}^")

    def test_digit_and_product_bounds_are_the_bit_budget(self):
        most = len(str(2 ** COEFFICIENT_BIT_BUDGET))
        assert P("9" * most, 1) == LaurentPoly.const(1, int("9" * most))
        with pytest.raises(al.PolyParseError, match=f"{most + 1} digits"):
            P("9" * (most + 1), 1)
        assert P("2^2048*2^2048*t", 1) == \
            LaurentPoly.monomial(1, (1,), 2 ** COEFFICIENT_BIT_BUDGET)
        with pytest.raises(al.PolyParseError, match="4097 bits"):
            P("2^2048*2^2049", 1)

    @pytest.mark.parametrize("text, pos", [
        ("t²+1", 1), ("٣*t", 0), ("t^٣", 2), ("t³", 1), ("2٣", 1),
        ("t + ٣", 4),
    ])
    def test_only_ascii_digits_are_numbers(self, text, pos):
        # str.isdigit holds for '²' (int() rejects it) and for '٣'
        # (int() reads it as 3); neither is a digit of the syntax
        with pytest.raises(al.PolyParseError) as exc:
            P(text, 1)
        assert exc.value.pos == pos

    def test_roundtrip_random(self):
        rng = seeded(11)
        for _ in range(N_RANDOM):
            nvars = rng.choice([1, 2, 3])
            p = random_poly(rng, nvars, allow_zero=True)
            assert P(al.format_poly(p), nvars) == p


class TestUnitNormalForm:
    def test_shifts_to_origin(self):
        p = P("t1^-2*t2 - t1^-1", 2)
        q = unit_normal_form(p)
        assert all(min(e[i] for e in q.terms) == 0 for i in range(2))

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            unit_normal_form(LaurentPoly.zero(1))

    def test_unit_equal(self):
        assert al.unit_equal(P("t^2-t", 1), P("1-t", 1))
        assert not al.unit_equal(P("t+1", 1), P("t-1", 1))
        assert al.unit_equal(LaurentPoly.zero(2), LaurentPoly.zero(2))

    def test_unit_equal_checks_the_ring_before_zero(self):
        with pytest.raises(VariableCountMismatch):
            al.unit_equal(LaurentPoly.zero(1), P("t1-t2", 2))

    def test_normalization_random(self):
        rng = seeded(12)
        for _ in range(N_RANDOM):
            nvars = rng.choice([1, 2, 3])
            p = random_poly(rng, nvars)
            u = random_unit(rng, nvars)
            assert al.unit_equal(p, p * u)
            assert unit_normal_form(p * u) == unit_normal_form(p)

    def test_involution_random(self):
        rng = seeded(13)
        for _ in range(N_RANDOM):
            nvars = rng.choice([1, 2, 3])
            p = random_poly(rng, nvars)
            q = random_poly(rng, nvars)
            assert p.involute().involute() == p
            assert (p * q).involute() == p.involute() * q.involute()
            assert (p + q).involute() == p.involute() + q.involute()


class TestDivision:
    def test_exact(self):
        a = P("(t1-1)*(t2-1)", 2)
        assert al.divide_exact(a, P("t1-1", 2)) == P("t2-1", 2)

    def test_not_divisible(self):
        with pytest.raises(al.NotDivisible):
            al.divide_exact(P("t+1", 1), P("t-1", 1))
        with pytest.raises(al.NotDivisible):
            al.divide_exact(P("2t+2", 1), P("4", 1))

    def test_zero_numerator(self):
        assert al.divide_exact(LaurentPoly.zero(1), P("t", 1)).is_zero()

    def test_zero_numerator_checks_the_ring(self):
        with pytest.raises(VariableCountMismatch):
            al.divide_exact(LaurentPoly.zero(1), P("t1-t2", 2))

    def test_divides_zero_checks_the_ring(self):
        with pytest.raises(VariableCountMismatch):
            al.divides(P("t1-t2", 2), LaurentPoly.zero(1))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            al.divide_exact(P("t", 1), LaurentPoly.zero(1))

    def test_laurent_shift_divisor(self):
        a = P("t^-1 - 2 + t", 1)
        b = P("1 - t", 1)
        q = al.divide_exact(a, b)
        assert b * q == a

    def test_divides(self):
        assert al.divides(P("t-1", 1), P("t^2-1", 1))
        assert not al.divides(P("t^2-1", 1), P("t-1", 1))

    def test_divides_formats_nothing(self, monkeypatch):
        # a failed check builds no message; divide_exact still names both
        def refuse(p):
            raise AssertionError("a polynomial was formatted")

        a, b = P("t1^2 + t2", 2), P("t1 - t2", 2)
        monkeypatch.setattr(laurent, "format_poly", refuse)
        assert not al.divides(b, a)
        monkeypatch.undo()
        with pytest.raises(al.NotDivisible, match=r"t1\^2 \+ t2 .* t1 - t2"):
            al.divide_exact(a, b)

    def test_leading_terms_come_off_a_heap(self, monkeypatch):
        """Each remainder key is pushed once when it enters, so the heap
        sees at most |q| * (|b| - 1) pushes and |a| + pushes pops: the
        division costs O(|q| |b| log) and not a scan of the remainder
        per quotient term."""
        counts = {"push": 0, "pop": 0}

        def counted(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(laurent, "heappush",
                            counted("push", laurent.heappush))
        monkeypatch.setattr(laurent, "heappop",
                            counted("pop", laurent.heappop))
        f, g = P("(t1+t2+t3+1)^6", 3), P("(t1*t2*t3-2)^2", 3)
        for q, b in ((f, g), (g, f)):
            a = q * b
            counts.update(push=0, pop=0)
            assert laurent._quotient(a, b) == q
            assert counts["push"] <= len(q.terms) * (len(b.terms) - 1)
            assert len(q.terms) <= counts["pop"] <= \
                len(a.terms) + counts["push"]

    def test_divide_product_random(self):
        rng = seeded(14)
        for _ in range(N_RANDOM):
            nvars = rng.choice([1, 2, 3])
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars)
            assert al.divide_exact(a * b, b) == a


class TestNegligible:
    def test_unit_is_negligible(self):
        assert is_negligible(P("-t1^2*t2^-1", 2))

    def test_one_minus_t_is_negligible(self):
        assert is_negligible(P("(1-t1)^2*(1-t2)", 2))
        assert is_negligible(P("t-1", 1))

    def test_not_negligible(self):
        assert not is_negligible(P("t+1", 1))
        assert not is_negligible(P("2", 1))
        assert not is_negligible(P("t1*t2-1", 2))

    def test_decomposition_structure(self):
        p = P("-t1*(1-t1)*(1-t2)^2*(t1*t2+1)", 2)
        dec = negligible_decompose(p)
        assert dec.one_minus_t_exponents == (1, 2)
        assert al.unit_equal(dec.core, P("t1*t2+1", 2))
        assert recombine(dec) == p

    def test_decompose_recombine_random(self):
        rng = seeded(15)
        for _ in range(N_RANDOM // 2):
            nvars = rng.choice([1, 2])
            p = random_poly(rng, nvars) * random_negligible(rng, nvars)
            dec = negligible_decompose(p)
            assert recombine(dec) == p
            at_one = [(0,) * nvars] + [unit_vector(nvars, j)
                                       for j in range(1, nvars)]
            assert dec.core.is_one() or \
                not evaluate(dec.core, at_one, nvars).is_zero()


def test_content():
    assert content(P("6t - 4", 1)) == 2
    assert content(LaurentPoly.zero(1)) == 0
