"""Factorization over the Laurent ring and norm-pairing decision procedures.

The ring Z[t1^±1, ..., tm^±1] is a UFD whose units are the signed
monomials.  A factorization splits the integer content into primes,
which are honest irreducible elements here since the coefficient ring is
Z, and divides off each 1 - t_i while the rest vanishes at t_i = 1.  The
rest is then certified irreducible where it can be.  Read it as a
polynomial in one variable t_k: when the gcd of its coefficients is a
unit (one coefficient a single term is enough), every factor has
positive degree in t_k.  So it is irreducible when its degree in t_k is
1, and when its image in Z[t_k], the other variables at fixed integers,
keeps that degree and is irreducible over Q, since the factors' images
would keep their degrees and factor the image.  Both certificates are
proofs, not tests of likelihood.  A rest with no certificate is shifted
to an ordinary polynomial and factored over the integers by sympy.
Factorization is unique up to units, so the routes agree.

On top of the factorization we decide the "norm" questions that drive
the link obstructions: whether p equals f * conj(f) times a unit of the
localized ring (a negligible polynomial), with variants that ignore
single-variable factors or compare two polynomials.

sympy is imported only in the branches that call it, so that callers
whose factorizations need no image (each rest of degree 1 in some
variable), and which take no gcd beyond exact division, never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .laurent import (LaurentPoly, NotDivisible, ZeroInputError,
                      _to_polynomial, divide_exact, divides, unit_equal,
                      unit_normal_form)


# sympy's dense polynomials nest one list per variable and its routines
# recurse through them, about two frames per variable.  The smallest
# recursion limit under which ``alexlink factor "t1-1" --vars n`` runs is
# 119 for n up to 32, 140 for n = 64 and 268 for n = 128; n = 500 fails
# at the default limit of 1000.
MAX_FACTOR_VARS = 64

_symbol_cache = {}


def _symbols(nvars):
    import sympy
    if nvars not in _symbol_cache:
        _symbol_cache[nvars] = sympy.symbols(f"t1:{nvars + 1}")
    return _symbol_cache[nvars]


def to_sympy(p):
    """Ordinary-polynomial part of p as a sympy Poly (unit part dropped)."""
    import sympy
    _, terms = _to_polynomial(p)
    return sympy.Poly.from_dict(terms, *_symbols(p.nvars), domain=sympy.ZZ)


def from_sympy(poly, nvars):
    """Inverse of to_sympy for ordinary polynomials: ``poly`` is a sympy
    Poly in t1..t_nvars."""
    terms = {tuple(int(e) for e in exps): int(c)
             for exps, c in poly.as_dict().items()}
    return LaurentPoly(nvars, terms)


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity) = the input, exactly.

    The unit is a signed monomial; factors are distinct irreducibles in
    unit normal form, each with multiplicity >= 1.  Prime integers count
    as irreducible factors (the coefficient ring is Z, not a field).
    """
    unit: LaurentPoly
    factors: tuple  # of (LaurentPoly, int) pairs, deterministic order


def factor_irreducible(p):
    """Complete factorization of p into irreducibles over the Laurent ring.

    The factors come from ``_irreducible_factors``; their product is
    checked against p by exact division, and an explicit raise, not an
    assert, reports a factor lost on the way.
    """
    if p.is_zero():
        raise ZeroInputError("cannot factor the zero polynomial")
    n = p.nvars
    ordered = tuple(sorted(_irreducible_factors(p).items(),
                           key=lambda fm: (sorted(fm[0].terms.items()),)))
    prod = LaurentPoly.one(n)
    for f, mult in ordered:
        prod = prod * (f ** mult)
    try:
        unit = divide_exact(p, prod)
    except NotDivisible:
        unit = None
    if unit is None or not unit.is_unit():
        raise AssertionError(
            f"the factors of {p} multiply to {prod}, which is not p times "
            f"a unit: inconsistent factorization")
    return Factorization(unit=unit, factors=ordered)


def _irreducible_factors(p):
    """{irreducible in unit normal form: multiplicity} of a nonzero p.

    The integer content goes to sympy's ``factorint`` only when it is
    above 1, and each 1 - t_i is divided off while the rest vanishes at
    t_i = 1.  A rest that ``_certified_irreducible`` proves irreducible
    is one factor; any other goes to sympy's ``Poly.factor_list``.
    Factorization is unique up to units, so both routes give the same
    factors.
    """
    n = p.nvars
    factors = {}
    rest = p
    content = math.gcd(*p.terms.values())
    if content > 1:
        from sympy import factorint
        for prime, mult in factorint(content).items():
            factors[LaurentPoly.const(n, int(prime))] = mult
        rest = LaurentPoly(n, {e: c // content for e, c in p.terms.items()})
    for i in range(n):
        one_minus = 1 - LaurentPoly.var(n, i)
        while _vanishes_at_one(rest, i):
            rest = divide_exact(rest, one_minus)
            factors[one_minus] = factors.get(one_minus, 0) + 1
    if rest.is_unit():
        return factors
    rest = unit_normal_form(rest)
    if _certified_irreducible(rest):
        factors[rest] = 1
        return factors
    for fac, mult in to_sympy(rest).factor_list()[1]:
        q = unit_normal_form(from_sympy(fac, n))
        factors[q] = factors.get(q, 0) + mult
    return factors


def _vanishes_at_one(p, i):
    """Is p zero at t_i = 1, that is, divisible by 1 - t_i?"""
    sums = {}
    for exps, c in p.terms.items():
        key = exps[:i] + exps[i + 1:]
        sums[key] = sums.get(key, 0) + c
    return not any(sums.values())


def _coefficients(q, k):
    """q's coefficients as a polynomial in t_k: {t_k-exponent: poly}."""
    terms = {}
    for exps, c in q.terms.items():
        terms.setdefault(exps[k], {})[exps[:k] + (0,) + exps[k + 1:]] = c
    return {e: LaurentPoly(q.nvars, t) for e, t in terms.items()}


def _primitive_in(coeffs):
    """Is the gcd of ``coeffs``, whose integer content is 1, a unit?

    Every common factor divides the coefficient with fewest terms, so
    the gcd is a unit exactly when each irreducible factor of that one,
    prime integers aside, fails to divide some other coefficient.
    """
    low, *others = sorted(coeffs, key=lambda c: len(c.terms))
    return low.is_monomial() or all(
        f.is_monomial() or not all(divides(f, c) for c in others)
        for f in _irreducible_factors(low))


# t_j maps to _IMAGE_POINT + j in ``_certified_irreducible``'s image
_IMAGE_POINT = 2


def _certified_irreducible(q):
    """Does a cheap certificate prove q irreducible?

    q is in unit normal form, with integer content 1.  Read q as a
    polynomial in t_k.  When its coefficients have a unit gcd (one of
    them a single term suffices), q has no factor free of t_k, so every
    proper factorization has both factors of positive degree in t_k.
    Then q is irreducible when its degree in t_k is 1.  Otherwise map
    each other variable t_j to the integer ``_IMAGE_POINT`` + j: when
    the image in Z[t_k] keeps q's degree, so do the images of the
    factors, so an image irreducible over Q (sympy's univariate
    factorization) proves q irreducible.  False means no certificate,
    not reducible.
    """
    for span, k in sorted((q.degree_span(k), k) for k in q.variables_used()):
        coeffs = _coefficients(q, k)
        if span > 1:
            image = LaurentPoly(1, {(e,): _at_point(c) for e, c in coeffs.items()})
            if image.degree_span(0) < span:
                continue
            (_, mult), *others = to_sympy(image).factor_list()[1]
            if mult > 1 or others:
                return False
        return _primitive_in(coeffs.values())
    return False


def _at_point(p):
    """p with each t_j at _IMAGE_POINT + j, an integer (exponents >= 0)."""
    total = 0
    for exps, c in p.terms.items():
        for j, e in enumerate(exps):
            c *= (_IMAGE_POINT + j) ** e
        total += c
    return total


def gcd(a, b):
    """A greatest common divisor of a and b, in unit normal form."""
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise ZeroInputError("gcd(0, 0) is undefined")
    if a.is_zero():
        return unit_normal_form(b)
    if b.is_zero():
        return unit_normal_form(a)
    import sympy
    return unit_normal_form(
        from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)), a.nvars))


def gcd_many(polys):
    """GCD of a sequence, short-circuiting once it collapses to 1.

    Calls sympy only when the running gcd does not divide the next term.
    """
    acc = None
    for p in polys:
        if p.is_zero():
            continue
        if acc is None:
            acc = unit_normal_form(p)
        elif not divides(acc, p):
            acc = gcd(acc, p)
        if acc.is_one():
            return acc
    if acc is None:
        raise ZeroInputError("gcd of all-zero family is undefined")
    return acc


@dataclass(frozen=True)
class NormVerdict:
    """Outcome of a norm-pairing test.

    When ``is_norm`` holds, ``witness`` is an f with the tested quantity
    equal to f * conj(f) times whatever slack the particular test allows.
    Otherwise ``blocking_factors`` lists the irreducible classes that
    cannot be paired off.
    """
    is_norm: bool
    witness: LaurentPoly = None
    blocking_factors: tuple = ()


def _conjugate_class(q):
    return unit_normal_form(q.involute())


def _pair_off(classes, nvars):
    """Core pairing logic on a dict {irreducible normal form: multiplicity}.

    Multiplicities may be negative (signed differences).  A self-conjugate
    class needs even multiplicity; otherwise a class and its conjugate
    class need equal multiplicity.  Returns a NormVerdict.
    """
    blocking = []
    witness = LaurentPoly.one(nvars)
    seen = set()
    for q in sorted(classes, key=lambda f: sorted(f.terms.items())):
        if q in seen:
            continue
        mult = classes[q]
        qbar = _conjugate_class(q)
        if qbar == q:
            seen.add(q)
            if mult % 2 != 0:
                blocking.append(q)
            elif mult > 0:
                witness = witness * (q ** (mult // 2))
        else:
            seen.add(q)
            seen.add(qbar)
            other = classes.get(qbar, 0)
            if mult != other:
                blocking.append(q)
            elif mult > 0:
                witness = witness * (q ** mult)
    if blocking:
        return NormVerdict(is_norm=False, blocking_factors=tuple(blocking))
    return NormVerdict(is_norm=True, witness=witness)


def is_negligible_factor(q):
    """Is the irreducible q, in unit normal form, negligible: is q 1 - t_i?

    The negligible polynomials ±t^r * prod (1 - t_i)^s_i have no other
    irreducible factors, and 1 - t_i is the unit normal form of t_i - 1.
    """
    used = q.variables_used()
    if len(used) != 1:
        return False
    (i,) = used
    return q == 1 - LaurentPoly.var(q.nvars, i)


def norm_classes(fact, skip_univariate=False):
    """{class: multiplicity} of the non-negligible factors of fact.

    With ``skip_univariate``, factors in at most one variable are left
    out as well; integer constants count among them, since they can be
    absorbed into a one-variable polynomial.
    """
    return {q: mult for q, mult in fact.factors
            if not is_negligible_factor(q)
            and not (skip_univariate and len(q.variables_used()) <= 1)}


def norm_verdict(fact, skip_univariate=False):
    """The norm test on a factored polynomial; see is_norm_up_to_negligible."""
    return _pair_off(norm_classes(fact, skip_univariate), fact.unit.nvars)


def is_norm_up_to_negligible(p):
    """Does p = f * conj(f) * n for some f and some negligible n?"""
    if p.is_zero():
        raise ZeroInputError("norm test needs a nonzero polynomial")
    return norm_verdict(factor_irreducible(p))


def norm_equivalent(a, b):
    """Are a and b equal up to a factor f*conj(f) and a negligible unit?

    Tested on the signed difference of irreducible multiplicities, so
    common factors cancel and the leftover multiset must pair off.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInputError("norm equivalence needs nonzero polynomials")
    a._check(b)
    classes = norm_classes(factor_irreducible(a))
    for q, mult in norm_classes(factor_irreducible(b)).items():
        classes[q] = classes.get(q, 0) - mult
    classes = {q: m for q, m in classes.items() if m != 0}
    return _pair_off(classes, a.nvars)


@dataclass(frozen=True)
class OddMultiplicityResult:
    multiplicity: int
    forced_divides: bool


def odd_multiplicity_divisor(p, q):
    """Multiplicity of the irreducible q in p, with the parity consequence.

    When a symmetric irreducible appears with odd multiplicity it cannot
    be cancelled by any norm factor, so it must divide the other side of
    any norm-equivalence; ``forced_divides`` records that.
    Preconditions: q irreducible, not negligible, and conj(q) ≐ q.
    """
    if p.is_zero():
        raise ZeroInputError("need a nonzero polynomial")
    fq = factor_irreducible(q)
    if len(fq.factors) != 1 or fq.factors[0][1] != 1:
        raise ValueError("q must be irreducible")
    qn = unit_normal_form(q)
    if is_negligible_factor(qn):
        raise ValueError("q must not be negligible")
    if not unit_equal(q.involute(), q):
        raise ValueError("q must be symmetric under the bar involution")
    mult = 0
    rest = p
    while True:
        try:
            rest = divide_exact(rest, qn)
        except NotDivisible:
            break
        mult += 1
    return OddMultiplicityResult(multiplicity=mult, forced_divides=mult % 2 == 1)
