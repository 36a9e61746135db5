"""Factorization over the Laurent ring and norm-pairing decision procedures.

The ring Z[t1^±1, ..., tm^±1] is a UFD whose units are the signed
monomials.  A factorization splits the integer content into primes,
which are honest irreducible elements here since the coefficient ring is
Z, and divides off each 1 - t_i while the rest vanishes at t_i = 1.  The
rest is then taken apart in pure Python where it can be.  Read it as a
polynomial in one variable t_k at a time:

  * the factors common to its t_k-coefficients divide the coefficient
    with fewest terms, so they are read off that one's factorization
    and split off;
  * with none left, every factor has positive degree in t_k, so the
    rest is irreducible when its degree in t_k is 1, or when its image
    in Z[t_k], the other variables at fixed integers, keeps that degree
    and is irreducible over Q: a quadratic whose discriminant is not a
    square, or an image irreducible mod a small prime that does not
    divide its leading coefficient (no root for a cubic, Rabin's test
    above that);
  * failing a certificate in every variable, a factor of degree 1 in
    some t_k is sought among a * t_k ± t^u * b, a and b dividing the top
    and bottom t_k-coefficients, screened on the image and confirmed by
    exact division; a bounded number of candidates is tried.

Each certificate is a proof, not a test of likelihood.  A rest that
none of these settles, such as t^4 + 1 or (t^2 - t + 1)^2, is shifted to
an ordinary polynomial and factored over the integers by sympy.
Factorization is unique up to units, so the routes agree.

On top of the factorization we decide the "norm" questions that drive
the link obstructions: whether p equals f * conj(f) times a unit of the
localized ring (a negligible polynomial), with variants that ignore
single-variable factors or compare two polynomials.

Every gcd is read off one factorization as well (``_common_factors``).
sympy is imported only by ``factorint`` on a part of an integer content
that trial division up to 1000 leaves unproved, at least 1000^2, and by
``Poly.factor_list`` on a rest that the pure-Python route does not
settle, so callers that reach neither never load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .laurent import (LaurentPoly, NotDivisible, ZeroInputError,
                      _quotient, _to_polynomial, divide_exact, unit_equal,
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

    The primes of the integer content come from ``_prime_powers``, and
    sympy's ``factorint`` splits a cofactor that it leaves unproved; the
    primitive rest goes through ``_primitive_factors``.
    """
    content, rest = _primitive_part(p)
    factors = {}
    for m, e in _prime_powers(content):
        if m >= 1000 ** 2:
            from sympy import factorint
            factors.update((LaurentPoly.const(p.nvars, int(prime)), mult)
                           for prime, mult in factorint(m).items())
        else:
            factors[LaurentPoly.const(p.nvars, m)] = e
    factors.update(_primitive_factors(rest))
    return factors


def _primitive_part(p):
    """(content, p / content) for a nonzero p, the content positive."""
    content = math.gcd(*p._d.values())
    if content == 1:
        return 1, p
    return content, LaurentPoly(p.nvars, {e: c // content
                                          for e, c in p.terms.items()})


def _primitive_factors(q):
    """{irreducible in unit normal form: multiplicity} of q, nonzero with
    content 1.

    Each 1 - t_i is divided off while the rest vanishes at t_i = 1, and
    a rest that is not a unit goes to ``_add_rest``.
    """
    n = q.nvars
    factors = {}
    for i in sorted(q.variables_used()):
        one_minus = 1 - LaurentPoly.var(n, i)
        while _vanishes_at_one(q, i):
            q = divide_exact(q, one_minus)
            factors[one_minus] = factors.get(one_minus, 0) + 1
    if not q.is_unit():
        _add_rest(unit_normal_form(q), factors)
    return factors


def _vanishes_at_one(p, i):
    """Is p zero at t_i = 1, that is, divisible by 1 - t_i?"""
    sums = {}
    for exps, c in p.terms.items():
        key = exps[:i] + exps[i + 1:]
        sums[key] = sums.get(key, 0) + c
    return not any(sums.values())


def _add_rest(q, factors):
    """Add the irreducible factors of q to ``factors``.

    q is in unit normal form, with content 1, and not a unit.
    ``_split`` takes it apart, and each part goes round again with its
    multiplicity.
    """
    rests = [(q, 1)]
    while rests:
        q, mult = rests.pop()
        rests += ((unit_normal_form(part), mult * e)
                  for part, e in _split(q, mult, factors))


def _split(q, mult, factors):
    """[(part, multiplicity)] of q still to split, no part a unit.

    q is as in ``_add_rest``, and ``mult`` times over a factor of the
    input: what is proved irreducible goes to ``factors`` with that
    multiplicity.  Read q as a polynomial in each variable t_k in turn,
    the smallest degree span first:
      (a) the factors common to its t_k-coefficients
          (``_common_factors``) are split off, and the quotient is left;
      (b) when there are none, every factor of q has positive degree in
          t_k, so degree 1 in t_k proves q irreducible;
      (c) so does an image in Z[t_k] that keeps the degree and is
          irreducible (``_image_irreducible``), since the factors'
          images would keep their degrees and factor it.
    When no variable settles q, a factor of degree 1 in some t_k
    (``_linear_factor``) is divided out as often as it goes.  Only a q
    that none of these settles goes to sympy's ``Poly.factor_list``.
    """
    tried = []
    for span, k in sorted((q.degree_span(k), k) for k in q.variables_used()):
        coeffs = _coefficients(q, k)
        _, common = _common_factors(sorted(coeffs.values(),
                                           key=lambda c: len(c.terms)))
        if common:
            for f, e in common.items():
                factors[f] = factors.get(f, 0) + mult * e
                q = divide_exact(q, f ** e)
            return [(q, 1)]
        if span > 1:
            image = [_at_point(coeffs[e]) if e in coeffs else 0
                     for e in range(span + 1)]
            tried.append((k, coeffs, image))
        if span == 1 or (image[0] and image[-1]
                          and _image_irreducible(image)):
            factors[q] = factors.get(q, 0) + mult
            return []
    found = _linear_factor(q, tried)
    if found:
        g, rest = found
        e, rest = _multiplicity(g, rest, math.inf)
        return [(g, e + 1)] + ([] if rest.is_unit() else [(rest, 1)])
    for fac, e in to_sympy(q).factor_list()[1]:
        f = unit_normal_form(from_sympy(fac, q.nvars))
        factors[f] = factors.get(f, 0) + mult * e
    return []


def _coefficients(q, k):
    """q's coefficients as a polynomial in t_k: {t_k-exponent: poly}."""
    terms = {}
    for exps, c in q.terms.items():
        terms.setdefault(exps[k], {})[exps[:k] + (0,) + exps[k + 1:]] = c
    return {e: LaurentPoly(q.nvars, t) for e, t in terms.items()}


def _common_factors(polys):
    """(content, {irreducible: exponent}) of the gcd of the nonzero
    ``polys``, up to units.

    Every common factor divides the first member, so the gcd is read off
    its factorization: each factor's exponent is the least with which
    the later members take it, and the content is the gcd of theirs.
    Members are drawn only while the gcd is not 1, so a lazy ``polys``
    with the sparsest first is drawn little.
    """
    polys = iter(polys)
    content, prim = _primitive_part(next(polys))
    common = {} if prim.is_unit() else _primitive_factors(prim)
    while common or content > 1:
        p = next(polys, None)
        if p is None:
            break
        content = math.gcd(content, *p._d.values())
        common = {f: e for f, most in common.items()
                  if (e := _multiplicity(f, p, most)[0])}
    return content, common


def _multiplicity(f, p, most):
    """(e, p / f^e) for the largest e <= most with f^e dividing p."""
    e = 0
    while e < most:
        quotient = _quotient(p, f)
        if quotient is None:
            break
        p, e = quotient, e + 1
    return e, p


# t_j maps to _IMAGE_POINT + j in the images of ``_split`` and the
# screen of ``_linear_factor``
_IMAGE_POINT = 2


def _at_point(p):
    """p with each t_j at _IMAGE_POINT + j, an integer (exponents >= 0)."""
    return sum(c * _point_power(exps) for exps, c in p.terms.items())


def _point_power(u):
    """The monomial t^u at the image point, an integer (u >= 0)."""
    out = 1
    for j, e in enumerate(u):
        out *= (_IMAGE_POINT + j) ** e
    return out


# odd primes tried by ``_image_irreducible``, the first eight
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
# the highest degree of an image that ``_rabin`` tests: its time grows as
# the cube of the degree, about 0.05 s over the primes at degree 24
_RABIN_DEGREE = 24


def _image_irreducible(f):
    """Is f irreducible over Q?  True is a proof, False is no answer.

    f lists the coefficients of an integer polynomial of degree n >= 2,
    constant first, neither end 0.  A quadratic is irreducible when its
    discriminant is not a square.  Otherwise f is irreducible when it is
    irreducible mod a prime p that does not divide its leading
    coefficient: a factorization over Z reduces mod p with the degrees
    kept.  Mod p, a root rules p out; a cubic without one is
    irreducible, and a degree up to ``_RABIN_DEGREE`` is decided by
    ``_rabin``.  A higher degree gets no answer.
    """
    if len(f) == 3:
        c, b, a = f
        disc = b * b - 4 * a * c
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if len(f) > _RABIN_DEGREE + 1:
        return False
    for p in _PRIMES:
        if f[-1] % p == 0:
            continue
        fp = [c % p for c in f]
        if all(_eval_mod(fp, x, p) for x in range(p)) and \
                (len(f) == 4 or _rabin(fp, p)):
            return True
    return False


def _eval_mod(f, x, p):
    """f(x) mod p, f's coefficients constant first."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _rabin(f, p):
    """Is f, of degree n over F_p, irreducible?  Rabin's test (1980).

    It is exactly when x^(p^n) = x mod f and, for each prime r dividing
    n, gcd(x^(p^(n/r)) - x, f) = 1.  Polynomials are coefficient lists,
    constant first.
    """
    n = len(f) - 1
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    x = [0, 1] + [0] * (n - 2)
    checks = {n // r for r in range(2, n + 1)
              if n % r == 0 and all(r % s for s in range(2, r))}
    h = x
    for i in range(1, n + 1):
        h = _pow_mod(h, p, f, p)
        if i in checks and len(_gcd_mod([a - b for a, b in zip(h, x)],
                                        f, p)) > 1:
            return False
    return h == x


def _pow_mod(a, e, f, p):
    """a^e mod (f, p) for a of degree below that of the monic f."""
    result = [1] + [0] * (len(f) - 2)
    while e:
        if e & 1:
            result = _mul_mod(result, a, f, p)
        e >>= 1
        if e:
            a = _mul_mod(a, a, f, p)
    return result


def _mul_mod(a, b, f, p):
    """a * b mod (f, p) for a and b of degree below n, f monic of degree n."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d] % p
        if c:
            for i in range(n):
                prod[d - n + i] -= c * f[i]
    return [c % p for c in prod[:n]]


def _gcd_mod(a, b, p):
    """A gcd of a and b over F_p, with no zero leading coefficient."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            a = _trim(a)
        a, b = b, a
    return a


def _trim(a):
    """a without its zero leading coefficients."""
    while a and not a[-1]:
        a = a[:-1]
    return a


# candidates that ``_linear_factor`` tries, per term of its input
_SPLIT_TRIES = 16


def _linear_factor(q, tried):
    """(g, q / g) for a factor g of q of degree 1 in some t_k, or None.

    ``tried`` holds, for each variable t_k that ``_split`` tried, q's
    t_k-coefficients c_0..c_n and its image in Z[t_k].  Scaled to least
    exponents 0, such a factor is g = t^u·a·t_k ± t^v·b, where a divides
    c_n and b divides c_0, both in unit normal form, and u and v are
    free of t_k with min(u_j, v_j) = 0.  The cofactor has least
    exponents 0 as q does, so u_j is at most c_n's least exponent in t_j
    and v_j at most c_0's.  A candidate must pass the screen on the
    image: g's image A·t_k + B divides it, so its homogeneous form
    vanishes at (-B, A).  Exact division then decides.  Shifts v - u
    are tried from the smallest first.  At most
    ``_SPLIT_TRIES`` candidates per term of q are tried in all, so no
    input pays more than a bounded prelude before sympy.
    """
    n = q.nvars
    budget = _SPLIT_TRIES * len(q.terms)
    for k, coeffs, image in tried:
        top, bottom = coeffs[len(image) - 1], coeffs[0]
        box = [range(-lt, lb + 1)
               for lt, lb in zip(_least(top), _least(bottom))]
        top, bottom = _divisor_parts(top), _divisor_parts(bottom)
        for value_a, a in _divisors(top):
            for value_b, b in _divisors(bottom):
                for shift in _shifts(box):
                    u = tuple(max(-s, 0) for s in shift)
                    v = tuple(max(s, 0) for s in shift)
                    big_a = value_a * _point_power(u)
                    big_b = value_b * _point_power(v)
                    for sign in (1, -1):
                        budget -= 1
                        if budget < 0:
                            return None
                        if _homogeneous_at(image, -sign * big_b, big_a):
                            continue
                        g = (_product(n, a) * LaurentPoly.monomial(
                                n, u[:k] + (1,) + u[k + 1:])
                             + _product(n, b) * LaurentPoly.monomial(
                                n, v, sign))
                        h = _quotient(q, g)
                        if h is not None:
                            return g, h
    return None


def _shifts(box):
    """The integer vectors in ``box``, one range holding 0 per entry,
    lazily, the smallest sum of absolute values first."""
    widest = sum(max(-r.start, r.stop - 1) for r in box)
    for norm in range(widest + 1):
        yield from _shifts_of_norm(box, norm)


def _shifts_of_norm(box, norm):
    """The vectors in ``box`` whose absolute values sum to ``norm``."""
    if not box:
        if not norm:
            yield ()
        return
    first, *rest = box
    for x in range(max(first.start, -norm), min(first.stop - 1, norm) + 1):
        for tail in _shifts_of_norm(rest, norm - abs(x)):
            yield (x,) + tail


def _least(p):
    """The least exponent of each variable in the nonzero p."""
    return tuple(map(min, zip(*p.terms)))


def _divisor_parts(c):
    """[(factor, multiplicity, value at the image point)] of the nonzero c:
    the primes of its content, then its irreducible factors.  An unproved
    content cofactor stays whole: factorint can take minutes on it."""
    content, prim = _primitive_part(c)
    parts = [(LaurentPoly.const(c.nvars, prime), e)
             for prime, e in _prime_powers(content)]
    parts += _primitive_factors(prim).items()
    return [(f, e, _at_point(f)) for f, e in parts]


def _divisors(parts):
    """(value at the image point, [(factor, exponent), ...]) for each
    product of ``parts`` (``_divisor_parts``), lazily, 1 first."""
    for exps in itertools.product(*(range(e + 1) for _, e, _ in parts)):
        value = 1
        for (_, _, at), e in zip(parts, exps):
            value *= at ** e
        yield value, [(f, e) for (f, _, _), e in zip(parts, exps) if e]


def _product(n, chosen):
    """The product of f^e over the (f, e) pairs in ``chosen``."""
    out = LaurentPoly.one(n)
    for f, e in chosen:
        out = out * f ** e
    return out


def _homogeneous_at(f, x, y):
    """sum f[e] x^e y^(n-e), f of degree n listed constant first."""
    acc, y_power = 0, 1
    for c in reversed(f):
        acc = acc * x + c * y_power
        y_power *= y
    return acc


def _prime_powers(m):
    """[(prime, exponent)] of m >= 1 by trial division up to 1000, the
    primes ascending.  A cofactor left over is prime below 1000^2; a
    larger one is listed whole, last, so the list's products divide m."""
    out = []
    d = 2
    while d * d <= m and d < 1000:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def gcd(a, b):
    """A greatest common divisor of a and b, in unit normal form."""
    a._check(b)
    return gcd_many((a, b))


def gcd_many(polys):
    """GCD of a sequence, in unit normal form, drawing members only
    until it is 1 (``_common_factors``); zero members are skipped."""
    nonzero = (p for p in polys if not p.is_zero())
    first = next(nonzero, None)
    if first is None:
        raise ZeroInputError("gcd of all-zero family is undefined")
    content, common = _common_factors(itertools.chain((first,), nonzero))
    return unit_normal_form(_product(first.nvars, common.items()) * content)


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
    mult, _ = _multiplicity(qn, p, math.inf)
    return OddMultiplicityResult(multiplicity=mult, forced_divides=mult % 2 == 1)
