"""Exact arithmetic in the multivariable integer Laurent polynomial ring.

Polynomials live in Z[t1^±1, ..., tm^±1] and are stored sparsely as a
mapping from exponent vectors to nonzero integer coefficients.  All
operations are pure and values are treated as immutable, so they can be
shared freely between threads and batch workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as int_gcd


class VariableCountMismatch(ValueError):
    """Raised when two polynomials from different rings are combined."""


class ZeroInputError(ValueError):
    """Raised by operations that require a nonzero polynomial."""


class NotDivisible(Exception):
    """Raised by divide_exact when the quotient does not exist in the ring."""


class LaurentPoly:
    """A sparse Laurent polynomial with arbitrary-precision integer coefficients.

    ``terms`` maps exponent tuples (length ``nvars``, entries may be
    negative) to nonzero coefficients.  The zero polynomial has an empty
    term mapping.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars, terms=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise VariableCountMismatch(
                        f"monomial {exps} has {len(exps)} exponents, expected {nvars}")
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean
        self._hash = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars):
        return LaurentPoly(nvars)

    @staticmethod
    def const(nvars, c):
        return LaurentPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def one(nvars):
        return LaurentPoly.const(nvars, 1)

    @staticmethod
    def var(nvars, i, power=1):
        """The monomial t_i^power (i is zero-based)."""
        exps = [0] * nvars
        exps[i] = power
        return LaurentPoly(nvars, {tuple(exps): 1})

    @staticmethod
    def monomial(nvars, exps, coeff=1):
        return LaurentPoly(nvars, {tuple(exps): coeff})

    # -- basic queries ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * self.nvars: 1}

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def is_monomial(self):
        """True when the polynomial is ±1 times a single monomial (a unit of
        the ring when the coefficient is ±1)."""
        return len(self.terms) == 1

    def is_unit(self):
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    def variables_used(self):
        """Indices of variables occurring with nonzero exponent."""
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e != 0:
                    used.add(i)
        return used

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, 0)

    def degree_span(self, i):
        """Spread of the exponents of variable i across the support."""
        if not self.terms:
            return 0
        es = [exps[i] for exps in self.terms]
        return max(es) - min(es)

    def max_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0)

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise VariableCountMismatch(
                f"cannot combine polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            new = terms.get(exps, 0) + c
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return LaurentPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly(self.nvars)
            return LaurentPoly(self.nvars,
                               {e: c * other for e, c in self.terms.items()})
        self._check(other)
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        out = {}
        n = self.nvars
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                key = tuple(ea[i] + eb[i] for i in range(n))
                new = out.get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    del out[key]
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers only defined for monomials")
        result = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)

    # -- structural operations --------------------------------------------

    def involute(self):
        """Replace every t_i by t_i^-1 (the bar involution of the ring)."""
        return LaurentPoly(self.nvars,
                           {tuple(-e for e in exps): c
                            for exps, c in self.terms.items()})

    def shift(self, exps, sign=1):
        """Multiply by sign * t^exps (a unit)."""
        n = self.nvars
        return LaurentPoly(n, {tuple(e[i] + exps[i] for i in range(n)): sign * c
                               for e, c in self.terms.items()})

    def evaluate(self, images, new_nvars):
        """Apply the ring homomorphism t_i -> t^images[i] into a new ring.

        ``images[i]`` is the exponent vector (length ``new_nvars``) of the
        monomial that t_i is sent to.  Covers the diagonal map t_i -> t,
        Kronecker maps t_i -> t^(d^i) and setting variables to 1 (image
        exponent vector zero).
        """
        if len(images) != self.nvars:
            raise VariableCountMismatch("substitution must cover every variable")
        out = {}
        for exps, c in self.terms.items():
            key = [0] * new_nvars
            for i, e in enumerate(exps):
                img = images[i]
                for j in range(new_nvars):
                    key[j] += e * img[j]
            key = tuple(key)
            new = out.get(key, 0) + c
            if new:
                out[key] = new
            else:
                del out[key]
        return LaurentPoly(new_nvars, out)

    def eval_diagonal(self):
        """Send every variable to the single variable t."""
        return self.evaluate([(1,)] * self.nvars, 1)

    def eval_at_one(self, i):
        """Set t_i = 1, staying in the same ring for convenience."""
        images = []
        for j in range(self.nvars):
            img = [0] * self.nvars
            if j != i:
                img[j] = 1
            images.append(tuple(img))
        return self.evaluate(images, self.nvars)


# -- unit normal form -----------------------------------------------------

def unit_normal_form(p):
    """The canonical representative of p under multiplication by units.

    Units of the ring are ±monomials.  The representative has minimal
    exponent 0 in every variable and positive coefficient on its
    lexicographically smallest monomial.
    """
    if p.is_zero():
        raise ZeroInputError("the zero polynomial has no unit normal form")
    n = p.nvars
    mins = [min(exps[i] for exps in p.terms) for i in range(n)]
    shifted = {tuple(e[i] - mins[i] for i in range(n)): c
               for e, c in p.terms.items()}
    lead = min(shifted)
    if shifted[lead] < 0:
        shifted = {e: -c for e, c in shifted.items()}
    return LaurentPoly(n, shifted)


def unit_equal(a, b):
    """True when a ≐ b, i.e. they differ by a unit ±t^k."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    if a.nvars != b.nvars:
        raise VariableCountMismatch("cannot compare across rings")
    return unit_normal_form(a) == unit_normal_form(b)


@dataclass(frozen=True)
class NegligibleDecomposition:
    """p = sign * t^monomial * prod (1-t_i)^exponents[i] * core.

    ``core`` is in unit normal form and divisible by no (1 - t_i).  The
    negligible polynomials are exactly those with core equal to 1.
    """
    sign: int
    monomial: tuple
    one_minus_t_exponents: tuple
    core: LaurentPoly

    def recombine(self):
        n = self.core.nvars
        out = self.core.shift(self.monomial, self.sign)
        for i, s in enumerate(self.one_minus_t_exponents):
            factor = LaurentPoly.one(n) - LaurentPoly.var(n, i)
            for _ in range(s):
                out = out * factor
        return out

    @property
    def is_negligible(self):
        return self.core.is_one()


def negligible_decompose(p):
    """Factor out the maximal powers of (1-t_i) and the unit part of p."""
    if p.is_zero():
        raise ZeroInputError("cannot decompose the zero polynomial")
    n = p.nvars
    rest = p
    exponents = [0] * n
    for i in range(n):
        factor = LaurentPoly.one(n) - LaurentPoly.var(n, i)
        while True:
            # factor theorem: (1 - t_i) divides p iff p vanishes at t_i = 1
            if not rest.eval_at_one(i).is_zero():
                break
            rest = divide_exact(rest, factor)
            exponents[i] += 1
    core = unit_normal_form(rest)
    unit = divide_exact(rest, core)
    assert unit.is_unit()
    exps, coeff = next(iter(unit.terms.items()))
    return NegligibleDecomposition(sign=1 if coeff > 0 else -1,
                                   monomial=exps,
                                   one_minus_t_exponents=tuple(exponents),
                                   core=core)


def is_negligible(p):
    """True when p = ±t^r * prod (1-t_i)^{s_i}, a unit of the localized ring."""
    return negligible_decompose(p).is_negligible


# -- exact division -------------------------------------------------------

def _to_polynomial(p):
    """Shift exponents so the polynomial is ordinary; return (shift, poly)."""
    n = p.nvars
    mins = [min(exps[i] for exps in p.terms) for i in range(n)]
    shifted = {tuple(e[i] - mins[i] for i in range(n)): c
               for e, c in p.terms.items()}
    return tuple(mins), LaurentPoly(n, shifted)


def divide_exact(a, b):
    """Return q with a = b*q, or raise NotDivisible.

    The quotient is unique when it exists because the ring is a domain.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return LaurentPoly(a.nvars)
    a._check(b)
    n = a.nvars
    shift_a, pa = _to_polynomial(a)
    shift_b, pb = _to_polynomial(b)
    # Ordinary-polynomial division in lex order; if pb | pa in the Laurent
    # ring, the quotient of the shifted parts is an ordinary polynomial.
    lead_b = max(pb.terms)
    cb = pb.terms[lead_b]
    rest = dict(pa.terms)
    quot = {}
    while rest:
        lead_r = max(rest)
        cr = rest[lead_r]
        qe = tuple(lead_r[i] - lead_b[i] for i in range(n))
        if any(e < 0 for e in qe) or cr % cb != 0:
            raise NotDivisible(f"{a} is not divisible by {b}")
        qc = cr // cb
        quot[qe] = qc
        for eb, coeff in pb.terms.items():
            key = tuple(qe[i] + eb[i] for i in range(n))
            new = rest.get(key, 0) - qc * coeff
            if new:
                rest[key] = new
            else:
                rest.pop(key, None)
    q = LaurentPoly(n, quot)
    return q.shift(tuple(shift_a[i] - shift_b[i] for i in range(n)))


def divides(b, a):
    """True when b divides a exactly."""
    try:
        divide_exact(a, b)
        return True
    except NotDivisible:
        return False


def content(p):
    """The (nonnegative) integer content of p."""
    g = 0
    for c in p.terms.values():
        g = int_gcd(g, abs(c))
    return g


# -- text syntax ----------------------------------------------------------

class PolyParseError(ValueError):
    """Parse failure with position information for caret diagnostics."""

    def __init__(self, text, pos, message):
        self.text = text
        self.pos = pos
        caret = " " * pos + "^"
        super().__init__(f"{message} at position {pos}\n  {text}\n  {caret}")


class _Parser:
    """Recursive-descent parser for the polynomial text syntax.

    Grammar: integer coefficients, variables t1..tm, ^ with possibly
    negative integer exponents, *, +, -, parentheses.
    """

    def __init__(self, text, nvars):
        self.text = text
        self.nvars = nvars
        self.pos = 0

    def error(self, message):
        raise PolyParseError(self.text, self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        # the sentinel is never a member of any character-class test below
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def parse(self):
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return p

    def expr(self):
        sign = 1
        while self.peek() in "+-":
            if self.text[self.pos] == "-":
                sign = -sign
            self.pos += 1
        p = self.term() * sign
        while self.peek() in "+-":
            sign = 1
            while self.peek() in "+-":
                if self.text[self.pos] == "-":
                    sign = -sign
                self.pos += 1
            p = p + self.term() * sign
        return p

    def term(self):
        p = self.power()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                p = p * self.power()
            elif ch == "(" or ch == "t" or ch.isdigit():
                # implicit multiplication, e.g. 2t1 or (t1-1)(t2-1)
                p = p * self.power()
            else:
                return p

    def power(self):
        p = self.atom()
        if self.peek() == "^":
            self.pos += 1
            e = self.integer()
            if e < 0:
                if not p.is_monomial():
                    self.error("negative exponents only allowed on monomials")
                exps, c = next(iter(p.terms.items()))
                if abs(c) != 1:
                    self.error("negative exponents only allowed on unit monomials")
                return LaurentPoly.monomial(self.nvars,
                                            tuple(x * e for x in exps),
                                            c if e % 2 else abs(c))
            return p ** e
        return p

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return p
        if ch == "t":
            start = self.pos
            self.pos += 1
            idx = 0
            ndigits = 0
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                idx = idx * 10 + int(self.text[self.pos])
                self.pos += 1
                ndigits += 1
            if ndigits == 0:
                if self.nvars == 1:
                    idx = 1  # bare 't' allowed in the one-variable ring
                else:
                    self.pos = start
                    self.error("variable needs an index, e.g. t1")
            if not 1 <= idx <= self.nvars:
                self.pos = start
                self.error(f"variable t{idx} outside ring with {self.nvars} variables")
            return LaurentPoly.var(self.nvars, idx - 1)
        if ch.isdigit():
            return LaurentPoly.const(self.nvars, self.integer())
        self.error("expected a coefficient, variable or '('")

    def integer(self):
        self.skip_ws()
        sign = 1
        if self.peek() in "+-":
            if self.text[self.pos] == "-":
                sign = -1
            self.pos += 1
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return sign * int(self.text[start:self.pos])


def parse_poly(text, nvars):
    """Parse the fixture/CLI polynomial syntax, e.g. '(t1-1)*(t2*t3-1)'."""
    return _Parser(text, nvars).parse()


def format_poly(p):
    """Deterministic plain-text rendering accepted back by parse_poly."""
    if p.is_zero():
        return "0"
    parts = []
    for exps in sorted(p.terms, reverse=True):
        c = p.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = f"t{i + 1}" if p.nvars > 1 else "t"
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            body = str(abs(c))
        else:
            mono = "*".join(factors)
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
