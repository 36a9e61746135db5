"""Exact arithmetic in the multivariable integer Laurent polynomial ring.

Polynomials live in Z[t1^±1, ..., tm^±1] and are stored sparsely as a
mapping from monomials to nonzero integer coefficients.  All operations
are pure and values are treated as immutable.

Each monomial t1^e1 ... tm^em is packed into one Python int,
e1 * B^(m-1) + e2 * B^(m-2) + ... + em with B = 2^64: one signed 64-bit
digit per exponent, variable 0 in the most significant digit, and for
m = 1 the exponent itself.  The packing is additive, so multiplying
monomials adds their keys, the bar involution negates them and a shift
by a unit adds one key.  While every |exponent| is below 2^63 the keys
are distinct and their integer order is the lexicographic order of the
exponent tuples, so the leading term of a division and the least
monomial of a unit normal form are the largest and smallest keys.  The
two ring maps in use work on keys as well: ``eval_diagonal`` (every
t_i to t) sums a key's digits, and ``embed_univariate`` shifts a
one-variable key into digit i.

Every polynomial carries a bound on its |exponents|, kept in O(1): a
product adds its operands' bounds, a sum takes the larger one, a
division, normal form or diagonal map computes its result's box
exactly, and ``embed_univariate`` keeps its operand's bound.  A result
whose bound would reach ``EXPONENT_LIMIT`` = 2^60 raises
``ExponentLimitExceeded`` instead, which leaves room for the sums and
differences of two or four exponents that division forms, so packed
digits never carry into each other.

The public ``terms`` mapping, from exponent tuples to coefficients, is
decoded on first use and cached; the public constructor checks and packs
its input, while arithmetic builds its already clean results directly.
"""

from __future__ import annotations

import math
import re
from heapq import heapify, heappop, heappush

EXPONENT_LIMIT = 1 << 60

_WIDTH = 64
_HALF = 1 << (_WIDTH - 1)
_MASK = (1 << _WIDTH) - 1


class VariableCountMismatch(ValueError):
    """Raised when two polynomials from different rings are combined."""


class ZeroInputError(ValueError):
    """Raised by operations that require a nonzero polynomial."""


class NotDivisible(Exception):
    """Raised by divide_exact when the quotient does not exist in the ring."""


class ExponentLimitExceeded(ValueError):
    """Raised when an exponent could reach EXPONENT_LIMIT in absolute value."""


def _bounded(e):
    """e, checked as a bound on |exponents| against EXPONENT_LIMIT."""
    if e >= EXPONENT_LIMIT:
        raise ExponentLimitExceeded(
            f"an exponent could reach {e}, beyond the limit of "
            f"±{EXPONENT_LIMIT - 1}")
    return e


def _pack(exps):
    """The key of an exponent tuple (entries below the limit)."""
    key = 0
    for e in exps:
        key = (key << _WIDTH) + e
    return key


def _var_key(n, i):
    """The key of t_i in n variables."""
    return 1 << _WIDTH * (n - 1 - i)


def _unpack(key, n):
    """The exponent tuple of a key in n variables."""
    out = [0] * n
    for i in range(n - 1, 0, -1):
        e = ((key + _HALF) & _MASK) - _HALF
        out[i] = e
        key = (key - e) >> _WIDTH
    out[0] = key
    return tuple(out)


def _ones(n):
    """_pack((2^63,) * n): adding it makes every digit of a key unsigned."""
    return _pack((_HALF,) * n)


def _box(d, n):
    """Packed least and greatest exponent of each variable over keys d."""
    if n == 1:
        return min(d), max(d)
    ones = _ones(n)
    unsigned = [k + ones for k in d]
    lo = hi = 0
    for s in range(_WIDTH * (n - 1), -1, -_WIDTH):
        digits = [(u >> s) & _MASK for u in unsigned]
        lo = (lo << _WIDTH) + min(digits) - _HALF
        hi = (hi << _WIDTH) + max(digits) - _HALF
    return lo, hi


def _ring(nvars):
    """nvars, checked to be a number of variables a ring can have."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    return nvars


def _collect(pairs):
    """The clean keys {key: summed coefficient} of (key, coefficient) pairs."""
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _is_unit(d):
    """Are the clean keys d those of a unit ±t^e?"""
    return len(d) == 1 and abs(next(iter(d.values()))) == 1


def _new(nvars, d, bound):
    """A polynomial from clean keys d (no zero coefficient), unchecked."""
    p = object.__new__(LaurentPoly)
    p.nvars = nvars
    p._d = d
    p._bound = bound
    p._terms = None
    p._hash = None
    return p


class LaurentPoly:
    """A sparse Laurent polynomial with arbitrary-precision integer coefficients.

    ``terms`` maps exponent tuples (length ``nvars``, entries may be
    negative) to nonzero coefficients.  The zero polynomial has an empty
    term mapping.
    """

    __slots__ = ("nvars", "_d", "_bound", "_terms", "_hash")

    def __init__(self, nvars, terms=None):
        _ring(nvars)
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
        bound = _bounded(max((abs(e) for exps in clean for e in exps),
                             default=0))
        self.nvars = nvars
        self._d = {_pack(exps): c for exps, c in clean.items()}
        self._bound = bound
        self._terms = None
        self._hash = None

    @property
    def terms(self):
        if self._terms is None:
            n = self.nvars
            self._terms = {_unpack(k, n): c for k, c in self._d.items()}
        return self._terms

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars):
        return _new(_ring(nvars), {}, 0)

    @staticmethod
    def const(nvars, c):
        return _new(_ring(nvars), {0: c} if c else {}, 0)

    @staticmethod
    def one(nvars):
        return LaurentPoly.const(nvars, 1)

    @staticmethod
    def var(nvars, i, power=1):
        """The monomial t_i^power (i is zero-based)."""
        exps = [0] * _ring(nvars)
        exps[i] = power
        return _new(nvars, {_pack(exps): 1}, _bounded(abs(power)))

    @staticmethod
    def monomial(nvars, exps, coeff=1):
        return LaurentPoly(nvars, {tuple(exps): coeff})

    # -- basic queries ---------------------------------------------------

    def is_zero(self):
        return not self._d

    def is_one(self):
        return self._d == {0: 1}

    def is_monomial(self):
        """True when the polynomial is ±1 times a single monomial (a unit of
        the ring when the coefficient is ±1)."""
        return len(self._d) == 1

    def is_unit(self):
        return _is_unit(self._d)

    def variables_used(self):
        """Indices of variables occurring with nonzero exponent."""
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e != 0:
                    used.add(i)
        return used

    def degree_span(self, i):
        """Spread of the exponents of variable i across the support."""
        if not self._d:
            return 0
        es = [exps[i] for exps in self.terms]
        return max(es) - min(es)

    # -- ring operations -------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise VariableCountMismatch(
                f"cannot combine polynomials in {self.nvars} and {other.nvars} variables")

    def _combine(self, other, sign):
        """self + sign * other."""
        if isinstance(other, int):
            other = LaurentPoly.const(self.nvars, other)
        self._check(other)
        d = dict(self._d)
        get = d.get
        for k, c in other._d.items():
            new = get(k, 0) + sign * c
            if new:
                d[k] = new
            else:
                del d[k]
        return _new(self.nvars, d, max(self._bound, other._bound))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.nvars, {k: -c for k, c in self._d.items()},
                    self._bound)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly(self.nvars)
            return _new(self.nvars, {k: c * other for k, c in self._d.items()},
                        self._bound)
        self._check(other)
        bound = _bounded(self._bound + other._bound)
        a, b = self._d, other._d
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (ka, ca), = a.items()
            return _new(self.nvars, {ka + kb: ca * cb for kb, cb in b.items()},
                        bound)
        out = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        return _new(self.nvars, {k: c for k, c in out.items() if c}, bound)

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
        return self.nvars == other.nvars and self._d == other._d

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self._d.items())))
        return self._hash

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)

    # -- structural operations --------------------------------------------

    def involute(self):
        """Replace every t_i by t_i^-1 (the bar involution of the ring)."""
        return _new(self.nvars, {-k: c for k, c in self._d.items()},
                    self._bound)

    def eval_diagonal(self):
        """Send every variable to the single variable t.

        Each key becomes the sum of its digits, and a one-variable
        polynomial is already in t.
        """
        n = self.nvars
        if n == 1:
            return self
        d = _collect((sum(_unpack(k, n)), c) for k, c in self._d.items())
        return _new(1, d, _bounded(max(map(abs, d), default=0)))


def embed_univariate(p, var_index, m):
    """Place a one-variable polynomial into variable var_index of m.

    Each exponent is shifted into digit var_index of an m-digit key.
    """
    if p.nvars != 1:
        raise VariableCountMismatch("only a one-variable polynomial embeds")
    if not 0 <= var_index < _ring(m):
        raise ValueError(f"variable {var_index} outside a ring with {m}")
    s = _WIDTH * (m - 1 - var_index)
    return _new(m, {e << s: c for e, c in p._d.items()}, p._bound)


# -- unit normal form -----------------------------------------------------

def _to_polynomial(p):
    """Return (mins, terms): p times t^-mins, an ordinary polynomial.

    ``mins`` holds each variable's least exponent in p, so every variable
    has least exponent 0 in ``terms``.  p must be nonzero.
    """
    mins = tuple(map(min, zip(*p.terms)))
    return mins, {tuple(e - s for e, s in zip(exps, mins)): c
                  for exps, c in p.terms.items()}


def unit_normal_form(p):
    """The canonical representative of p under multiplication by units.

    Units of the ring are ±monomials.  The representative has minimal
    exponent 0 in every variable and positive coefficient on its
    lexicographically smallest monomial.
    """
    if p.is_zero():
        raise ZeroInputError("the zero polynomial has no unit normal form")
    n, d = p.nvars, p._d
    lo, hi = _box(d, n)
    sign = -1 if d[min(d)] < 0 else 1
    return _new(n, {k - lo: sign * c for k, c in d.items()},
                max(_unpack(hi - lo, n)))


def unit_equal(a, b):
    """True when a ≐ b, i.e. they differ by a unit ±t^k."""
    if a.nvars != b.nvars:
        raise VariableCountMismatch("cannot compare across rings")
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return unit_normal_form(a) == unit_normal_form(b)


# -- exact division -------------------------------------------------------

def divide_exact(a, b):
    """Return q with a = b*q, or raise NotDivisible.

    The quotient is unique when it exists because the ring is a domain.
    """
    q = _quotient(a, b)
    if q is None:
        raise NotDivisible(f"{a} is not divisible by {b}")
    return q


def divides(b, a):
    """True when b divides a exactly."""
    return _quotient(a, b) is not None


def _quotient(a, b):
    """a / b when b divides a exactly, else None; no message is built.

    Long division takes leading terms in lex order, the largest keys.
    The remainder's keys sit in a max-heap, pushed when a key enters the
    remainder and skipped when popped after leaving it, so finding each
    leading term costs a logarithm, not a scan of the remainder.  Each
    variable's exponents in the quotient must lie between the
    differences of a's and b's least and greatest exponents; a quotient
    term outside that box means b does not divide a, and keeping inside
    it ends the loop.
    """
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return LaurentPoly(a.nvars)
    n = a.nvars
    lo_a, hi_a = _box(a._d, n)
    lo_b, hi_b = _box(b._d, n)
    lo, hi = lo_a - lo_b, hi_a - hi_b
    ones = _ones(n)
    pb = b._d
    lead_b = max(pb)
    cb = pb[lead_b]
    rest = dict(a._d)
    get = rest.get
    # negated keys: heapq keeps the least on top
    heap = [-key for key in rest]
    heapify(heap)
    quot = {}
    while rest:
        lead_r = -heappop(heap)
        cr = get(lead_r)
        if cr is None:
            continue
        qe = lead_r - lead_b
        # every digit of qe - lo and of hi - qe must be nonnegative
        if (qe - lo + ones) & (hi - qe + ones) & ones != ones or cr % cb:
            return None
        qc = cr // cb
        quot[qe] = qc
        for eb, coeff in pb.items():
            key = qe + eb
            old = get(key)
            if old is None:
                rest[key] = -qc * coeff
                heappush(heap, -key)
            elif old != qc * coeff:
                rest[key] = old - qc * coeff
            else:
                del rest[key]
    bound = max(map(abs, _unpack(lo, n) + _unpack(hi, n)))
    return _new(n, quot, _bounded(bound))


# -- text syntax ----------------------------------------------------------

class PolyParseError(ValueError):
    """Parse failure with position information for caret diagnostics."""

    def __init__(self, text, pos, message):
        self.text = text
        self.pos = pos
        caret = " " * pos + "^"
        super().__init__(f"{message} at position {pos}\n  {text}\n  {caret}")


# largest sum over the variables of the degree span that ``parse_poly``
# accepts: sympy's factorization time grows steeply with the degree
# (t^10000 - 1 took 35 s), and ``alexlink factor`` reads its input here
FACTOR_DEGREE_BUDGET = 256

# largest e * log2(sum |c|) over the coefficients c of p that ``parse_poly``
# allows for a power p^e, or sum over the factors of a product, a bound on
# the bits of its coefficients: the degree span cannot see a constant's
# power, and 7^999999999 has 845 million digits
COEFFICIENT_BIT_BUDGET = 4096
# the digits of 2^COEFFICIENT_BIT_BUDGET; int() refuses past 4,300
_MAX_DIGITS = len(str(2 ** COEFFICIENT_BIT_BUDGET))


class DegreeSpanExceeded(ValueError):
    """A polynomial's summed degree span is over FACTOR_DEGREE_BUDGET."""


_SPACES = re.compile(r"\s*")
_DIGITS = re.compile(r"[0-9]*")
# the characters that start an atom, where juxtaposition multiplies
_ATOM_START = frozenset("(t0123456789")


def _summed_span(p):
    """The degree spans of p's variables, added up."""
    return sum(p.degree_span(i) for i in range(p.nvars))


class _Parser:
    """Recursive-descent parser for the polynomial text syntax.

    Grammar, with whitespace allowed between tokens but not inside a
    variable or a number; a number is ASCII digits only::

        expr   := signs? term (signs term)*
        term   := power ("*"? power)*          (2t1(t2-1) multiplies)
        power  := atom ("^" ("+" | "-")? digits)?
        atom   := "(" expr ")" | "t" digits? | digits
        signs  := ("+" | "-")+                 (an odd count of "-" negates)
        digits := [0-9]+

    A bare "t" is t1, and only in the one-variable ring; a negative
    exponent needs a unit monomial base.  Characters are read only
    through the cursor helpers ``peek``, ``take``, ``digits`` and
    ``signs``.

    The summed degree span of the result, and of every product and
    power before it is expanded, must stay within FACTOR_DEGREE_BUDGET.
    Spans add under multiplication, so the check costs no expansion, and
    so do the bounds log2(sum |c|) on each factor's coefficient bits, whose
    sum must stay within COEFFICIENT_BIT_BUDGET, as must a digit run's.
    """

    def __init__(self, text, nvars):
        self.text = text
        self.nvars = nvars
        self.pos = 0

    def error(self, message):
        raise PolyParseError(self.text, self.pos, message)

    def peek(self):
        """Skip whitespace; the next character, or "" at the end."""
        self.pos = _SPACES.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def take(self, chars):
        """Consume the next character if it is in ``chars``; it, or ""."""
        ch = self.peek()
        if ch and ch in chars:
            self.pos += 1
            return ch
        return ""

    def digits(self):
        """Consume the ASCII digits at the cursor, or "", skipping no
        space; a run longer than _MAX_DIGITS is refused unread."""
        run = _DIGITS.match(self.text, self.pos).group()
        if len(run) > _MAX_DIGITS:
            self.error(f"a number of {len(run)} digits exceeds the bound "
                       f"of {COEFFICIENT_BIT_BUDGET} bits")
        self.pos += len(run)
        return run

    def signs(self):
        """Consume a run of "+" and "-": its sign, or 0 when it is empty."""
        sign = 0
        while ch := self.take("+-"):
            sign = (sign or 1) * (-1 if ch == "-" else 1)
        return sign

    def parse(self):
        try:
            p = self.expr()
        except ExponentLimitExceeded as exc:
            self.error(str(exc))
        if self.peek():
            self.error("unexpected trailing input")
        self.within_budget(p)
        return p

    def within_budget(self, *factors, power=1):
        """Refuse the product of ``factors``, raised to ``power``, when its
        summed degree span would exceed FACTOR_DEGREE_BUDGET."""
        if any(f.is_zero() for f in factors):
            return
        span = power * sum(map(_summed_span, factors))
        if span > FACTOR_DEGREE_BUDGET:
            raise DegreeSpanExceeded(
                f"degree span {span} exceeds the factor budget of "
                f"{FACTOR_DEGREE_BUDGET}")

    def within_bits(self, what, *factors, power=1):
        """Refuse ``what``, the product of ``factors`` to ``power``, past
        COEFFICIENT_BIT_BUDGET bits."""
        bits = power * sum(math.log2(max(1, sum(map(abs, f._d.values()))))
                           for f in factors)
        if bits > COEFFICIENT_BIT_BUDGET:
            self.error(f"{what} with coefficients of up to {bits:.0f} bits "
                       f"exceeds the bound of {COEFFICIENT_BIT_BUDGET} bits")

    def expr(self):
        p = (self.signs() or 1) * self.term()
        while sign := self.signs():
            p = p + sign * self.term()
        return p

    def term(self):
        p = self.power()
        while self.take("*") or self.peek() in _ATOM_START:
            q = self.power()
            self.within_budget(p, q)
            self.within_bits("product", p, q)
            p = p * q
        return p

    def power(self):
        p = self.atom()
        if self.take("^"):
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
            self.within_budget(p, power=e)
            self.within_bits("power", p, power=e)
            return p ** e
        return p

    def atom(self):
        if self.take("("):
            p = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return p
        start = self.pos
        if self.take("t"):
            index = self.digits()
            if not index and self.nvars != 1:
                self.pos = start
                self.error("variable needs an index, e.g. t1")
            idx = int(index or 1)  # bare 't' in the one-variable ring
            if not 1 <= idx <= self.nvars:
                self.pos = start
                self.error(f"variable t{idx} outside ring with {self.nvars} variables")
            return LaurentPoly.var(self.nvars, idx - 1)
        if number := self.digits():
            return LaurentPoly.const(self.nvars, int(number))
        self.error("expected a coefficient, variable or '('")

    def integer(self):
        sign = -1 if self.take("+-") == "-" else 1
        self.peek()
        number = self.digits()
        if not number:
            self.error("expected an integer")
        return sign * int(number)


def parse_poly(text, nvars):
    """Parse the fixture/CLI polynomial syntax, e.g. '(t1-1)*(t2*t3-1)'.

    Raises DegreeSpanExceeded, before expanding it, for a product or
    power whose summed degree span would exceed FACTOR_DEGREE_BUDGET,
    and for a result that does; PolyParseError for a power whose
    coefficients would pass COEFFICIENT_BIT_BUDGET bits.
    """
    return _Parser(text, nvars).parse()


def format_terms(terms):
    """Render (coefficient, monomial) pairs, in order, as 'a - 2*b + 3'.

    A monomial is a string, empty for the constant term; the result of
    no pairs is '0'.
    """
    out = ""
    for c, mono in terms:
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += (str(abs(c)) if not mono
                else mono if abs(c) == 1 else f"{abs(c)}*{mono}")
    return out or "0"


def format_poly(p):
    """Deterministic plain-text rendering accepted back by parse_poly."""
    terms = p.terms
    pairs = []
    for exps in sorted(terms, reverse=True):
        factors = []
        for i, e in enumerate(exps):
            if e:
                name = f"t{i + 1}" if p.nvars > 1 else "t"
                factors.append(name if e == 1 else f"{name}^{e}")
        pairs.append((terms[exps], "*".join(factors)))
    return format_terms(pairs)
