import math
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

import alexlink as al
from alexlink.laurent import VariableCountMismatch

FIXTURE_DIR = Path(al.__file__).parent / "fixtures"


def fixture_paths():
    return sorted(FIXTURE_DIR.glob("*.lnk"))


def load_fixture(name):
    path = FIXTURE_DIR / f"{name}.lnk"
    return al.parse_fixture(path.read_text(), name_hint=path.stem)


def corpus_diagrams():
    return [al.parse_fixture(p.read_text(), name_hint=p.stem)
            for p in fixture_paths()]


@pytest.fixture(scope="session")
def corpus():
    return corpus_diagrams()


def random_poly(rng, nvars, max_terms=4, max_exp=3, max_coeff=5,
                allow_zero=False):
    """Small random Laurent polynomial for property tests."""
    while True:
        terms = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            exps = tuple(rng.randrange(-max_exp, max_exp + 1)
                         for _ in range(nvars))
            c = rng.randrange(-max_coeff, max_coeff + 1)
            if c:
                terms[exps] = terms.get(exps, 0) + c
        p = al.LaurentPoly(nvars, terms)
        if allow_zero or not p.is_zero():
            return p


def random_unit(rng, nvars, max_exp=3):
    exps = tuple(rng.randrange(-max_exp, max_exp + 1) for _ in range(nvars))
    return al.LaurentPoly.monomial(nvars, exps, rng.choice([1, -1]))


def shift(p, exps, sign=1):
    """p times the unit sign * t^exps."""
    return p * al.LaurentPoly.monomial(p.nvars, exps, sign)


def random_negligible(rng, nvars, max_exp=2, max_s=2):
    p = random_unit(rng, nvars, max_exp)
    for i in range(nvars):
        one_minus = al.LaurentPoly.one(nvars) - al.LaurentPoly.var(nvars, i)
        for _ in range(rng.randrange(0, max_s + 1)):
            p = p * one_minus
    return p


def evaluate(p, images, new_nvars):
    """The ring map t_i -> t^images[i] into a ring of new_nvars variables.

    ``images[i]`` is the exponent vector of t_i's image, so this covers
    any monomial substitution; the reference for the packed ring maps.
    """
    if len(images) != p.nvars:
        raise VariableCountMismatch("substitution must cover every variable")
    out = {}
    for exps, c in p.terms.items():
        key = [0] * new_nvars
        for i, e in enumerate(exps):
            for j in range(new_nvars):
                key[j] += e * images[i][j]
        key = tuple(key)
        out[key] = out.get(key, 0) + c
    return al.LaurentPoly(new_nvars, out)


@dataclass(frozen=True)
class NegligibleDecomposition:
    """p = sign * t^monomial * prod (1-t_i)^one_minus_t_exponents[i] * core.

    ``core`` is in unit normal form and divisible by no (1 - t_i).  The
    negligible polynomials are exactly those with core equal to 1.
    """
    sign: int
    monomial: tuple
    one_minus_t_exponents: tuple
    core: al.LaurentPoly


def negligible_decompose(p):
    """Divide out the maximal powers of (1-t_i), then the unit part of p.

    The reference for the negligible part that ``alexlink factor`` reads
    off its factorization.
    """
    n = p.nvars
    rest, exponents = p, [0] * n
    for i in range(n):
        one_minus = 1 - al.LaurentPoly.var(n, i)
        while al.divides(one_minus, rest):
            rest = al.divide_exact(rest, one_minus)
            exponents[i] += 1
    core = al.unit_normal_form(rest)
    (monomial, sign), = al.divide_exact(rest, core).terms.items()
    return NegligibleDecomposition(sign, monomial, tuple(exponents), core)


def is_negligible(p):
    """True when p = ±t^r * prod (1-t_i)^{s_i}, a unit of the localized ring."""
    return negligible_decompose(p).core.is_one()


def content(p):
    """The (nonnegative) integer content of p."""
    return math.gcd(*p.terms.values())


def seeded(seed):
    return random.Random(seed)


def braid_closure_pd(word, n):
    """PD text of the closure of a braid word on n strands.

    ``word`` holds +i for sigma_i and -i for its inverse.  A positive
    sigma_i at edges (a at position i, b at i+1) is X[b, b', a', a] and a
    negative one X[a, b, b', a'], where a' and b' leave at positions i
    and i+1.  Edges are numbered along each component in the braid's
    direction, which is how parse_pd orients a component that never
    passes under.  Every generator should occur in the word, so that no
    strand closes up into a loop with no crossing.
    """
    at = list(range(n))      # edge currently at each position
    succ = {}                # edge -> next edge along its strand
    raw = []
    fresh = n
    for g in word:
        i = abs(g) - 1
        a, b = at[i], at[i + 1]
        a2, b2 = fresh, fresh + 1
        fresh += 2
        raw.append((b, b2, a2, a) if g > 0 else (a, b, b2, a2))
        succ[a], succ[b] = b2, a2
        at[i], at[i + 1] = a2, b2
    bottom = {at[p]: p for p in range(n)}   # bottom edge p is top edge p
    succ = {bottom.get(e, e): bottom.get(f, f) for e, f in succ.items()}
    label = {}
    for p in range(n):
        e = p
        while e not in label:
            label[e] = len(label) + 1
            e = succ[e]
    return ", ".join("X[{},{},{},{}]".format(
        *(label[bottom.get(e, e)] for e in cr)) for cr in raw)


def random_braid_words(rng, count, strands=(3, 4), length=(8, 14)):
    """``count`` seeded (word, strands) pairs using every generator."""
    out = []
    while len(out) < count:
        n = rng.choice(strands)
        word = [rng.choice([1, -1]) * rng.randrange(1, n)
                for _ in range(rng.randrange(length[0], length[1] + 1))]
        if {abs(g) for g in word} == set(range(1, n)):
            out.append((word, n))
    return out


def braid_closure(word, n):
    """The closure of a braid word on n strands, named after it."""
    return al.parse_pd(braid_closure_pd(word, n), name=f"braid{n}:{word}")


def random_braid_closures(rng, count, strands=(3, 4), length=(8, 14)):
    """``count`` seeded braid-closure diagrams using every generator."""
    return [braid_closure(word, n)
            for word, n in random_braid_words(rng, count, strands, length)]


@pytest.fixture
def factor_calls(monkeypatch):
    """The inputs of every factor_irreducible call, through any module."""
    from alexlink import cli, factor, obstructions
    calls = []
    real = factor.factor_irreducible

    def counting(p):
        calls.append(p)
        return real(p)

    for module in (factor, obstructions, cli):
        monkeypatch.setattr(module, "factor_irreducible", counting)
    return calls


@pytest.fixture
def sympy_polys(monkeypatch):
    """The polynomials factor.py hands to sympy through to_sympy: empty
    when no gcd and no factorization asked sympy anything."""
    from alexlink import factor
    calls = []
    real = factor.to_sympy

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(factor, "to_sympy", counting)
    return calls


def sympy_gcd(a, b):
    """gcd(a, b) in unit normal form by ``sympy.gcd``: the reference for
    factor.gcd, through conversions of its own.  Each polynomial is
    shifted to least exponents 0, a unit factor, before sympy sees it."""
    import sympy
    a._check(b)
    n = a.nvars
    symbols = sympy.symbols(f"t1:{n + 1}")

    def to_sympy(p):
        mins = [min(col) for col in zip(*p.terms)] if p.terms else [0] * n
        return sympy.Poly.from_dict(
            {tuple(e - m for e, m in zip(exps, mins)): c
             for exps, c in p.terms.items()} or {(0,) * n: 0},
            *symbols, domain=sympy.ZZ)

    g = sympy.gcd(to_sympy(a), to_sympy(b))
    return al.unit_normal_form(al.LaurentPoly(
        n, {tuple(map(int, exps)): int(c)
            for exps, c in g.as_dict().items()}))
