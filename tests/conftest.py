import math
import random
from pathlib import Path

import pytest

import alexlink as al

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
def gcd_calls(monkeypatch):
    """The argument pairs of every factor.gcd call (one sympy gcd each)."""
    from alexlink import factor
    calls = []
    real = factor.gcd

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(factor, "gcd", counting)
    return calls
