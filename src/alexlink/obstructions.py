"""Lower-bound obstructions for unlinking, splitting and Gordian distance.

Every bound starts from the rank inequality: turning an m-component link
into a split (or unlinked) one needs at least m - 1 - beta crossing
changes.  The refinements all have the same shape: if the relevant
Alexander polynomial is nonzero and fails a norm-pairing test, the
extremal value m - 1 is excluded, so the bound rises to m.

Quantities covered:

  * unlinking number: delta must be f * conj(f) * negligible;
  * splitting number (inter-component changes only): the quotient of
    delta by the product of the component polynomials, each in its own
    variable, must be such a norm, and the answer has the parity of the
    total linking number;
  * weak splitting number (any changes): as for unlinking, but factors
    in a single variable are unconstrained;
  * Gordian distance: |beta(L) - beta(J)| is a lower bound, and when it
    is attained the torsion polynomial of L must be that of J times a
    norm times a negligible;
  * splitting-sequence comparisons and the forced-complexity and
    band-clasping verdicts derived from odd-multiplicity arguments.

The first three have one route: ``delta_bounds`` factors delta once and
runs all three norm tests on that factorization, and ``build_report``
adds the parity step and the fixture annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import PDError
from .factor import (NormVerdict, _pair_off, factor_irreducible,
                     is_norm_up_to_negligible, norm_classes, norm_equivalent,
                     norm_verdict, odd_multiplicity_divisor)
from .invariants import AlexanderData, alexander_data, component_polynomials
from .laurent import (LaurentPoly, NotDivisible, divide_exact,
                      embed_univariate, unit_equal, unit_normal_form)

RULE_RANK = "rank bound m-1-beta"
RULE_UNLINK_NORM = "delta nonzero and not a norm times negligible; m-1 excluded"
RULE_SPLIT_NORM = ("delta over product of component polynomials is not a "
                   "norm times negligible; m-1 excluded")
RULE_WSP_NORM = ("delta is not a norm times negligible modulo one-variable "
                 "factors; m-1 excluded")
RULE_PARITY = "splitting parity equals total linking number parity"


def delta_bounds(alex: AlexanderData, component_polys):
    """The unlinking, splitting and weak splitting bounds from delta.

    Each is the rank bound m - 1 - beta, raised to m when delta is
    nonzero and fails the quantity's norm test; delta is factored once
    for all three.  ``component_polys`` lists the one-variable Alexander
    polynomial of each component as a knot, in component order.  Returns
    {quantity: (bound, reasons, verdict)}, the verdict None when
    delta = 0 and no test runs; the splitting bound is before the
    parity step.
    """
    m = alex.m
    fact = None if alex.delta.is_zero() else factor_irreducible(alex.delta)
    tests = {
        "unlinking": (RULE_UNLINK_NORM, norm_verdict),
        "splitting": (RULE_SPLIT_NORM, lambda f: _splitting_verdict(
            f, alex.delta, component_polys, m)),
        "weakSplitting": (RULE_WSP_NORM,
                          lambda f: norm_verdict(f, skip_univariate=True)),
    }
    out = {}
    for quantity, (rule, test) in tests.items():
        bound, reasons, verdict = m - 1 - alex.beta, [RULE_RANK], None
        if fact is not None:
            verdict = test(fact)
            if not verdict.is_norm:
                bound = m
                reasons.append(rule)
        out[quantity] = (bound, reasons, verdict)
    return out


def _splitting_verdict(fact, delta, component_polys, m):
    """Norm test on delta over the product of the component polynomials.

    The quotient's factorization is delta's minus the component
    polynomials' (each factored once, in one variable, then embedded in
    its component's variable), so nothing is divided out or factored
    again.  The product divides delta exactly when no class needs a
    larger multiplicity than delta has.
    """
    factored = {unit_normal_form(delta): fact} if m == 1 else {}
    divisor = {}
    for i, p in enumerate(component_polys):
        if p.is_unit():
            continue
        key = unit_normal_form(p)
        if key not in factored:
            factored[key] = factor_irreducible(p)
        for q, mult in factored[key].factors:
            q = unit_normal_form(embed_univariate(q, i, m))
            divisor[q] = divisor.get(q, 0) + mult
    have = dict(fact.factors)
    if any(mult > have.get(q, 0) for q, mult in divisor.items()):
        prod = LaurentPoly.one(m)
        for i, p in enumerate(component_polys):
            prod = prod * embed_univariate(p, i, m)
        return NormVerdict(is_norm=False, blocking_factors=(prod,))
    classes = {q: mult - divisor.get(q, 0)
               for q, mult in norm_classes(fact).items()}
    return _pair_off({q: c for q, c in classes.items() if c}, m)


def parity_refine(bound: int, total_linking: int):
    """Smallest value >= bound with the parity of the total linking number.

    Each inter-component crossing change moves one pairwise linking
    number by one, and a split link has all of them zero, so the
    splitting number is congruent to their sum mod 2.
    """
    if bound % 2 != total_linking % 2:
        return bound + 1
    return bound


def gordian_rank_bound(a_l: AlexanderData, a_j: AlexanderData):
    """|beta(L) - beta(J)|, a lower bound for the Gordian distance."""
    if a_l.m != a_j.m:
        raise ValueError("Gordian comparison needs equal component counts")
    return abs(a_l.beta - a_j.beta)


@dataclass(frozen=True)
class ExtremalVerdict:
    """Outcome of the extremal Gordian divisibility test.

    When the Gordian distance equals beta(J) - beta(L) >= 0, the torsion
    polynomial of L must equal that of J times f * conj(f) times a
    negligible.  ``compatible`` False certifies the distance is larger.
    """
    compatible: bool
    quotient: LaurentPoly = None
    norm_verdict: NormVerdict = None


def gordian_extremal_divisibility(a_l: AlexanderData, a_j: AlexanderData):
    if a_l.m != a_j.m:
        raise ValueError("Gordian comparison needs equal component counts")
    try:
        quotient = divide_exact(a_l.delta_tor, a_j.delta_tor)
    except NotDivisible:
        return ExtremalVerdict(compatible=False)
    verdict = is_norm_up_to_negligible(quotient)
    return ExtremalVerdict(compatible=verdict.is_norm, quotient=quotient,
                           norm_verdict=verdict)


def splitting_sequence_knot_constraint(prod_k, prod_j):
    """Can two splitting sequences leave knot types with these products?

    ``prod_k`` and ``prod_j`` are the products of the one-variable
    polynomials of the resulting knot types, each in its component's
    variable.  Both sequences can exist only if the products agree up to
    a norm and a negligible; a failed pairing certifies they cannot.
    """
    return norm_equivalent(prod_k, prod_j)


@dataclass(frozen=True)
class ForcedComplexity:
    multiplicity: int
    min_alexander_degree: int
    min_crossings: int


def forced_knot_complexity(delta_l, delta_j, var_index=0):
    """Minimal complexity of a knot forced by an odd symmetric factor.

    If the irreducible symmetric one-variable polynomial ``delta_j``
    divides ``delta_l`` (embedded in variable ``var_index``) with odd
    multiplicity, then any knot created by a shortest splitting sequence
    on that component has Alexander polynomial divisible by it, hence
    degree at least deg(delta_j), hence at least deg + 1 crossings.
    """
    q = embed_univariate(delta_j, var_index, delta_l.nvars)
    result = odd_multiplicity_divisor(delta_l, q)
    if not result.forced_divides:
        raise ValueError(
            f"multiplicity {result.multiplicity} is even; nothing is forced")
    deg = delta_j.degree_span(0)
    return ForcedComplexity(multiplicity=result.multiplicity,
                            min_alexander_degree=deg,
                            min_crossings=deg + 1)


@dataclass(frozen=True)
class BandClaspingVerdict:
    """Verdict for the band-clasping factorization test.

    A 2-component link made by clasping a band between a knot K (in t2)
    and a knot J (in t1) must satisfy
    delta_L = delta_K(t2) * delta_J(t1) * g * conj(g), with equality up
    to a signed monomial only, no further negligible slack.
    """
    compatible: bool
    g: LaurentPoly = None
    trivial_clasping: bool = False
    blocking_factors: tuple = ()


def band_clasping_check(delta_l, delta_k, delta_j):
    """Test the band-clasping shape and extract the band polynomial g."""
    if delta_l.is_zero():
        return BandClaspingVerdict(compatible=False)
    m = delta_l.nvars
    if m != 2:
        raise ValueError("band-clasping test needs a 2-variable polynomial")
    prod = embed_univariate(delta_j, 0, m) * embed_univariate(delta_k, 1, m)
    try:
        quotient = divide_exact(delta_l, prod)
    except NotDivisible:
        return BandClaspingVerdict(compatible=False,
                                   blocking_factors=(unit_normal_form(prod),))
    # pair off the full factorization: unlike the negligible-slack tests,
    # (1 - t_i) and prime factors here must pair as well
    verdict = _pair_off(dict(factor_irreducible(quotient).factors), m)
    if not verdict.is_norm:
        return BandClaspingVerdict(compatible=False,
                                   blocking_factors=verdict.blocking_factors)
    g = verdict.witness
    return BandClaspingVerdict(compatible=True, g=g,
                               trivial_clasping=unit_equal(
                                   g, LaurentPoly.one(m)))


# ---------------------------------------------------------------------------
# the per-link report

@dataclass
class ObstructionReport:
    link_name: str
    m: int
    beta: int
    delta: LaurentPoly
    delta_tor: LaurentPoly
    component_polys: list
    bounds: dict            # quantity -> (lower bound, [reasons])
    parity_constraint: int  # residue mod 2 of the splitting number, or None
    norm_verdicts: dict     # quantity -> NormVerdict or None
    inconclusive: list = field(default_factory=list)
    annotations: dict = field(default_factory=dict)


def build_report(d):
    """Assemble the full obstruction report for a diagram.

    Fixture annotations (``note_*`` lines) ride along; a fixture marked
    ``note_open`` gets its named quantities listed as inconclusive: the
    bounds here cannot settle them.  A name that is not one of the
    report's quantities raises PDError.
    """
    alex = alexander_data(d)
    component_polys = component_polynomials(d, alex)
    lk_sum = d.total_linking_number()
    bounds = delta_bounds(alex, component_polys)
    bound, reasons, verdict = bounds["splitting"]
    refined = parity_refine(bound, lk_sum)
    if refined != bound:
        bounds["splitting"] = (refined, reasons + [RULE_PARITY], verdict)
    notes = dict(d.notes)
    inconclusive = []
    if "note_open" in notes:
        inconclusive = [q.strip() for q in notes["note_open"].split(",")]
        unknown = [q for q in inconclusive if q not in bounds]
        if unknown:
            raise PDError(f"note_open names {unknown}, which are not among "
                          f"the quantities {', '.join(bounds)}")
    return ObstructionReport(
        link_name=d.name,
        m=d.ncomps,
        beta=alex.beta,
        delta=alex.delta,
        delta_tor=alex.delta_tor,
        component_polys=component_polys,
        bounds={q: (b, rs) for q, (b, rs, _) in bounds.items()},
        parity_constraint=lk_sum % 2,
        norm_verdicts={q: v for q, (_, _, v) in bounds.items()},
        inconclusive=inconclusive,
        annotations=notes,
    )
