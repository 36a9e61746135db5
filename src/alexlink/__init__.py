"""Exact Alexander-module invariants of links and splitting obstructions.

The package computes, from PD-code link diagrams, the rank and orders of
the Alexander module over the multivariable Laurent ring, factors the
resulting polynomials, and evaluates lower-bound obstructions for the
unlinking number, splitting number, weak splitting number and Gordian
distance, together with a bounded diagrammatic search that supplies
matching upper bounds.
"""

from .laurent import (LaurentPoly, NotDivisible, PolyParseError, divide_exact,
                      divides, format_poly, parse_poly, unit_equal,
                      unit_normal_form)
from .diagram import (LinkDiagram, PDError, fox_jacobian, is_planar,
                      parse_fixture, parse_pd, serialize_pd)
from .invariants import (AlexanderData, alexander_data, component_polynomials,
                         conway_polynomial, one_variable_alexander,
                         sato_levine)
from .factor import (Factorization, NormVerdict, factor_irreducible, gcd,
                     is_norm_up_to_negligible, norm_equivalent,
                     odd_multiplicity_divisor)
from .obstructions import (ObstructionReport, band_clasping_check,
                           build_report, delta_bounds, forced_knot_complexity,
                           gordian_extremal_divisibility, gordian_rank_bound,
                           parity_refine, splitting_sequence_knot_constraint)
from .search import SearchResult, bounded_split_search, certify_gap

__all__ = [
    "LaurentPoly", "NotDivisible", "PolyParseError", "divide_exact",
    "divides", "format_poly", "parse_poly", "unit_equal", "unit_normal_form",
    "LinkDiagram", "PDError", "fox_jacobian", "is_planar", "parse_fixture",
    "parse_pd", "serialize_pd",
    "AlexanderData", "alexander_data", "component_polynomials",
    "conway_polynomial", "one_variable_alexander", "sato_levine",
    "Factorization", "NormVerdict", "factor_irreducible", "gcd",
    "is_norm_up_to_negligible", "norm_equivalent",
    "odd_multiplicity_divisor",
    "ObstructionReport", "band_clasping_check", "build_report",
    "delta_bounds", "forced_knot_complexity",
    "gordian_extremal_divisibility", "gordian_rank_bound", "parity_refine",
    "splitting_sequence_knot_constraint",
    "SearchResult", "bounded_split_search", "certify_gap",
]
