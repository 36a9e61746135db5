"""Bounded search for diagrammatic splitting sequences.

Enumerates sets of crossing changes on a fixed diagram, breadth-first in
the number of changes, and reports the shallowest set after which the
diagram falls apart completely: after bigon reduction no two components
share a crossing.  This gives an upper bound for the splitting number
(inter-component mode) or the weak splitting number (any-crossing mode)
that can be sandwiched against the algebraic lower bounds; both count
changes to a completely split link, as does the rank bound.

A completely split diagram has every lk(i,j) = 0, and changing crossing
c between components i and j moves lk(i,j) by -sign(c).  So a set is
skipped, before it is reduced, unless for every pair the signs of
its changed (i,j) crossings sum to lk(i,j), and the search starts at
depth sum |lk(i,j)|.  Bigon reduction keeps linking numbers, so neither
step changes the reported set.  A set left is reduced as a flat list,
the diagram's crossings with the set's switched, and splits when every
crossing left joins a component to itself by the given ``comp_of_edge``:
a label left is one of the diagram's own edges, and curl and bigon moves
are isotopies, so it keeps its component.

Splitness is only certified at the diagram level, so a genuinely split
link can be missed on an unhelpful diagram: the upper bounds are
conservative.  No isotopy beyond bigon reduction is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .diagram import _reduced, _switched

MAX_SEARCH_DEPTH = 4
SEARCH_CROSSING_BUDGET = 20


class SearchBudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class SearchResult:
    found: bool
    sequence: tuple        # crossing indices changed (sorted)
    partition: tuple       # component partition reached, or None
    depth: int             # depth searched (found depth when found)
    mode: str


def bounded_split_search(d, max_depth, mode="inter"):
    """Breadth-first search over crossing-change sets up to max_depth.

    ``mode`` is "inter" (only crossings between distinct components may
    be changed; bounds the splitting number) or "any" (bounds the weak
    splitting number).  Crossing changes commute, so candidate sequences
    are explored as sets; the lexicographically smallest set at the
    shallowest depth wins.
    """
    if mode not in ("inter", "any"):
        raise ValueError(f"unknown search mode {mode!r}")
    if max_depth < 0:
        raise ValueError(f"search depth {max_depth} is negative")
    if max_depth > MAX_SEARCH_DEPTH:
        raise SearchBudgetExceeded(
            f"depth {max_depth} exceeds the budget of {MAX_SEARCH_DEPTH}")
    if d.ncrossings > SEARCH_CROSSING_BUDGET:
        raise SearchBudgetExceeded(
            f"{d.ncrossings} crossings exceed the budget "
            f"of {SEARCH_CROSSING_BUDGET}")

    lk = {(i, j): row[j]
          for i, row in enumerate(d.linking_matrix()) for j in range(i)}
    # (component pair, sign) of each crossing between two components
    mixed = {}
    for c in range(d.ncrossings):
        cu, co = d.crossing_components(c)
        if cu != co:
            mixed[c] = ((max(cu, co), min(cu, co)), d.signs[c])
    candidates = list(mixed) if mode == "inter" else range(d.ncrossings)
    switched = list(map(_switched, d.crossings, d.signs))
    comp = d.comp_of_edge

    for depth in range(sum(map(abs, lk.values())), max_depth + 1):
        for changes in combinations(candidates, depth):
            moved = dict.fromkeys(lk, 0)
            for c in changes:
                if c in mixed:
                    pair, sign = mixed[c]
                    moved[pair] += sign
            if moved != lk:
                continue
            crossings, signs = list(d.crossings), list(d.signs)
            for c in changes:
                crossings[c], signs[c] = switched[c]
            crossings, _ = _reduced(crossings, signs)
            if all(comp[a] == comp[b] for a, b, _, _ in crossings):
                partition = tuple((i,) for i in range(d.ncomps))
                return SearchResult(found=True, sequence=changes, depth=depth,
                                    partition=partition, mode=mode)
    return SearchResult(found=False, sequence=(), partition=None,
                        depth=max_depth, mode=mode)


@dataclass(frozen=True)
class GapSummary:
    intervals: dict   # quantity -> (lower, upper or None)
    exact: dict       # quantity -> bool


def certify_gap(report, search_result):
    """Sandwich the algebraic lower bounds with the search upper bound.

    An inter-component search bounds the splitting number, an
    any-crossing search the weak splitting number.  A found depth below
    a lower bound means a bug somewhere and raises instead of reporting.
    """
    quantity = "splitting" if search_result.mode == "inter" else "weakSplitting"
    intervals = {}
    exact = {}
    for q, (lower, _) in report.bounds.items():
        upper = None
        if q == quantity and search_result.found:
            upper = search_result.depth
        elif (q == "weakSplitting" and quantity == "splitting"
              and search_result.found):
            # inter-component changes are also admissible for the weak
            # splitting number
            upper = search_result.depth
        if upper is not None and upper < lower:
            raise AssertionError(
                f"search found depth {upper} below lower bound {lower} "
                f"for {q} on {report.link_name}: inconsistent pipeline")
        intervals[q] = (lower, upper)
        exact[q] = upper is not None and upper == lower
    return GapSummary(intervals=intervals, exact=exact)
