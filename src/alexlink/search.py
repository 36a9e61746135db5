"""Bounded search for diagrammatic splitting sequences.

Enumerates sets of crossing changes on a fixed diagram, breadth-first in
the number of changes, and reports the shallowest set after which the
diagram falls apart completely: after bigon reduction no two components
share a crossing.  This gives an upper bound for the splitting number
(inter-component mode) or the weak splitting number (any-crossing mode)
that can be sandwiched against the algebraic lower bounds; both count
changes to a completely split link, as does the rank bound.

A completely split diagram has every lk(i,j) = 0, and changing crossing
c between components i and j moves lk(i,j) by -sign(c).  So only a set
whose changed (i,j) crossings have signs summing to lk(i,j), for every
pair, can split, and ``_change_sets`` generates just those: n+ positive
and n- negative crossings of each pair with n+ - n- = lk(i,j), and any
self-crossings in any-crossing mode, in the lexicographic order of
``combinations``.  The search starts at depth sum |lk(i,j)|.  Bigon
reduction keeps linking numbers, so the first set that splits is the
one a walk over every set would find.

Each set is reduced by ``_reduce`` as a flat list, the diagram's
crossings with the set's switched.  A curl or bigon among crossings the
set left alone would be a move of the given diagram, so the reduction
looks for moves only at the set's crossings and where its splices
relabel, unless the given diagram has a move of its own.  The set
splits once no crossing joining two components by the given
``comp_of_edge`` is left, and the reduction stops there: a label left
is one of the diagram's own edges, and curl and bigon moves are
isotopies, so it keeps its component, and later moves only remove
crossings.

Splitness is only certified at the diagram level, so a genuinely split
link can be missed on an unhelpful diagram: the upper bounds are
conservative.  No isotopy beyond bigon reduction is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .diagram import _edge_index, _moves_at, _reduce, _switched

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
    # the crossings between each pair of components, by sign
    pairs = {}
    for c in range(d.ncrossings):
        cu, co = d.crossing_components(c)
        if cu != co:
            pos, neg = pairs.setdefault((max(cu, co), min(cu, co)), ([], []))
            (pos if d.signs[c] > 0 else neg).append(c)
    groups = [(pos, neg, lk[pair]) for pair, (pos, neg) in pairs.items()]
    mixed = frozenset(c for pos, neg, _ in groups for c in pos + neg)
    every = range(d.ncrossings)
    free = [c for c in every if c not in mixed] if mode == "any" else []

    base, base_signs = list(d.crossings), list(d.signs)
    switched = list(map(_switched, base, base_signs))
    where = _edge_index(base)
    # where the given diagram has a move of its own, a set's reduction
    # must look for moves at every crossing, not only at those it changed
    curls, bigons = set(), set()
    _moves_at(base, base_signs, where, every, curls, bigons)
    everywhere = every if curls or bigons else ()

    for depth in range(sum(map(abs, lk.values())), max_depth + 1):
        for changes in _change_sets(groups, free, depth):
            crossings, signs = list(base), list(base_signs)
            for c in changes:
                crossings[c], signs[c] = switched[c]
            _, left = _reduce(crossings, signs, everywhere or changes,
                              dict(where), mixed)
            if not left:
                partition = tuple((i,) for i in range(d.ncomps))
                return SearchResult(found=True, sequence=changes, depth=depth,
                                    partition=partition, mode=mode)
    return SearchResult(found=False, sequence=(), partition=None,
                        depth=max_depth, mode=mode)


def _change_sets(groups, free, depth):
    """The sets of ``depth`` crossings that change every lk(i,j) to 0,
    as sorted tuples in lexicographic order.

    Each group (pos, neg, lk) holds the positive and the negative
    crossings between one pair of components; a set takes n+ of pos and
    n- of neg with n+ - n- = lk, and any crossings of ``free`` besides.
    """
    need = sum(abs(target) for _, _, target in groups)
    partial = {0: [()]}   # size -> the sets taken from the groups so far
    for pos, neg, target in groups:
        need -= abs(target)
        grown = {}
        for size, heads in partial.items():
            for k in range(abs(target), depth - size - need + 1, 2):
                tails = [p + q
                         for p in combinations(pos, (k + target) // 2)
                         for q in combinations(neg, (k - target) // 2)]
                if tails:
                    grown.setdefault(size + k, []).extend(
                        h + t for h in heads for t in tails)
        partial = grown
    return sorted(tuple(sorted(h + t))
                  for size, heads in partial.items() for h in heads
                  for t in combinations(free, depth - size))


@dataclass(frozen=True)
class GapSummary:
    intervals: dict   # quantity -> (lower, upper or None)
    exact: dict       # quantity -> bool


def certify_gap(report, search_result):
    """Sandwich the algebraic lower bounds with the search upper bound.

    An inter-component search bounds the splitting and the weak
    splitting number, an any-crossing search only the weak splitting
    number.  A found depth below a lower bound means a bug somewhere
    and raises instead of reporting.
    """
    # inter-component changes are also admissible for the weak
    # splitting number
    admissible = {"inter": ("splitting", "weakSplitting"),
                  "any": ("weakSplitting",)}[search_result.mode]
    intervals = {}
    exact = {}
    for q, (lower, _) in report.bounds.items():
        upper = (search_result.depth
                 if search_result.found and q in admissible else None)
        if upper is not None and upper < lower:
            raise AssertionError(
                f"search found depth {upper} below lower bound {lower} "
                f"for {q} on {report.link_name}: inconsistent pipeline")
        intervals[q] = (lower, upper)
        exact[q] = upper is not None and upper == lower
    return GapSummary(intervals=intervals, exact=exact)
