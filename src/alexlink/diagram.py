"""Oriented link diagrams in planar-diagram (PD) crossing notation.

A crossing is written X[a,b,c,d]: the four edge labels around the
crossing in counterclockwise order starting from the incoming
under-strand edge a.  So the under-strand runs a -> c and {b, d} is the
over-strand, whose direction follows along its component from an
under-passage; a component that never passes under runs the way its
edge labels increase (cyclically).  A code with an under-strand that
runs c -> a along its component is rejected as inconsistent.  The
crossing is positive when the over-strand runs d -> b and negative when
it runs b -> d.

Edge labels are positive integers, each appearing exactly twice.
Components are ordered by their smallest edge label; crossing-free
components ("free loops", which plain PD codes cannot express) are
carried as a count and ordered after all others.

The module also derives the Wirtinger presentation and its Fox Jacobian,
the link's or one component's, and implements the diagram moves the
obstruction machinery quantifies over: crossing changes, oriented
smoothing, and a small bigon-reduction pass used by the split search.
Every move that drops crossings splices its strands by ``_strands``,
naming each spliced strand by its smallest edge.  Bigon reduction runs
on a flat list in ``_reduce``, shared with the search: it keeps an index
from each edge to its crossings and looks for moves only at the
crossings that a crossing change or a splice touched.  ``_traced``
builds each diagram a move makes: it renumbers the strands 1..N once
and traces the components.  The moves compare labels only by
``==`` and ``<``, which renumbering keeps, so they pick the same moves.
Components, arcs and pieces are numbered by ``_classes``.
"""

from __future__ import annotations

import re

from .factor import MAX_FACTOR_VARS
from .laurent import _MAX_DIGITS, LaurentPoly, _new, _var_key


class PDError(ValueError):
    """Malformed or inconsistent PD input."""


# ---------------------------------------------------------------------------
# classes of edges (strands, components, arcs) and of components (pieces)

def _classes(items, pairs):
    """Number the classes of the equivalence on ``items`` made by ``pairs``.

    Returns {item: class number}; classes are numbered 0, 1, ... in the
    order of their smallest members.
    """
    adjacent = {}
    for x, y in pairs:
        adjacent.setdefault(x, []).append(y)
        adjacent.setdefault(y, []).append(x)
    label = {}
    count = 0
    for x in sorted(items):
        if x in label:
            continue
        label[x] = count
        if x in adjacent:
            members = [x]
            for y in members:
                for z in adjacent[y]:
                    if z not in label:
                        label[z] = count
                        members.append(z)
        count += 1
    return label


def _strand_pairs(crossings):
    """The edge pairs (a, c) and (b, d) a strand runs straight through."""
    return [p for a, b, c, d in crossings for p in ((a, c), (b, d))]


def _strands(splices):
    """{edge: the smallest edge of its strand} for each edge in
    ``splices``, whose edge pairs join edges into strands."""
    strand = {}
    name = strand.setdefault
    for x, y in splices:
        x, y = name(x, x), name(y, y)
        if x != y:
            if y < x:
                x, y = y, x
            for e, s in strand.items():
                if s == y:
                    strand[e] = x
    return strand


def _splice(crossings, drop, splices):
    """Drop the crossings at the indices in ``drop``, splicing ``splices``.

    The edge pairs in ``splices`` join edges into strands, and each
    strand left at a kept crossing is named by its smallest edge; no
    other label changes.  Returns the kept crossings and the number of
    spliced strands left with no crossing: each closes up into a free
    loop.
    """
    strand = _strands(splices)
    get = strand.get
    kept = [(get(a, a), get(b, b), get(c, c), get(d, d))
            for k, (a, b, c, d) in enumerate(crossings) if k not in drop]
    return kept, len(set(strand.values()).difference(*kept))


def _switched(crossing, sign):
    """A crossing and its sign with over- and under-strand swapped."""
    a, b, c, d = crossing
    if sign > 0:
        # over ran d->b; the old under-strand a->c becomes the over-strand
        return (d, a, b, c), -sign
    return (b, c, d, a), -sign


def _edge_index(crossings):
    """{edge: the indices of the two crossings at its ends}; an edge from
    a crossing back to itself lists that crossing twice."""
    where = {}
    for k, crossing in enumerate(crossings):
        for e in crossing:
            where.setdefault(e, []).append(k)
    return where


def _moves_at(crossings, signs, where, at, curls, bigons):
    """Add the moves at the crossings in ``at``: each curl's crossing to
    ``curls``, and each cancelling bigon to ``bigons`` as (i, e, k), its
    crossings i < k and the edge e that runs over at both.

    A cancelling bigon is two crossings of opposite signs where one edge
    runs over at both and some edge runs under at both.  ``where`` is the
    ``_edge_index`` of ``crossings``.
    """
    for x in at:
        a, b, c, d = crossings[x]
        if a == b or b == c or c == d or d == a:
            curls.add(x)
            continue
        sign = signs[x]
        for e in (b, d):
            y, z = where[e]
            if y == x:
                y = z
            if y == x or signs[y] == sign:
                continue
            ya, yb, yc, yd = crossings[y]
            if (e == yb or e == yd) and (
                    ya == a or ya == c or yc == a or yc == c):
                bigons.add((x, e, y) if x < y else (y, e, x))


def _reduce(crossings, signs, dirty, where, watch):
    """Remove curls and cancelling bigons from ``crossings`` in place,
    setting each removed crossing to None, until no move is left or no
    crossing in ``watch`` is.  Returns the number of loops closed and the
    number of crossings in ``watch`` left.

    The move taken is the first curl, or else the bigon with the least
    first crossing and then the least over-edge.  Moves are looked for
    only at the crossings in ``dirty`` and, after each move, at the
    crossings whose labels its splice renames; a move found earlier is
    kept until one of its crossings is removed or renamed, since a move
    depends only on its crossings' labels and signs.  So every move of
    the given list must meet ``dirty``.  ``where`` is the
    ``_edge_index`` of ``crossings``, and is kept up to date in place.
    """
    curls, bigons = set(), set()
    closed, left = 0, len(watch)
    while left:
        _moves_at(crossings, signs, where, dirty, curls, bigons)
        if curls:
            move = (min(curls),)
        elif bigons:
            i, _, k = min(bigons)
            move = (i, k)
        else:
            break
        strand = _strands(_strand_pairs([crossings[i] for i in move]))
        for i in move:
            crossings[i] = None
            left -= i in watch
        ends = {}   # strand name -> the crossings left at its ends
        dirty = set()   # the crossings whose labels are renamed
        for e, s in strand.items():
            for k in where.pop(e):
                if crossings[k] is not None:
                    ends.setdefault(s, []).append(k)
                    if e != s:
                        dirty.add(k)
        closed += len(set(strand.values())) - len(ends)
        where.update(ends)
        get = strand.get
        for k in dirty:
            a, b, c, d = crossings[k]
            crossings[k] = (get(a, a), get(b, b), get(c, c), get(d, d))
        if curls:
            curls.difference_update(move, dirty)
        if bigons:
            gone = dirty.union(move)
            bigons = {m for m in bigons
                      if m[0] not in gone and m[2] not in gone}
    return closed, left


def _traced(crossings, signs, nfree, name):
    """The diagram on ``crossings`` renumbered 1..N in order, with ``nfree``
    free loops, its components traced again: a smoothing can merge or split
    them.  Where no splice joined two components, one keeping a crossing
    keeps the strand of its smallest edge, so the components keep their order.
    """
    new = {e: k for k, e in enumerate(sorted(set().union(*crossings)), 1)}
    crossings = [tuple(map(new.__getitem__, cr)) for cr in crossings]
    comp_of_edge = _classes(new.values(), _strand_pairs(crossings))
    ncomps = len(set(comp_of_edge.values())) + nfree
    return LinkDiagram(crossings, signs, comp_of_edge, ncomps, nfree, name)


# ---------------------------------------------------------------------------

class LinkDiagram:
    """An oriented, ordered link diagram.

    Attributes:
      crossings: tuple of 4-tuples (a, b, c, d) of edge labels
      signs: tuple of +1/-1 per crossing
      comp_of_edge: mapping edge label -> component index (0-based)
      ncomps: total component count, including free loops
      nfree: number of crossing-free components (the last nfree indices)
      name: optional fixture name
      notes: the fixture's ``note*`` lines, key -> value; a diagram made
        by a move has none
    """

    def __init__(self, crossings, signs, comp_of_edge, ncomps, nfree=0,
                 name="", notes=None):
        self.crossings = tuple(map(tuple, crossings))
        self.signs = tuple(signs)
        self.comp_of_edge = dict(comp_of_edge)
        self.ncomps = ncomps
        self.nfree = nfree
        self.name = name
        self.notes = dict(notes or {})
        if len(self.signs) != len(self.crossings):
            raise PDError("need one sign per crossing")

    # -- queries ----------------------------------------------------------

    @property
    def ncrossings(self):
        return len(self.crossings)

    def over_in_edge(self, i):
        a, b, c, d = self.crossings[i]
        return d if self.signs[i] > 0 else b

    def over_out_edge(self, i):
        a, b, c, d = self.crossings[i]
        return b if self.signs[i] > 0 else d

    def crossing_components(self, i):
        """(under component, over component) at crossing i."""
        a, b, c, d = self.crossings[i]
        return self.comp_of_edge[a], self.comp_of_edge[b]

    def state_key(self):
        """Canonical hashable key identifying the diagram state."""
        order = sorted(range(self.ncrossings),
                       key=lambda i: self.crossings[i])
        return (tuple((self.crossings[i], self.signs[i]) for i in order),
                tuple(sorted(self.comp_of_edge.items())),
                self.ncomps, self.nfree)

    def __repr__(self):
        return f"LinkDiagram({self.name or serialize_pd(self)!r})"

    # -- linking numbers --------------------------------------------------

    def linking_matrix(self):
        """lk(i,j) for every pair of components, 0 on the diagonal: half
        the signed count of crossings between i and j, in one pass."""
        total = [[0] * self.ncomps for _ in range(self.ncomps)]
        for idx, sign in enumerate(self.signs):
            cu, co = self.crossing_components(idx)
            if cu != co:
                total[cu][co] += sign
                total[co][cu] += sign
        if any(x % 2 for row in total for x in row):
            raise PDError("odd inter-component crossing sum; diagram invalid")
        return [[x // 2 for x in row] for row in total]

    def linking_number(self, i, j):
        """lk(L_i, L_j): half the signed count of crossings between i and j."""
        if i == j:
            raise PDError("linking number needs two distinct components")
        for k in (i, j):
            if not 0 <= k < self.ncomps:
                raise PDError(f"component {k} out of range")
        return self.linking_matrix()[i][j]

    def total_linking_number(self):
        return sum(sum(row) for row in self.linking_matrix()) // 2

    # -- moves ------------------------------------------------------------

    def crossing_change(self, i):
        """Swap over- and under-strand at crossing i."""
        if not 0 <= i < self.ncrossings:
            raise PDError(f"crossing {i} out of range")
        crossings, signs = list(self.crossings), list(self.signs)
        crossings[i], signs[i] = _switched(crossings[i], signs[i])
        return LinkDiagram(crossings, signs, self.comp_of_edge,
                           self.ncomps, self.nfree, self.name)

    def smooth_crossing(self, i):
        """Oriented smoothing at crossing i (skein 0-resolution).

        The strands are spliced by ``_splice``, and ``_traced`` renumbers
        them and traces the components again.
        """
        a, b, c, d = self.crossings[i]
        crossings, closed = _splice(self.crossings, (i,),
                                    [(a, self.over_out_edge(i)),
                                     (self.over_in_edge(i), c)])
        return _traced(crossings, self.signs[:i] + self.signs[i + 1:],
                       self.nfree + closed, self.name)

    # -- split detection and bigon reduction ------------------------------

    def split_partition(self):
        """Partition of components into connected pieces of the diagram.

        Two components are in one piece when some chain of shared
        crossings joins them.  Free loops are singleton pieces.  Returns
        a sorted list of sorted component tuples.
        """
        piece = _classes(range(self.ncomps),
                         map(self.crossing_components, range(self.ncrossings)))
        pieces = {}
        for c in range(self.ncomps):
            pieces.setdefault(piece[c], []).append(c)
        return [tuple(p) for p in pieces.values()]

    def reduce_bigons(self):
        """Greedy removal of curls and cancelling bigons.

        ``_reduce`` looks for moves at every crossing of a flat list, and
        one diagram is built at the end.  Only the Conway skein, the
        route the Fox polynomials are checked against, and the tests call
        it; the search calls ``_reduce`` on its own lists.
        """
        crossings = list(self.crossings)
        every = range(self.ncrossings)
        closed, left = _reduce(crossings, self.signs, every,
                               _edge_index(crossings), every)
        if left == self.ncrossings:
            return self
        kept = [k for k in every if crossings[k] is not None]
        return _traced([crossings[k] for k in kept],
                       [self.signs[k] for k in kept],
                       self.nfree + closed, self.name)


# ---------------------------------------------------------------------------
# PD text parsing and orientation inference

# the most characters of a bad input that an error message quotes
_EXCERPT = 40


def _excerpt(text):
    """text, or its first _EXCERPT characters and "..." when longer."""
    return text if len(text) <= _EXCERPT else text[:_EXCERPT] + "..."


def _integer(text):
    """int(text) for ASCII digits after an optional '-', spaces around;
    ValueError otherwise, where int() would read '٣', '+' or '_'.  A run
    of more than _MAX_DIGITS digits is refused before int() reads it,
    by a PDError that names the run's length."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not an integer")
    if len(digits) > _MAX_DIGITS:
        raise PDError(f"a number of {len(digits)} digits exceeds the bound "
                      f"of {_MAX_DIGITS} digits")
    return int(text)


def _checked_crossing(rest):
    """The labels of the crossing X[...] that ``rest`` starts with, each
    read by ``_integer``, and the text after it and its separators.
    Raises the PDError that names what is wrong with it."""
    if not rest.startswith("X["):
        raise PDError(f"expected X[a,b,c,d] near {rest[:20]!r}")
    body, closed, rest = rest[2:].partition("]")
    if not closed:
        raise PDError("unterminated crossing tuple")
    try:
        nums = tuple(map(_integer, body.split(",")))
    except PDError as exc:
        raise PDError(f"{exc} in X[{_excerpt(body)}]") from None
    except ValueError:
        raise PDError(
            f"non-integer edge label in X[{_excerpt(body)}]") from None
    if len(nums) != 4 or any(n < 1 for n in nums):
        raise PDError(f"crossing X[{_excerpt(body)}] needs 4 positive "
                      "edge labels")
    return nums, rest.lstrip(", \t")


# a crossing of four positive labels in ASCII digits, no leading zero and
# at most _MAX_DIGITS digits, with spaces around them and the separators
# after it; ``_checked_crossing`` reads every other crossing
_CROSSING = re.compile(
    r"X\[" + ",".join([rf" *([1-9][0-9]{{0,{_MAX_DIGITS - 1}}}) *"] * 4)
    + r"\][, \t]*")


def _parse_crossing_list(text):
    """The crossings of a comma-separated list of X[a,b,c,d], as tuples.

    Each crossing is read by one match of ``_CROSSING`` and ``int()``;
    one the pattern does not take goes through ``_checked_crossing``,
    which accepts it with the same labels or raises its PDError.
    """
    crossings = []
    rest = text.strip().lstrip(", \t")
    at, end = 0, len(rest)
    match = _CROSSING.match
    while at < end:
        found = match(rest, at)
        if found:
            a, b, c, d = found.groups()
            crossings.append((int(a), int(b), int(c), int(d)))
            at = found.end()
        else:
            nums, tail = _checked_crossing(rest[at:])
            crossings.append(nums)
            at = end - len(tail)
    return crossings


def _edge_map(crossings):
    """The edge map of a crossing list: ``other[x]``, for each end x of
    an edge, is the edge's other end, an end being 4 * crossing + slot.
    Also returns {edge: its ends}; every edge must have two."""
    ends = {}
    for x, e in enumerate(e for cr in crossings for e in cr):
        ends.setdefault(e, []).append(x)
    other = [0] * (4 * len(crossings))
    for e, xs in ends.items():
        if len(xs) != 2:
            raise PDError(f"edge {e} appears {len(xs)} times, expected 2")
        x, y = xs
        other[x] = y
        other[y] = x
    return other, ends


def _orient(crossings):
    """Infer edge directions; return (signs, comp_of_edge, ncomps, other),
    ``other`` the ``_edge_map`` the walks follow, on which ``parse_pd``
    then counts the faces.

    Each component is a cycle of crossing slots: an edge joins two slots
    and a strand runs straight through a crossing from slot s to slot
    s + 2.  A component is walked once round that cycle, from its first
    under-passage entered at slot 0 as the PD convention demands; an
    under-passage met from slot 2 makes the code inconsistent.  A
    component that never passes under is walked from its lowest-index
    crossing in the direction of edge-label succession (labels increase
    along the strand, cyclically), the convention of the standard tables.
    """
    other, ends = _edge_map(crossings)
    comp_of_edge = _classes(ends, _strand_pairs(crossings))
    ncomps = len(set(comp_of_edge.values()))

    entered = bytearray(len(other))  # the ends where the walks enter
    signs = [0] * len(crossings)     # +1 where the over-strand enters at d

    def walk(x):
        while not entered[x]:
            if x & 3 == 2:
                raise PDError("inconsistent strand traversal at edge "
                              f"{crossings[x >> 2][2]}")
            entered[x] = 1
            if x & 1:
                signs[x >> 2] = 1 if x & 3 == 3 else -1
            x = other[x ^ 2]

    for i in range(len(crossings)):
        walk(4 * i)
    for i, (_, b, _, d) in enumerate(crossings):
        if not signs[i]:
            edges = sorted(e for e in ends
                           if comp_of_edge[e] == comp_of_edge[b])
            walk(4 * i + (3 if edges[(edges.index(d) + 1) % len(edges)] == b
                          else 1))
    return signs, comp_of_edge, ncomps, other


def parse_pd(text, nfree=0, name="", notes=None):
    """Parse a comma-separated list of X[a,b,c,d] crossings.

    ``nfree`` extra crossing-free components are appended after the
    PD components.  A diagram with more than MAX_FACTOR_VARS components,
    free loops included, is rejected before any per-component work: the
    Laurent ring has one variable per component.  A PD code that is not
    planar is rejected: its faces are counted on the edge map that
    ``_orient`` walked, where ``planar_face_count`` builds its own.  Each
    crossing is read by one pattern (``_parse_crossing_list``).  ``name``
    and ``notes`` are carried into the diagram.
    """
    if nfree < 0:
        raise PDError(f"negative free loop count {nfree}")
    crossings = _parse_crossing_list(text)
    signs, comp_of_edge, ncomps, other = _orient(crossings)
    if ncomps + nfree == 0:
        raise PDError("empty diagram: need crossings or free loops")
    if ncomps + nfree > MAX_FACTOR_VARS:
        raise PDError(f"{ncomps + nfree} components exceed the budget of "
                      f"{MAX_FACTOR_VARS}: the Laurent ring has one variable "
                      "per component")
    d = LinkDiagram(crossings, signs, comp_of_edge,
                    ncomps + nfree, nfree, name, notes)
    if not _embeds(d, _face_count(other)):
        raise PDError("diagram is not planar: its PD code does not embed "
                      "in the sphere")
    return d


def serialize_pd(d):
    """PD text for the crossings of d (free loops are not expressible)."""
    return ", ".join(f"X[{a},{b},{c},{e}]" for a, b, c, e in d.crossings)


def _fixture_int(key, val):
    try:
        return _integer(val)
    except PDError as exc:
        raise PDError(f"{key}: {exc}") from None
    except ValueError:
        raise PDError(
            f"{key}: needs an integer, got {_excerpt(val)!r}") from None


def parse_fixture(text, name_hint=""):
    """Parse the link fixture format.

    Lines: ``name: <string>``, ``components: <m>``, optional
    ``freeloops: <k>``, ``pd: X[a,b,c,d], ...`` (possibly empty for
    unlinks).  Lines starting with '#' are comments; ``note:`` lines are
    carried as annotations.  Each key may appear once.
    """
    name = name_hint
    m = None
    nfree = 0
    pd_text = None
    notes = {}
    seen = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise PDError(f"bad fixture line: {line!r}")
        key, _, val = line.partition(":")
        key, val = key.strip(), val.strip()
        if key in seen:
            raise PDError(f"repeated fixture key {key!r}")
        seen.add(key)
        if key == "name":
            name = val
        elif key == "components":
            m = _fixture_int(key, val)
        elif key == "freeloops":
            nfree = _fixture_int(key, val)
        elif key == "pd":
            pd_text = val
        elif key.startswith("note"):
            notes[key] = val
        else:
            raise PDError(f"unknown fixture key {key!r}")
    if pd_text is None:
        raise PDError("fixture needs a pd: line (may be empty)")
    d = parse_pd(pd_text, nfree=nfree, name=name, notes=notes)
    if m is not None and d.ncomps != m:
        raise PDError(
            f"fixture declares {m} components but diagram has {d.ncomps}")
    return d


# ---------------------------------------------------------------------------
# planarity validation

def _face_count(other):
    """The number of faces of the surface carrying a diagram, traced on
    its ``_edge_map``: each face leaves a crossing through the next end
    in rotation order."""
    seen = bytearray(len(other))
    faces = 0
    for start in range(len(other)):
        if seen[start]:
            continue
        faces += 1
        x = start
        while not seen[x]:
            seen[x] = 1
            y = other[x]
            x = y - 3 if y & 3 == 3 else y + 1
    return faces


def planar_face_count(d):
    """Number of faces of the surface carrying the diagram.

    Each crossing lists its four incident edge-ends counterclockwise, so
    the PD code is a rotation system; faces are traced by always leaving
    a crossing through the next end in rotation order.
    """
    return _face_count(_edge_map(d.crossings)[0])


def _embeds(d, faces):
    """Does d, whose surface has ``faces`` faces, embed in the sphere?"""
    pieces = len(d.split_partition()) - d.nfree
    return faces == d.ncrossings + 2 * pieces


def is_planar(d):
    """Check that the crossing graph of each connected piece is planar.

    A connected piece with n crossings traces at most n + 2 faces, with
    equality exactly when it embeds in the sphere, and no face runs
    between pieces; crossing-free loops are trivially planar.
    """
    return _embeds(d, planar_face_count(d))


# ---------------------------------------------------------------------------
# Wirtinger presentation and Fox Jacobian

def wirtinger_arcs(d, c=None):
    """Wirtinger generators: maximal over-strand arcs of the diagram.

    Returns (arc_of_edge, arcs) where arcs is the sorted list of arc
    representatives and arc_of_edge maps each edge to its arc index.
    Edges merge across a crossing they pass over.  With a component
    ``c``, the arcs of c once the other components are deleted: c's
    edges, merged also across a crossing where c runs under another.
    """
    comp = d.comp_of_edge
    if c is None:
        edges, pairs = comp, [(b, dd) for _, b, _, dd in d.crossings]
    else:
        edges = [e for e, k in comp.items() if k == c]
        pairs = [(b, dd) if comp[b] == c else (a, cc)
                 for a, b, cc, dd in d.crossings if c in (comp[a], comp[b])]
    arc_of_edge = _classes(edges, pairs)
    arcs = []
    for e in sorted(arc_of_edge):
        if arc_of_edge[e] == len(arcs):
            arcs.append(e)
    return arc_of_edge, arcs


def fox_jacobian(d, c=None):
    """The Fox Jacobian of the Wirtinger presentation, over m variables.

    Rows are crossings, columns are arcs.  Row r for a crossing with
    incoming under-arc g_a, over-arc g_o, outgoing under-arc g_c and
    sign eps comes from the relation x_c = x_o^eps x_a x_o^-eps; its Fox
    derivatives map under the abelianization (arc of component i -> t_i)
    to v, 1-u, -1 (eps=+1) or 1/v, (u-1)/v, -1 (eps=-1), where u and v
    are the under- and over-component variables.  Those entries depend
    only on the crossing's class (u, v, eps), so each class builds them
    once, straight from LaurentPoly's packed keys with the bounds its
    arithmetic would give (1, or 2 for (u-1)/v), and its rows share
    them, with one -1 for every row.  Coincident columns accumulate.

    With a component ``c``, c's own Jacobian over one variable: deleting
    the other components kills their arcs (Dehn filling along their
    meridians), so the columns are ``wirtinger_arcs(d, c)`` and the rows
    are c's crossings with itself, read off ``comp_of_edge``.  With no
    crossing to read, the presentation is empty: it has no rows.

    Returns (matrix, arc_component) with matrix a list of rows of
    LaurentPoly entries and arc_component the component index of each
    generator column.
    """
    m = d.ncomps if c is None else 1
    comp = d.comp_of_edge
    arc_of_edge, arcs = wirtinger_arcs(d, c)
    arc_component = [comp[a] for a in arcs]
    var = comp if c is None else dict.fromkeys(arc_of_edge, 0)
    zero, minus_one = LaurentPoly.zero(m), -LaurentPoly.one(m)
    entries = {}
    rows = []
    for (a, b, cc, _), sign in zip(d.crossings, d.signs):
        if c is not None and not comp[a] == comp[b] == c:
            continue
        g_a, g_o, g_c = arc_of_edge[a], arc_of_edge[b], arc_of_edge[cc]
        cls = (var[a], var[b], sign)
        if cls not in entries:
            # with the bounds LaurentPoly gives v, 1 - u, 1/v and (u - 1)/v
            u, v = _var_key(m, var[a]), _var_key(m, var[b])
            if sign > 0:
                entries[cls] = (_new(m, {v: 1}, 1), _new(m, {0: 1, u: -1}, 1))
            else:
                entries[cls] = (_new(m, {-v: 1}, 1),
                                _new(m, {u - v: 1, -v: -1}, 2))
        under, over = entries[cls]
        row = [zero] * len(arcs)
        row[g_a] = under
        row[g_o] = under + over if g_o == g_a else over
        row[g_c] = row[g_c] + minus_one if g_c in (g_a, g_o) else minus_one
        rows.append(row)
    return rows, arc_component
