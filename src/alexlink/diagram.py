"""Oriented link diagrams in planar-diagram (PD) crossing notation.

A crossing is written X[a,b,c,d]: the four edge labels around the
crossing in counterclockwise order starting from the incoming
under-strand edge a.  So a is the under-strand entering the crossing,
c is the under-strand leaving it, and {b, d} is the over-strand, whose
direction is recovered from global consistency (every edge leaves one
crossing and enters one).  The crossing is positive when the over-strand
runs d -> b and negative when it runs b -> d.

Edge labels are positive integers, each appearing exactly twice.
Components are ordered by their smallest edge label; crossing-free
components ("free loops", which plain PD codes cannot express) are
carried as a count and ordered after all others.

The module also derives the Wirtinger presentation and its Fox Jacobian,
and implements the diagram moves the obstruction machinery quantifies
over: crossing changes, deletion of sublinks, oriented smoothing, and a
small bigon-reduction pass used by the split search.
"""

from __future__ import annotations

from .laurent import LaurentPoly


class PDError(ValueError):
    """Malformed or inconsistent PD input."""


# ---------------------------------------------------------------------------
# small union-find used for strand tracing and splicing

class _UF:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller label as representative for determinism
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


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
    """

    def __init__(self, crossings, signs, comp_of_edge, ncomps, nfree=0, name=""):
        self.crossings = tuple(tuple(c) for c in crossings)
        self.signs = tuple(signs)
        self.comp_of_edge = dict(comp_of_edge)
        self.ncomps = ncomps
        self.nfree = nfree
        self.name = name
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

    def linking_number(self, i, j):
        """lk(L_i, L_j): half the signed count of crossings between i and j."""
        if i == j:
            raise PDError("linking number needs two distinct components")
        for k in (i, j):
            if not 0 <= k < self.ncomps:
                raise PDError(f"component {k} out of range")
        total = 0
        for idx in range(self.ncrossings):
            cu, co = self.crossing_components(idx)
            if {cu, co} == {i, j}:
                total += self.signs[idx]
        if total % 2 != 0:
            raise PDError("odd inter-component crossing sum; diagram invalid")
        return total // 2

    def total_linking_number(self):
        return sum(self.linking_number(i, j)
                   for i in range(self.ncomps) for j in range(i))

    # -- moves ------------------------------------------------------------

    def crossing_change(self, i):
        """Swap over- and under-strand at crossing i."""
        if not 0 <= i < self.ncrossings:
            raise PDError(f"crossing {i} out of range")
        a, b, c, d = self.crossings[i]
        if self.signs[i] > 0:
            # over ran d->b; the old under-strand a->c becomes the over-strand
            new = (d, a, b, c)
        else:
            new = (b, c, d, a)
        crossings = list(self.crossings)
        signs = list(self.signs)
        crossings[i] = new
        signs[i] = -signs[i]
        return LinkDiagram(crossings, signs, self.comp_of_edge,
                           self.ncomps, self.nfree, self.name)

    def _rebuild(self, keep_idx, splices, restrict_to=None,
                 recompute_comps=False):
        """Drop the crossings not in keep_idx, splicing edges per ``splices``.

        ``splices`` is a list of edge pairs to identify (a strand passing
        straight through a removed crossing).  ``restrict_to`` limits the
        surviving components (by old index); by default all survive.
        When ``recompute_comps`` is set the component structure is
        retraced from scratch, which smoothings need because they can
        merge or split components.
        """
        uf = _UF()
        for e in self.comp_of_edge:
            uf.find(e)
        for x, y in splices:
            uf.union(x, y)
        kept = []
        for i in keep_idx:
            a, b, c, d = self.crossings[i]
            kept.append(((uf.find(a), uf.find(b), uf.find(c), uf.find(d)),
                         self.signs[i]))
        used = sorted({e for cr, _ in kept for e in cr})
        relabel = {e: k + 1 for k, e in enumerate(used)}
        crossings = [tuple(relabel[e] for e in cr) for cr, _ in kept]
        signs = [s for _, s in kept]

        if recompute_comps:
            comp_uf = _UF()
            for a, b, c, d in crossings:
                comp_uf.union(a, c)
                comp_uf.union(b, d)
            roots = sorted({comp_uf.find(e) for cr in crossings for e in cr})
            comp_of_edge = {e: roots.index(comp_uf.find(e))
                            for cr in crossings for e in cr}
            # strand classes with no surviving crossing close up into
            # crossing-free loops
            old_classes = {uf.find(e) for e in self.comp_of_edge}
            survivors = {uf.find(e) for e in used}
            nfree = self.nfree + len(old_classes - survivors)
            return LinkDiagram(crossings, signs, comp_of_edge,
                               len(roots) + nfree, nfree, self.name)

        # components keep their identity here (splices never join distinct
        # components); ones losing all crossings become free loops
        old_comps = (sorted(restrict_to) if restrict_to is not None
                     else list(range(self.ncomps)))
        old_free = {c for c in old_comps if c >= self.ncomps - self.nfree}
        survivors = {self.comp_of_edge[e] for e in used}
        comp_with = [c for c in old_comps if c in survivors]
        comp_free = [c for c in old_comps if c not in survivors or c in old_free]
        order = {c: k for k, c in enumerate(comp_with)}
        comp_of_edge = {relabel[e]: order[self.comp_of_edge[e]] for e in used}
        return LinkDiagram(crossings, signs, comp_of_edge,
                           len(old_comps), len(comp_free), self.name)

    def delete_components(self, keep):
        """Sub-diagram of the components in ``keep`` (0-based indices).

        Crossings involving a deleted strand are removed; where a kept
        strand passed through such a crossing it is spliced straight
        through.  Output components are reindexed 0..k-1 in the order
        induced by the previous ordering, crossing-bearing components
        first, crossing-free ones after.
        """
        keep = set(keep)
        if not keep:
            raise PDError("must keep at least one component")
        for c in keep:
            if not 0 <= c < self.ncomps:
                raise PDError(f"component {c} out of range")
        keep_idx = []
        splices = []
        for i in range(self.ncrossings):
            a, b, c, d = self.crossings[i]
            cu, co = self.crossing_components(i)
            if cu in keep and co in keep:
                keep_idx.append(i)
            elif cu in keep:
                splices.append((a, c))
            elif co in keep:
                splices.append((b, d))
        return self._rebuild(keep_idx, splices, restrict_to=keep)

    def smooth_crossing(self, i):
        """Oriented smoothing at crossing i (skein 0-resolution)."""
        a, b, c, d = self.crossings[i]
        over_in, over_out = self.over_in_edge(i), self.over_out_edge(i)
        keep_idx = [k for k in range(self.ncrossings) if k != i]
        return self._rebuild(keep_idx, [(a, over_out), (over_in, c)],
                             recompute_comps=True)

    # -- split detection and bigon reduction ------------------------------

    def split_partition(self):
        """Partition of components into connected pieces of the diagram.

        Two components are in one piece when some chain of shared
        crossings joins them.  Free loops are singleton pieces.  Returns
        a sorted list of sorted component tuples.
        """
        uf = _UF()
        for c in range(self.ncomps):
            uf.find(c)
        for i in range(self.ncrossings):
            cu, co = self.crossing_components(i)
            uf.union(cu, co)
        pieces = {}
        for c in range(self.ncomps):
            pieces.setdefault(uf.find(c), []).append(c)
        return sorted(tuple(sorted(p)) for p in pieces.values())

    def _find_bigon_moves(self):
        """One removable curl (RM1) or cancelling bigon pair (RM2), if any."""
        for i, (a, b, c, d) in enumerate(self.crossings):
            if a == b or b == c or c == d or d == a:
                return ("rm1", i)
        by_edge = {}
        for i, cr in enumerate(self.crossings):
            for e in set(cr):
                by_edge.setdefault(e, []).append(i)
        for e, locs in by_edge.items():
            if len(locs) != 2 or locs[0] == locs[1]:
                continue
            i, j = locs
            if self.signs[i] != -self.signs[j]:
                continue
            over_i = {self.crossings[i][1], self.crossings[i][3]}
            over_j = {self.crossings[j][1], self.crossings[j][3]}
            under_i = {self.crossings[i][0], self.crossings[i][2]}
            under_j = {self.crossings[j][0], self.crossings[j][2]}
            if e in over_i and e in over_j:
                shared_under = under_i & under_j
                for f in shared_under:
                    if f != e:
                        return ("rm2", i, j)
        return None

    def reduce_bigons(self):
        """Greedy removal of curls and cancelling bigons.

        Used only to make diagrammatic splitness visible after crossing
        changes; invariant computations never rely on it.
        """
        d = self
        while True:
            move = d._find_bigon_moves()
            if move is None:
                return d
            if move[0] == "rm1":
                i = move[1]
                a, b, c2, d2 = d.crossings[i]
                keep = [k for k in range(d.ncrossings) if k != i]
                d = d._rebuild(keep, [(a, c2), (b, d2)])
            else:
                _, i, j = move
                keep = [k for k in range(d.ncrossings) if k not in (i, j)]
                splices = []
                for k in (i, j):
                    a, b, c2, d2 = d.crossings[k]
                    splices.extend([(a, c2), (b, d2)])
                d = d._rebuild(keep, splices)


# ---------------------------------------------------------------------------
# PD text parsing and orientation inference

def _parse_crossing_list(text):
    text = text.strip()
    if not text:
        return []
    crossings = []
    rest = text
    while rest:
        rest = rest.lstrip(", \t")
        if not rest:
            break
        if not rest.startswith("X["):
            raise PDError(f"expected X[a,b,c,d] near {rest[:20]!r}")
        end = rest.find("]")
        if end < 0:
            raise PDError("unterminated crossing tuple")
        body = rest[2:end]
        try:
            nums = tuple(int(x) for x in body.split(","))
        except ValueError:
            raise PDError(f"non-integer edge label in X[{body}]")
        if len(nums) != 4 or any(n < 1 for n in nums):
            raise PDError(f"crossing X[{body}] needs 4 positive edge labels")
        crossings.append(nums)
        rest = rest[end + 1:]
    return crossings


def _orient(crossings):
    """Infer edge directions; return (signs, comp_of_edge, ncomps).

    Each edge leaves one crossing slot and enters another.  Under-strand
    slots are forced by the PD convention; over-strand directions follow
    by propagation.  Components never passing under are oriented by edge
    label succession (labels increase along the strand, cyclically), the
    convention of the standard tables.
    """
    slots = {}  # edge -> list of (crossing, slot)
    for i, cr in enumerate(crossings):
        for s, e in enumerate(cr):
            slots.setdefault(e, []).append((i, s))
    for e, locs in slots.items():
        if len(locs) != 2:
            raise PDError(f"edge {e} appears {len(locs)} times, expected 2")

    # components via strand passages
    uf = _UF()
    for a, b, c, d in crossings:
        uf.union(a, c)
        uf.union(b, d)
    roots = sorted({uf.find(e) for e in slots})
    comp_of_edge = {e: roots.index(uf.find(e)) for e in slots}
    ncomps = len(roots)

    # in/out status per (crossing, slot); slot 0 = in, slot 2 = out
    status = {}
    for i in range(len(crossings)):
        status[(i, 0)] = "in"
        status[(i, 2)] = "out"

    def propagate():
        changed = True
        while changed:
            changed = False
            for e, locs in slots.items():
                (i1, s1), (i2, s2) = locs
                st1, st2 = status.get((i1, s1)), status.get((i2, s2))
                if st1 and st2:
                    if (i1, s1) != (i2, s2) and st1 == st2:
                        raise PDError(
                            f"inconsistent strand traversal at edge {e}")
                elif st1 and not st2:
                    status[(i2, s2)] = "out" if st1 == "in" else "in"
                    changed = True
                elif st2 and not st1:
                    status[(i1, s1)] = "out" if st2 == "in" else "in"
                    changed = True
            for i in range(len(crossings)):
                sb, sd = status.get((i, 1)), status.get((i, 3))
                if sb and sd and sb == sd:
                    raise PDError(
                        f"inconsistent over-strand at crossing {i}")
                if sb and not sd:
                    status[(i, 3)] = "out" if sb == "in" else "in"
                    changed = True
                if sd and not sb:
                    status[(i, 1)] = "out" if sd == "in" else "in"
                    changed = True

    propagate()
    # orient any component that never passes under, by label succession
    while True:
        undecided = [(i, s) for i in range(len(crossings)) for s in (1, 3)
                     if (i, s) not in status]
        if not undecided:
            break
        i, s = min(undecided)
        e = crossings[i][s]
        comp_edges = sorted(x for x in slots
                            if comp_of_edge[x] == comp_of_edge[e])
        nxt = {x: comp_edges[(k + 1) % len(comp_edges)]
               for k, x in enumerate(comp_edges)}
        b, d = crossings[i][1], crossings[i][3]
        if nxt[d] == b:
            status[(i, 3)], status[(i, 1)] = "in", "out"
        else:
            status[(i, 1)], status[(i, 3)] = "in", "out"
        propagate()

    signs = []
    for i in range(len(crossings)):
        signs.append(1 if status[(i, 3)] == "in" else -1)
    return signs, comp_of_edge, ncomps


def parse_pd(text, nfree=0, name=""):
    """Parse a comma-separated list of X[a,b,c,d] crossings.

    ``nfree`` extra crossing-free components are appended after the
    PD components.  A PD code that is not planar is rejected.
    """
    crossings = _parse_crossing_list(text)
    if not crossings:
        if nfree == 0:
            raise PDError("empty diagram: need crossings or free loops")
        return LinkDiagram([], [], {}, nfree, nfree, name)
    signs, comp_of_edge, ncomps = _orient(crossings)
    d = LinkDiagram(crossings, signs, comp_of_edge,
                    ncomps + nfree, nfree, name)
    if not is_planar(d):
        raise PDError("diagram is not planar: its PD code does not embed "
                      "in the sphere")
    return d


def serialize_pd(d):
    """PD text for the crossings of d (free loops are not expressible)."""
    return ", ".join(f"X[{a},{b},{c},{e}]" for a, b, c, e in d.crossings)


def parse_fixture(text, name_hint=""):
    """Parse the link fixture format.

    Lines: ``name: <string>``, ``components: <m>``, optional
    ``freeloops: <k>``, ``pd: X[a,b,c,d], ...`` (possibly empty for
    unlinks).  Lines starting with '#' are comments; ``note:`` lines are
    carried as annotations.
    """
    name = name_hint
    m = None
    nfree = 0
    pd_text = None
    notes = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise PDError(f"bad fixture line: {line!r}")
        key, _, val = line.partition(":")
        key, val = key.strip(), val.strip()
        if key == "name":
            name = val
        elif key == "components":
            m = int(val)
        elif key == "freeloops":
            nfree = int(val)
        elif key == "pd":
            pd_text = val
        elif key.startswith("note"):
            notes[key] = val
        else:
            raise PDError(f"unknown fixture key {key!r}")
    if pd_text is None:
        raise PDError("fixture needs a pd: line (may be empty)")
    d = parse_pd(pd_text, nfree=nfree, name=name)
    if m is not None and d.ncomps != m:
        raise PDError(
            f"fixture declares {m} components but diagram has {d.ncomps}")
    d.notes = notes
    return d


def serialize_fixture(d):
    lines = []
    if d.name:
        lines.append(f"name: {d.name}")
    lines.append(f"components: {d.ncomps}")
    if d.nfree:
        lines.append(f"freeloops: {d.nfree}")
    lines.append(f"pd: {serialize_pd(d)}")
    for k, v in sorted(getattr(d, "notes", {}).items()):
        lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# planarity validation

def planar_face_count(d):
    """Number of faces of the surface carrying the diagram.

    Each crossing lists its four incident edge-ends counterclockwise, so
    the PD code is a rotation system; faces are traced by always leaving
    a crossing through the next end in rotation order.
    """
    darts = {}
    for i, cr in enumerate(d.crossings):
        for p, e in enumerate(cr):
            darts.setdefault(e, []).append((i, p))
    other = {}
    for e, locs in darts.items():
        (x, y) = locs
        other[x] = y
        other[y] = x
    seen = set()
    faces = 0
    for start in other:
        if start in seen:
            continue
        faces += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            i, p = other[cur]
            cur = (i, (p + 1) % 4)
    return faces


def is_planar(d):
    """Check that the crossing graph of each connected piece is planar.

    A connected piece with n crossings embeds in the sphere exactly when
    its traced face count is n + 2 (Euler characteristic 2).  Pieces are
    checked independently; crossing-free loops are trivially planar.
    """
    for piece in d.split_partition():
        idx = [i for i in range(d.ncrossings)
               if d.crossing_components(i)[0] in piece]
        if not idx:
            continue
        sub_edges = {e for i in idx for e in d.crossings[i]}
        sub = LinkDiagram([d.crossings[i] for i in idx],
                          [d.signs[i] for i in idx],
                          {e: d.comp_of_edge[e] for e in sub_edges},
                          d.ncomps, d.nfree, d.name)
        if planar_face_count(sub) != len(idx) + 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Wirtinger presentation and Fox Jacobian

def wirtinger_arcs(d):
    """Wirtinger generators: maximal over-strand arcs of the diagram.

    Returns (arc_of_edge, arcs) where arcs is the sorted list of arc
    representatives and arc_of_edge maps each edge to its arc index.
    Edges merge across a crossing they pass over.
    """
    uf = _UF()
    for e in d.comp_of_edge:
        uf.find(e)
    for i in range(d.ncrossings):
        _, b, _, dd = d.crossings[i]
        uf.union(b, dd)
    arcs = sorted({uf.find(e) for e in d.comp_of_edge})
    arc_of_edge = {e: arcs.index(uf.find(e)) for e in d.comp_of_edge}
    return arc_of_edge, arcs


def fox_jacobian(d):
    """The Fox Jacobian of the Wirtinger presentation, over m variables.

    Rows are crossings, columns are arcs.  Row r for a crossing with
    incoming under-arc g_a, over-arc g_o, outgoing under-arc g_c and
    sign eps comes from the relation x_c = x_o^eps x_a x_o^-eps; its Fox
    derivatives map under the abelianization (arc of component i -> t_i)
    to v, 1-u, -1 (eps=+1) or 1/v, (u-1)/v, -1 (eps=-1), where u and v
    are the under- and over-component variables.  Coincident columns
    accumulate.

    Returns (matrix, arc_component) with matrix a list of rows of
    LaurentPoly entries and arc_component the component index of each
    generator column.
    """
    if d.ncrossings == 0:
        raise PDError("crossing-free diagram has no Wirtinger relations")
    m = d.ncomps
    arc_of_edge, arcs = wirtinger_arcs(d)
    arc_component = [d.comp_of_edge[a] for a in arcs]
    rows = []
    zero = LaurentPoly.zero(m)
    for i in range(d.ncrossings):
        a, b, c, dd = d.crossings[i]
        g_a, g_c = arc_of_edge[a], arc_of_edge[c]
        g_o = arc_of_edge[b]
        u = LaurentPoly.var(m, d.comp_of_edge[a])
        v = LaurentPoly.var(m, d.comp_of_edge[b])
        row = [zero] * len(arcs)
        if d.signs[i] > 0:
            row[g_a] = row[g_a] + v
            row[g_o] = row[g_o] + (LaurentPoly.one(m) - u)
        else:
            vinv = LaurentPoly.var(m, d.comp_of_edge[b], -1)
            row[g_a] = row[g_a] + vinv
            row[g_o] = row[g_o] + vinv * (u - LaurentPoly.one(m))
        row[g_c] = row[g_c] - LaurentPoly.one(m)
        rows.append(row)
    return rows, arc_component
