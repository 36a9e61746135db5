"""Seeded link diagrams for the benchmark: braid closures, split unions, mirrors.

A braid word is a list of nonzero integers, ``+i`` for sigma_i and ``-i``
for its inverse, on ``n`` strands numbered 1..n from the left.  Its
closure is written in PD notation with the crossing conventions of
``alexlink.diagram``: positive sigma_i is X[e(i+1), new(i+1), new(i), e(i)]
and negative sigma_i is X[e(i), e(i+1), new(i+1), new(i)], where e(p) is
the edge currently at position p and new(p) the edge leaving the crossing
at position p.  Edges are then renumbered 1, 2, ... along each component
in the direction of the braid, components in the order of their first
strand, so that alexlink orders the components the same way as
``components`` below and orients every component along the braid.

Each workload stream is a sequence of rounds.  A round holds one record
of every size class of the workload, so each round costs about the same
and a run of whole rounds has the same mix whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Braid:
    word: tuple
    n: int

    def mirror(self):
        return Braid(tuple(-g for g in self.word), self.n)


def permutation(b):
    """Strand at each bottom position, as a list indexed by position."""
    at = list(range(b.n))
    for g in b.word:
        i = abs(g) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    return at


def components(b):
    """Components of the closure as sorted tuples of top positions.

    Ordered by their smallest position, which is the order alexlink gives
    them after ``braid_closure_pd`` renumbers the edges.
    """
    at = permutation(b)
    below = {at[p]: p for p in range(b.n)}  # strand starting at p ends at below[p]
    seen, comps = set(), []
    for p in range(b.n):
        if p in seen:
            continue
        cyc, q = [], p
        while q not in seen:
            seen.add(q)
            cyc.append(q)
            q = below[q]
        comps.append(tuple(sorted(cyc)))
    return comps


def braid_closure_pd(b):
    """PD crossings (list of 4-tuples) of the closure of braid ``b``."""
    edge = list(range(b.n))
    nxt = b.n
    raw = []
    succ = {}  # edge -> next edge along the orientation
    for g in b.word:
        i = abs(g) - 1
        ei, ej, ni, nj = edge[i], edge[i + 1], nxt, nxt + 1
        nxt += 2
        if g > 0:
            raw.append((ej, nj, ni, ei))
        else:
            raw.append((ei, ej, nj, ni))
        succ[ej] = ni
        succ[ei] = nj
        edge[i], edge[i + 1] = ni, nj
    # close up: the edge leaving the bottom at position p is the top edge p
    close = {edge[p]: p for p in range(b.n) if edge[p] != p}
    succ = {close.get(e, e): close.get(f, f) for e, f in succ.items()}
    label, k = {}, 0
    for p in range(b.n):
        e = p
        while e not in label:
            k += 1
            label[e] = k
            e = succ[e]
    return [tuple(label[close.get(e, e)] for e in cr) for cr in raw]


def split_union_pd(pieces):
    """Disjoint union of PD crossing lists, later pieces after earlier ones."""
    out, offset = [], 0
    for pd in pieces:
        out.extend(tuple(e + offset for e in cr) for cr in pd)
        offset += max(e for cr in pd for e in cr)
    return out


def mirror_pd(pd):
    """Mirror image by reflecting the plane: X[a,b,c,d] -> X[a,d,c,b]."""
    return [(a, d, c, b) for a, b, c, d in pd]


def pd_text(pd):
    return ", ".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in pd)


def fixture_text(name, ncomps, pd):
    return f"name: {name}\ncomponents: {ncomps}\npd: {pd_text(pd)}\n"


def torus(p, q):
    """T(p, q) as the closure of (sigma_1 ... sigma_{p-1})^q; q < 0 mirrors."""
    gen = tuple(range(1, p)) if q > 0 else tuple(-i for i in range(1, p))
    return Braid(gen * abs(q), p)


def sub_braid(b, keep):
    """The braid on the strands starting at the positions in ``keep``.

    Crossings with a dropped strand disappear; the closure is the
    sublink made of the kept components.
    """
    keep = set(keep)
    at = list(range(b.n))
    word = []
    for g in b.word:
        i = abs(g) - 1
        if at[i] in keep and at[i + 1] in keep:
            j = sum(1 for s in at[:i] if s in keep) + 1
            word.append(j if g > 0 else -j)
        at[i], at[i + 1] = at[i + 1], at[i]
    return Braid(tuple(word), len(keep))


# ---------------------------------------------------------------------------
# records

@dataclass
class Case:
    """One benchmark record: a diagram plus what its reference needs."""
    name: str
    pd: list
    ncomps: int
    kind: str                    # "braid", "split", "fixture"
    braid: Braid = None          # kind "braid"
    pieces: list = field(default_factory=list)  # kind "split": Braids
    torus: tuple = None          # (p, q) when the diagram is T(p, q)
    fixture_notes: dict = field(default_factory=dict)
    text: str = None             # fixture text, when not generated

    def fixture(self):
        return self.text or fixture_text(self.name, self.ncomps, self.pd)


def braid_case(name, b, torus_pq=None, mirror=False):
    """Closure of ``b``; ``mirror`` reflects the PD code instead."""
    pd = braid_closure_pd(b)
    if mirror:
        pd, b = mirror_pd(pd), b.mirror()
        torus_pq = torus_pq and (torus_pq[0], -torus_pq[1])
    return Case(name=name, pd=pd, ncomps=len(components(b)),
                kind="braid", braid=b, torus=torus_pq)


def split_case(name, braids, mirror_last=False):
    """Split union of knotted braid closures; optionally PD-mirror the last."""
    pds = [braid_closure_pd(b) for b in braids]
    pieces = list(braids)
    if mirror_last:
        pds[-1] = mirror_pd(pds[-1])
        pieces[-1] = pieces[-1].mirror()
    ncomps = sum(len(components(b)) for b in braids)
    return Case(name=name, pd=split_union_pd(pds), ncomps=ncomps,
                kind="split", pieces=pieces)


def random_word(rng, n, length):
    """A word using every generator, so the closure diagram is connected."""
    while True:
        word = [rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(length)]
        if {abs(g) for g in word} == set(range(1, n)) and all(
                word[k] != -word[k + 1] for k in range(length - 1)) \
                and word[0] != -word[-1]:
            return tuple(word)


def random_braid(rng, n, length, ncomps, accept=None):
    """A seeded braid whose closure has ``ncomps`` components.

    The permutation's parity is the word length's, so some pairs of
    length and component count have no braid at all.
    """
    for _ in range(10000):
        b = Braid(random_word(rng, n, length), n)
        if len(components(b)) == ncomps and (accept is None or accept(b)):
            return b
    raise ValueError(f"no {n}-braid of length {length} closes to "
                     f"{ncomps} components")


class Exhausted(Exception):
    """A generator found no diagram that the run has not had yet."""


class Stream:
    """Rounds of distinct cases; ``seen`` keeps diagrams from repeating."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seen = set()
        self.count = 0

    def fresh(self, make):
        """Call ``make(rng)`` until it returns a diagram not seen in this run."""
        for _ in range(1000):
            case = make(self.rng)
            key = tuple(case.pd)
            if key not in self.seen:
                self.seen.add(key)
                self.count += 1
                case.name = f"{case.name}-{self.count}"
                return case
        raise Exhausted("workload generator ran out of distinct diagrams")
