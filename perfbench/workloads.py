"""The four benchmark workloads: what each round of records holds and why.

Every workload is a stream of rounds built from a seed.  A round holds a
fixed number of records of each size class, so whole rounds keep the
mix, and the cost of a round, the same from seed to seed.  Classes are
capped in size so that no single record dominates a run.
"""

from __future__ import annotations

from pathlib import Path

import gen
import ref

def _is_unknot_poly(p):
    return ref.unit_equal(p, ref.const(1))


def _knotted(b):
    return not _is_unknot_poly(ref.burau_alexander(b))


def _nonzero(b):
    # one-variable polynomial nonzero, hence delta nonzero and beta = 0
    return bool(ref.burau_alexander(b))


def _knotted_component(b):
    return _nonzero(b) and not all(
        _is_unknot_poly(p) for p in ref.component_polys(b))


def _sign(rng):
    return rng.choice((1, -1))


class Workload:
    name = ""
    argv = ()               # CLI arguments after the subcommand's paths
    subcommand = ""
    tail_percentile = 80

    def warmup(self, stream):
        """One small record of the workload's kind, outside the timed part."""
        raise NotImplementedError

    def round(self, stream, index):
        """The cases of round ``index`` (a list; an exhausted class is left out)."""
        raise NotImplementedError

    def cli_args(self, path):
        return [self.subcommand, str(path), *self.argv]


def _try(stream, make):
    try:
        return stream.fresh(make)
    except gen.Exhausted:
        return None


class SplitTorsion(Workload):
    """Split unions of knots (beta >= 1, delta = 0): the time goes to
    matrix_rank and the rank-r minor gcd over the full Jacobian."""
    name = "split-torsion"
    subcommand = "obstruct"

    def warmup(self, stream):
        return stream.fresh(lambda rng: gen.split_case(
            "warm", [gen.torus(2, 3), gen.torus(2, 3)]))

    def round(self, stream, index):
        k4 = lambda rng: gen.random_braid(rng, 3, 4, 1, accept=_knotted)  # noqa: E731
        k6 = lambda rng: gen.random_braid(rng, 3, 6, 1, accept=_knotted)  # noqa: E731
        t3 = lambda rng: gen.torus(2, 3 * _sign(rng))  # noqa: E731
        classes = 3 * [
            # 7 crossings
            lambda rng: gen.split_case("t3-k4", [t3(rng), k4(rng)],
                                       mirror_last=rng.random() < 0.5),
            # 8 crossings
            lambda rng: gen.split_case("k4-k4", [k4(rng), k4(rng)]),
            # 9 crossings
            lambda rng: gen.split_case("k6-t3", [k6(rng), t3(rng)],
                                       mirror_last=rng.random() < 0.5),
        ]
        # three trefoils, 9 crossings, beta = 2: the costliest class, with
        # 16 distinct diagrams in all; later rounds go without it
        classes.append(lambda rng: gen.split_case(
            "t3-t3-t3", [t3(rng), t3(rng), t3(rng)],
            mirror_last=rng.random() < 0.5))
        return [c for c in (_try(stream, make) for make in classes) if c]


class NonsplitObstruct(Workload):
    """Non-split links with 2-4 components (beta = 0): deleted-column
    minors and three factorizations per report share the time."""
    name = "nonsplit-obstruct"
    subcommand = "obstruct"
    # (strands, components, crossings): a single size per class keeps the
    # cost of a round steady; the length parity is the permutation's
    CLASSES = ((3, 2, 9), (3, 2, 13), (3, 3, 10), (3, 3, 14), (4, 2, 10),
               (4, 2, 14), (4, 3, 11), (4, 3, 15), (4, 4, 12), (4, 4, 16))

    def __init__(self, fixture_dir):
        self.fixtures = sorted(Path(fixture_dir).glob("*.lnk"))

    def warmup(self, stream):
        return stream.fresh(lambda rng: gen.braid_case(
            "warm", gen.torus(2, 4), (2, 4)))

    def _fixture_cases(self):
        """The fixtures with two or more components in one connected piece."""
        cases = []
        for path in self.fixtures:
            text = path.read_text()
            fields = dict(line.split(":", 1) for line in text.splitlines()
                          if ":" in line and not line.startswith("#"))
            fields = {k.strip(): v.strip() for k, v in fields.items()}
            if "freeloops" in fields or not fields.get("pd"):
                continue
            pd = [tuple(int(x) for x in body.split(","))
                  for body in fields["pd"].replace(" ", "")[2:-1].split("],X[")]
            if int(fields["components"]) < 2 or _pieces(pd) != 1:
                continue
            cases.append(gen.Case(
                name=fields.get("name", path.stem), pd=pd,
                ncomps=int(fields["components"]), kind="fixture",
                fixture_notes={k: v for k, v in fields.items()
                               if k.startswith("note")},
                text=text))
        return cases

    def round(self, stream, index):
        cases = []
        if index == 0:
            for case in self._fixture_cases():
                stream.seen.add(tuple(case.pd))
                cases.append(case)
        for n, m, length in self.CLASSES:
            cases.append(_try(stream, lambda rng, n=n, m=m, length=length:
                              gen.braid_case(f"b{n}m{m}", gen.random_braid(
                                  rng, n, length, m, accept=_nonzero))))
        return [c for c in cases if c]


def _pieces(pd):
    """Connected pieces of a PD diagram (edges joined through crossings)."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cr in pd:
        for e in cr[1:]:
            parent[find(e)] = find(cr[0])
    return len({find(e) for cr in pd for e in cr})


class KnotInvariants(Workload):
    """Knots and links with knotted components, 10-16 crossings: the
    Conway skein runs twice per record.  One record in ten is over the
    skein's crossing budget; those exit 1 until the CLI stops needing it."""
    name = "knot-invariants"
    subcommand = "invariants"
    CLASSES = ((3, 1, 12), (3, 1, 16), (4, 1, 11), (4, 1, 15), (3, 2, 11),
               (3, 2, 15), (4, 2, 10), (4, 2, 12), (4, 2, 16))

    def warmup(self, stream):
        return stream.fresh(lambda rng: gen.braid_case(
            "warm", gen.torus(2, 5), (2, 5)))

    def _over_budget(self, stream, index):
        """T(2,17), T(2,19) and 17-18-crossing braid knots, in turn."""
        if index % 3 < 2:
            q = (17, 19)[index % 3] * (1 if index // 3 % 2 == 0 else -1)
            case = _try(stream, lambda rng: gen.braid_case(
                "over", gen.torus(2, q), (2, q)))
            if case:
                return case
        return stream.fresh(lambda rng: gen.braid_case(
            "over", gen.random_braid(rng, 3, 18, 1, accept=_knotted)))

    def round(self, stream, index):
        cases = [_try(stream, lambda rng, n=n, m=m, length=length:
                      gen.braid_case(f"b{n}m{m}", gen.random_braid(
                          rng, n, length, m, accept=_knotted_component)))
                 for n, m, length in self.CLASSES]
        cases.append(self._over_budget(stream, index))
        return [c for c in cases if c]


class SplitSearch(Workload):
    """Bounded crossing-change search on 2-3 component links: the search
    and the diagram moves dominate; T(2,2k) is found iff k <= 4."""
    name = "split-search"
    subcommand = "search"
    argv = ("--search-depth", "4", "--mode", "any")
    CLASSES = 3 * ((3, 2, 13), (3, 3, 12))

    def warmup(self, stream):
        return stream.fresh(lambda rng: gen.braid_case(
            "warm", gen.torus(2, 4), (2, 4)))

    def round(self, stream, index):
        # T(2, 2k), k = 3..8 in turn, each sign, then mirrored by the PD
        # code: 24 rounds in all
        k = 3 + index % 6
        q = 2 * k * (1 if index // 6 % 2 == 0 else -1)
        cases = [_try(stream, lambda rng: gen.braid_case(
            "torus", gen.torus(2, q), (2, q), mirror=index // 12 % 2 == 1))]
        cases += [_try(stream, lambda rng, n=n, m=m, length=length:
                       gen.braid_case(f"b{n}m{m}", gen.random_braid(
                           rng, n, length, m, accept=_nonzero)))
                  for n, m, length in self.CLASSES]
        return [c for c in cases if c]


def all_workloads(fixture_dir):
    return {w.name: w for w in (SplitTorsion(), NonsplitObstruct(fixture_dir),
                                KnotInvariants(), SplitSearch())}
