"""Bounded diagrammatic splitting search and the sandwich summaries."""

from itertools import combinations

import pytest
from hypothesis import given, settings

import alexlink as al
from alexlink import search
from alexlink.diagram import LinkDiagram
from alexlink.obstructions import build_report
from alexlink.search import (MAX_SEARCH_DEPTH, SEARCH_CROSSING_BUDGET,
                             SearchBudgetExceeded, SearchResult,
                             bounded_split_search, certify_gap)

from conftest import (braid_closure, braid_closure_pd, corpus_diagrams,
                      load_fixture, random_braid_closures, random_braid_words,
                      seeded)
from test_diagram import reference_reduce_bigons, reference_split_partition
from test_invariants import braid_words


def _parity_feasible(d, change_counts):
    """Necessary condition for a full split after the given changes.

    Every pairwise linking number ends at zero in a completely split
    link, and each inter-component crossing change moves one of them by
    one, so (linking number + change count) must be even for every pair.
    """
    m = d.ncomps
    for i in range(m):
        for j in range(i):
            v = d.linking_number(i, j)
            if (v + change_counts.get((i, j), 0)) % 2:
                return False
    return True


def reference_split_search(d, max_depth, mode="inter"):
    """The search before the linking-number prune: every set from depth
    0, with only a parity check, and only in inter mode."""
    if mode == "inter":
        candidates = [i for i in range(d.ncrossings)
                      if len(set(d.crossing_components(i))) == 2]
    else:
        candidates = list(range(d.ncrossings))

    seen = set()
    for depth in range(max_depth + 1):
        for changes in combinations(candidates, depth):
            if mode == "inter":
                counts = {}
                for i in changes:
                    cu, co = d.crossing_components(i)
                    key = (max(cu, co), min(cu, co))
                    counts[key] = counts.get(key, 0) + 1
                if not _parity_feasible(d, counts):
                    continue
            cur = d
            for i in changes:
                cur = cur.crossing_change(i)
            reduced = cur.reduce_bigons()
            key = reduced.state_key()
            if key in seen:
                continue
            seen.add(key)
            partition = reduced.split_partition()
            if all(len(part) == 1 for part in partition):
                return SearchResult(found=True, sequence=tuple(changes),
                                    partition=tuple(partition), depth=depth,
                                    mode=mode)
    return SearchResult(found=False, sequence=(), partition=None,
                        depth=max_depth, mode=mode)


def reference_change_sets(d, max_depth, mode):
    """The walk the generated sets replaced: every combination of the
    candidates, depth by depth, kept when the signs of its crossings
    between each pair of components sum to that pair's lk."""
    lk = {(i, j): row[j]
          for i, row in enumerate(d.linking_matrix()) for j in range(i)}
    mixed = {}
    for c in range(d.ncrossings):
        cu, co = d.crossing_components(c)
        if cu != co:
            mixed[c] = ((max(cu, co), min(cu, co)), d.signs[c])
    candidates = list(mixed) if mode == "inter" else range(d.ncrossings)
    for depth in range(max_depth + 1):
        for changes in combinations(candidates, depth):
            moved = dict.fromkeys(lk, 0)
            for c in changes:
                if c in mixed:
                    pair, sign = mixed[c]
                    moved[pair] += sign
            if moved == lk:
                yield changes


@pytest.fixture
def reduced_states(monkeypatch):
    """The crossing list of every state reduced, one per change set: the
    search's through ``search._reduce``, the reference's through
    ``LinkDiagram.reduce_bigons``."""
    states = []
    real_reduce_flat, real_reduce = search._reduce, LinkDiagram.reduce_bigons

    def reduce_flat(crossings, signs, dirty, where, watch):
        states.append(list(crossings))
        return real_reduce_flat(crossings, signs, dirty, where, watch)

    def reduce_bigons(self):
        states.append(list(self.crossings))
        return real_reduce(self)

    monkeypatch.setattr(search, "_reduce", reduce_flat)
    monkeypatch.setattr(LinkDiagram, "reduce_bigons", reduce_bigons)
    return states


@pytest.fixture
def every_state(monkeypatch):
    """Lets the search reduce every set it generates: each reduction is
    recorded as (the crossing list it starts from, whether it split) and
    reported to the search as not split."""
    states = []
    real = search._reduce

    def reduce_flat(crossings, signs, dirty, where, watch):
        start = list(crossings)
        closed, left = real(crossings, signs, dirty, where, watch)
        states.append((start, not left))
        return closed, 1

    monkeypatch.setattr(search, "_reduce", reduce_flat)
    return states


def changed(d, crossings):
    """The indices of the crossings of d that ``crossings`` switches."""
    return [i for i, (x, y) in enumerate(zip(d.crossings, crossings))
            if x != y]


def torus_2(n):
    """T(2,n), the closure of sigma_1^n."""
    return al.parse_pd(braid_closure_pd([1] * n, 2), name=f"T(2,{n})")


class TestBoundedSplitSearch:
    def test_hopf_splits_at_depth_one(self):
        r = bounded_split_search(load_fixture("hopf"), 2, mode="inter")
        assert r.found and r.depth == 1
        assert len(r.sequence) == 1
        assert r.partition == ((0,), (1,))

    def test_whitehead_needs_two_inter_changes(self):
        # depth 1 cannot split: one change would move the linking
        # number 0 away from 0; depth 2 works
        r1 = bounded_split_search(load_fixture("whitehead"), 1, mode="inter")
        assert not r1.found
        r2 = bounded_split_search(load_fixture("whitehead"), 3, mode="inter")
        assert r2.found and r2.depth == 2

    def test_already_split_found_at_depth_zero(self):
        r = bounded_split_search(load_fixture("trefoil_trefoil"), 0)
        assert r.found and r.depth == 0 and r.sequence == ()

    def test_not_found_is_reported_not_guessed(self):
        # the Borromean diagram does not fall apart within the budget;
        # the search must say so rather than return a bogus sequence
        r = bounded_split_search(load_fixture("L6a4"), 3, mode="inter")
        assert not r.found and r.partition is None and r.depth == 3

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            bounded_split_search(load_fixture("hopf"), -1)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            bounded_split_search(load_fixture("hopf"), 1, mode="bogus")

    def test_depth_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            bounded_split_search(load_fixture("hopf"), MAX_SEARCH_DEPTH + 1)

    def test_crossing_budget(self):
        tref = [(4, 2, 5, 1), (2, 6, 3, 5), (6, 4, 1, 3)]
        n = SEARCH_CROSSING_BUDGET // 3 + 1
        text = ", ".join("X[%d,%d,%d,%d]" % tuple(6 * k + x for x in c)
                         for k in range(n) for c in tref)
        with pytest.raises(SearchBudgetExceeded):
            bounded_split_search(al.parse_pd(text), 1)

    def test_inter_mode_only_touches_mixed_crossings(self):
        d = load_fixture("whitehead")
        r = bounded_split_search(d, 3, mode="inter")
        for i in r.sequence:
            assert len(set(d.crossing_components(i))) == 2


class TestLinkingNumberPrune:
    """The prune against the parity-only search it replaced."""

    @pytest.mark.parametrize("mode", ["inter", "any"])
    def test_matches_reference_on_corpus(self, mode):
        for d in corpus_diagrams():
            if d.ncrossings > SEARCH_CROSSING_BUDGET:
                continue
            for depth in range(4):
                assert bounded_split_search(d, depth, mode) == \
                    reference_split_search(d, depth, mode), (d.name, depth)

    @pytest.mark.parametrize("mode", ["inter", "any"])
    def test_matches_reference_on_closures(self, mode):
        closures = random_braid_closures(seeded(606), 30, length=(6, 12))
        assert any(d.ncomps > 1 and d.total_linking_number() != 0
                   for d in closures)
        for d in closures:
            for depth in range(4):
                assert bounded_split_search(d, depth, mode) == \
                    reference_split_search(d, depth, mode), (d.name, depth)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(braid_words())
    def test_matches_reference_on_generated_closures(self, case):
        d = braid_closure(*case)
        for mode in ("inter", "any"):
            for depth in range(4):
                assert bounded_split_search(d, depth, mode) == \
                    reference_split_search(d, depth, mode), (case, mode)

    @pytest.mark.parametrize("name", ["L6a4", "whitehead"])
    @pytest.mark.parametrize("mode", ["inter", "any"])
    def test_fewer_crossing_changes(self, reduced_states, name, mode):
        d = load_fixture(name)
        expected = reference_split_search(d, 3, mode)
        reference_states = len(reduced_states)
        del reduced_states[:]
        assert bounded_split_search(d, 3, mode) == expected
        if mode == "any":
            assert len(reduced_states) < reference_states
        else:
            # each component pair here shares two crossings of opposite
            # sign, so parity already pruned what the sum prunes
            assert len(reduced_states) == reference_states

    def test_start_depth_above_max_builds_nothing(self, reduced_states):
        d = torus_2(10)
        assert abs(d.linking_number(0, 1)) == 5
        r = bounded_split_search(d, 4, mode="any")
        assert r == SearchResult(found=False, sequence=(), partition=None,
                                 depth=4, mode="any")
        assert reduced_states == []

    def test_start_depth_is_total_absolute_linking(self, reduced_states):
        # T(2,8) has |lk| = 4: the search starts at depth 4 and its first
        # set changes four crossings
        d = torus_2(8)
        r = bounded_split_search(d, 4, mode="inter")
        assert r.found and r.depth == 4
        assert changed(d, reduced_states[0]) == [0, 1, 2, 3]


class TestGeneratedChangeSets:
    """The generated change sets against the filtered walk they replaced,
    and each set's split decision against the rebuild-per-move reference
    reduction."""

    @pytest.mark.parametrize("mode", ["inter", "any"])
    def test_sets_and_order_match_the_filtered_walk(self, every_state, mode):
        closures = random_braid_closures(seeded(808), 12,
                                         strands=(2, 3, 4, 5), length=(4, 16))
        diagrams = [d for d in corpus_diagrams()
                    if d.ncrossings <= SEARCH_CROSSING_BUDGET] + closures
        # a pair sharing no crossing, and pairs with lk != 0
        tt = load_fixture("trefoil_trefoil")
        assert tt.ncomps == 2 and tt.ncrossings > 0
        assert all(len(set(tt.crossing_components(i))) == 1
                   for i in range(tt.ncrossings))
        assert tt.crossings in [d.crossings for d in diagrams]
        assert sum(d.ncomps > 1 and d.total_linking_number() != 0
                   for d in closures) >= 3
        for d in diagrams:
            del every_state[:]
            assert not bounded_split_search(d, 4, mode).found
            assert [tuple(changed(d, state)) for state, _ in every_state] == \
                list(reference_change_sets(d, 4, mode)), (d.name, mode)

    def test_split_decisions_match_reference_reduction(self, every_state):
        rng = seeded(909)
        # one sign per generator, so that no bigon cancels
        plain = []
        for word, n in random_braid_words(rng, 30, strands=(2, 3, 4, 5),
                                          length=(6, 10)):
            sign = {g: rng.choice([1, -1]) for g in range(1, n)}
            plain.append(([sign[abs(g)] * abs(g) for g in word], n))
        plain = [(word, n) for word, n in plain
                 if braid_closure(word, n).ncomps > 1][:6]
        # a free cancellation g g^-1 between two components is a bigon of
        # the given diagram that a set must remove to split, though it
        # changes neither crossing
        cancelled = []
        for word, n in plain:
            while True:
                k, g = rng.randrange(len(word) + 1), rng.randrange(1, n)
                d = braid_closure(word[:k] + [g, -g] + word[k:], n)
                if len(set(d.crossing_components(k))) == 2:
                    break
            cancelled.append(d)
        cases = [braid_closure(word, n) for word, n in plain] + cancelled
        assert [d.reduce_bigons() is d for d in cases] == [True] * 6 + \
            [False] * 6
        outcomes, checked = set(), 0
        for d in cases:
            del every_state[:]
            bounded_split_search(d, 4, "any")
            split = {tuple(changed(d, state)): found
                     for state, found in every_state}
            sets = list(reference_change_sets(d, 3, "any"))
            fours = [s for s in split if len(s) == 4]
            sets += rng.sample(fours, min(4, len(fours)))
            for changes in sets:
                c = d
                for i in changes:
                    c = c.crossing_change(i)
                parts = reference_split_partition(reference_reduce_bigons(c))
                expected = all(len(p) == 1 for p in parts)
                assert split[changes] == expected, (d.name, changes)
                outcomes.add((expected, d.reduce_bigons() is not d))
                checked += 1
        assert outcomes == {(True, True), (True, False), (False, True),
                            (False, False)}
        assert checked >= 400

    # hopf_big's crossings 0 and 3 form a bigon; trefoil_big's crossing 3
    # is a curl
    @pytest.mark.parametrize("name, move", [("hopf_big", (0, 3)),
                                            ("trefoil_big", (3,))])
    @pytest.mark.parametrize("mode", ["inter", "any"])
    def test_given_diagram_with_a_move(self, name, move, mode):
        d = load_fixture(name)
        assert d.reduce_bigons().ncrossings == d.ncrossings - len(move)
        for depth in range(5):
            assert bounded_split_search(d, depth, mode) == \
                reference_split_search(d, depth, mode), (depth, mode)

    def test_unlink_drawn_with_a_bigon_splits_unchanged(self):
        d = braid_closure([1, -1], 2)
        assert d.ncomps == 2 and d.reduce_bigons().ncrossings == 0
        r = bounded_split_search(d, 0, mode="inter")
        assert r.found and r.sequence == ()


class TestCertifyGap:
    def test_hopf_sandwich_is_exact(self):
        d = load_fixture("hopf")
        report = build_report(d)
        result = bounded_split_search(d, 1, mode="inter")
        gap = certify_gap(report, result)
        assert gap.intervals["splitting"] == (1, 1)
        assert gap.exact["splitting"]
        # inter-component changes also bound the weak splitting number
        assert gap.intervals["weakSplitting"] == (1, 1)
        assert gap.exact["weakSplitting"]
        assert gap.intervals["unlinking"][1] is None

    def test_whitehead_splitting_exact(self):
        d = load_fixture("whitehead")
        gap = certify_gap(build_report(d),
                          bounded_split_search(d, 2, mode="inter"))
        assert gap.intervals["splitting"] == (2, 2)
        assert gap.exact["splitting"]

    def test_unfound_search_leaves_intervals_open(self):
        d = load_fixture("L6a4")
        gap = certify_gap(build_report(d),
                          bounded_split_search(d, 2, mode="inter"))
        for q in gap.intervals:
            assert gap.intervals[q][1] is None
            assert not gap.exact[q]

    def test_any_mode_does_not_bound_splitting(self):
        d = load_fixture("whitehead")
        gap = certify_gap(build_report(d),
                          bounded_split_search(d, 2, mode="any"))
        assert gap.intervals["weakSplitting"][1] == 2
        assert gap.intervals["splitting"][1] is None

    def test_inconsistent_pipeline_raises(self):
        report = build_report(load_fixture("hopf"))
        fake = SearchResult(found=True, sequence=(), partition=((0,), (1,)),
                            depth=0, mode="inter")
        with pytest.raises(AssertionError):
            certify_gap(report, fake)
