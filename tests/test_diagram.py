"""PD parsing, orientation inference, diagram moves and the Fox Jacobian."""

from itertools import combinations

import pytest

import alexlink as al
from alexlink import diagram
from alexlink.diagram import (LinkDiagram, PDError, _classes, _excerpt,
                              _face_count, _integer, _orient,
                              _parse_crossing_list, _strand_pairs, is_planar,
                              planar_face_count, serialize_pd, wirtinger_arcs)
from alexlink.invariants import _rank_and_order
from alexlink.laurent import _MAX_DIGITS, LaurentPoly

from conftest import (braid_closure_pd, corpus_diagrams, load_fixture,
                      random_braid_closures, random_braid_words, seeded)

HOPF = "X[4,2,1,3], X[2,4,3,1]"
TREFOIL = "X[4,2,5,1], X[2,6,3,5], X[6,4,1,3]"


def serialize_fixture(d):
    """Fixture text that parse_fixture reads back as d."""
    lines = [f"name: {d.name}"] if d.name else []
    lines.append(f"components: {d.ncomps}")
    if d.nfree:
        lines.append(f"freeloops: {d.nfree}")
    lines.append(f"pd: {serialize_pd(d)}")
    lines += [f"{k}: {v}" for k, v in sorted(d.notes.items())]
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_hopf(self):
        d = al.parse_pd(HOPF)
        assert d.ncomps == 2
        assert d.ncrossings == 2
        assert list(d.signs) == [1, 1]
        assert d.linking_number(0, 1) == 1

    def test_trefoil(self):
        d = al.parse_pd(TREFOIL)
        assert d.ncomps == 1
        assert list(d.signs) == [1, 1, 1]

    def test_empty_with_freeloops(self):
        d = al.parse_pd("", nfree=3)
        assert d.ncomps == 3 and d.nfree == 3 and d.ncrossings == 0

    def test_empty_without_freeloops_rejected(self):
        with pytest.raises(PDError):
            al.parse_pd("")

    def test_bad_syntax(self):
        with pytest.raises(PDError):
            al.parse_pd("X[1,2,3]")
        with pytest.raises(PDError):
            al.parse_pd("Y[1,2,3,4]")

    @pytest.mark.parametrize("text, message", [
        ("Y[1,2,3,4]", "expected X[a,b,c,d] near 'Y[1,2,3,4]'"),
        (f"{HOPF},\n{HOPF}",
         "expected X[a,b,c,d] near '\\nX[4,2,1,3], X[2,4,3'"),
        ("X[4,2,1,3] X[2,4,3,1", "unterminated crossing tuple"),
        ("X[4,2,1,3], X[2,4,3,1)", "unterminated crossing tuple"),
        ("X[4,2,1,3],, X[2,a,3,1]", "non-integer edge label in X[2,a,3,1]"),
        ("X[1,2,3,]", "non-integer edge label in X[1,2,3,]"),
        ("X[1,2,3]", "crossing X[1,2,3] needs 4 positive edge labels"),
        ("X[1,2,3,4,5]",
         "crossing X[1,2,3,4,5] needs 4 positive edge labels"),
        ("X[1,2,0,4]", "crossing X[1,2,0,4] needs 4 positive edge labels"),
        # int() reads each of these; only ASCII digits are labels
        ("X[6,4,1,٣]", "non-integer edge label in X[6,4,1,٣]"),
        ("X[4,+2,5_0,1]", "non-integer edge label in X[4,+2,5_0,1]"),
        ("X[4,2,5,1²]", "non-integer edge label in X[4,2,5,1²]"),
        ("X[4,2,5,- 1]", "non-integer edge label in X[4,2,5,- 1]"),
        ("X[1,2,-3,4]", "crossing X[1,2,-3,4] needs 4 positive edge labels"),
    ])
    def test_crossing_list_errors(self, text, message):
        with pytest.raises(PDError) as exc:
            al.parse_pd(text)
        assert str(exc.value) == message

    def test_edge_count_validation(self):
        # an edge appearing once (or three times) cannot close up
        with pytest.raises(PDError):
            al.parse_pd("X[1,2,3,4], X[2,1,4,5]")

    def test_serialize_roundtrip(self):
        for d in corpus_diagrams():
            if d.ncrossings == 0:
                continue
            d2 = al.parse_pd(al.serialize_pd(d), nfree=d.nfree, name=d.name)
            assert d2.crossings == d.crossings
            assert d2.signs == d.signs
            assert d2.comp_of_edge == d.comp_of_edge

    def test_fixture_roundtrip(self):
        for d in corpus_diagrams():
            d2 = al.parse_fixture(serialize_fixture(d), name_hint=d.name)
            assert d2.signs == d.signs
            assert d2.ncomps == d.ncomps
            assert d2.notes == d.notes

    def test_fixture_component_mismatch(self):
        with pytest.raises(PDError):
            al.parse_fixture(f"name: bad\ncomponents: 3\npd: {HOPF}\n")

    def test_negative_freeloops_rejected(self):
        with pytest.raises(PDError, match="free loop"):
            al.parse_pd(HOPF, nfree=-1)
        with pytest.raises(PDError, match="free loop"):
            al.parse_fixture(f"components: 1\nfreeloops: -1\npd: {HOPF}\n")

    @pytest.mark.parametrize("key", ["components", "freeloops"])
    @pytest.mark.parametrize("value", ["two", "1.5", "", "٢", "+1_0", "+0",
                                       "1_0", "²"])
    def test_fixture_count_must_be_an_integer(self, key, value):
        with pytest.raises(PDError) as exc:
            al.parse_fixture(f"{key}: {value}\npd: {HOPF}\n")
        assert str(exc.value) == f"{key}: needs an integer, got {value!r}"

    @pytest.mark.parametrize("text, message", [
        ("X[" + "1" * 5000 + ",2,3,4]",
         "a number of 5000 digits exceeds the bound of 1234 digits in X["
         + "1" * 40 + "...]"),
        ("X[1,2,3,-" + "7" * 1235 + "]",
         "a number of 1235 digits exceeds the bound of 1234 digits in "
         "X[1,2,3,-" + "7" * 33 + "...]"),
        ("X[1,2,x" + "y" * 100 + ",4]",
         "non-integer edge label in X[1,2,x" + "y" * 35 + "...]"),
        ("X[" + "1," * 100 + "1]",
         "crossing X[" + "1," * 20 + "...] needs 4 positive edge labels"),
    ], ids=["long-label", "long-negative-label", "long-word", "many-labels"])
    def test_long_labels_give_a_bounded_error(self, text, message):
        """A long run of digits is refused by its length before int()
        reads it, and a message quotes at most 40 characters of the
        crossing."""
        with pytest.raises(PDError) as exc:
            al.parse_pd(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("key", ["components", "freeloops"])
    def test_long_fixture_count_gives_a_bounded_error(self, key):
        with pytest.raises(PDError) as exc:
            al.parse_fixture(f"{key}: {'1' * 5000}\npd: {HOPF}\n")
        assert str(exc.value) == (f"{key}: a number of 5000 digits exceeds "
                                  "the bound of 1234 digits")
        with pytest.raises(PDError) as exc:
            al.parse_fixture(f"{key}: {'x' * 5000}\npd: {HOPF}\n")
        assert str(exc.value) == (f"{key}: needs an integer, got "
                                  f"{'x' * 40 + '...'!r}")

    def test_digit_bound_is_the_polynomial_parsers(self):
        # the longest accepted label is one digit under the refused run
        from alexlink.laurent import _MAX_DIGITS
        assert _MAX_DIGITS == 1234
        big = "9" * _MAX_DIGITS
        with pytest.raises(PDError, match="appears 1 times"):
            al.parse_pd(f"X[{big},2,3,4]")

    def test_whitespace_around_labels_accepted(self):
        spaced = "X[ 4, 2 ,1,\t3 ], X[2 ,4,3 , 1]"
        assert al.parse_pd(spaced).crossings == al.parse_pd(HOPF).crossings

    def test_fixture_unknown_key(self):
        with pytest.raises(PDError):
            al.parse_fixture(f"name: bad\nbogus: 1\npd: {HOPF}\n")

    @pytest.mark.parametrize("line", ["name: other", "components: 2",
                                      "freeloops: 0", f"pd: {HOPF}",
                                      "note_u: 1"])
    def test_fixture_repeated_key(self, line):
        key = line.partition(":")[0]
        text = f"name: hopf\ncomponents: 2\nfreeloops: 0\nnote_u: 1\n" \
            f"pd: {HOPF}\n"
        assert al.parse_fixture(text).name == "hopf"
        with pytest.raises(PDError, match=f"repeated fixture key '{key}'"):
            al.parse_fixture(text + line + "\n")


# ---------------------------------------------------------------------------
# Reference crossing-list reader: every label through ``_integer``, one
# crossing at a time.  ``_parse_crossing_list`` must accept the same texts,
# return the same tuples and raise the same PDError text.

def reference_parse_crossing_list(text):
    crossings = []
    rest = text.strip().lstrip(", \t")
    while rest:
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
        crossings.append(nums)
        rest = rest.lstrip(", \t")
    return crossings


# labels no pattern of ASCII digits should take as they stand
ODD_LABELS = ["0", "00", "007", "0" + "4" * (_MAX_DIGITS - 1), "-3", "-0",
              "+2", "5_0", "_7", "٣", "１２", "3１", "²", "", "x", "- 1", "1 2",
              "1" * _MAX_DIGITS, "9" * (_MAX_DIGITS + 1),
              "0" * (_MAX_DIGITS + 1), "-" + "2" * _MAX_DIGITS]
SPACES = ["", "", " ", "  ", "\t", "\n", "\u00a0", "\u3000", " \t"]
SEPARATORS = [", ", ",", "", " ", "\t", ",,", ", ,\t", "\n", ", \n",
              ",\u00a0"]


def crossing_list_texts(rng, count):
    """Seeded crossing lists: mostly plain labels, with odd labels, odd
    spaces around them, 3 or 5 labels, a missing ']' and separators of
    every kind (or none) between crossings."""
    def label():
        if rng.random() < 0.85:
            text = str(rng.randrange(1, 60))
            return rng.choice(["", " "]) + text + rng.choice(["", " "])
        return rng.choice(SPACES) + rng.choice(ODD_LABELS) + \
            rng.choice(SPACES)

    def crossing():
        n = 4 if rng.random() < 0.9 else rng.choice([3, 5])
        close = "]" if rng.random() < 0.97 else ""
        return "X[" + ",".join(label() for _ in range(n)) + close

    texts = []
    for _ in range(count):
        parts = [crossing() for _ in range(rng.randrange(1, 6))]
        text = parts[0]
        for part in parts[1:]:
            sep = ", " if rng.random() < 0.6 else rng.choice(SEPARATORS)
            text += sep + part
        texts.append(rng.choice(["", " ", ", ", "\n", "\u00a0"]) + text +
                     rng.choice(["", " ", ",", ", ", "\n", "\t"]))
    return texts


def read_or_error(parse, text):
    try:
        return parse(text)
    except PDError as exc:
        return str(exc)


class TestCrossingListMatchesReference:
    def test_seeded_texts(self, monkeypatch):
        """The pattern reads most crossings; the rest go through the
        ``_integer`` route, which accepts some and refuses others."""
        checked = {"accepted": 0, "refused": 0}
        route = diagram._checked_crossing

        def counting(rest):
            try:
                out = route(rest)
            except PDError:
                checked["refused"] += 1
                raise
            checked["accepted"] += 1
            return out

        monkeypatch.setattr(diagram, "_checked_crossing", counting)
        texts = crossing_list_texts(seeded(90), 3000)
        outcomes = [read_or_error(_parse_crossing_list, t) for t in texts]
        for text, got in zip(texts, outcomes):
            assert got == read_or_error(reference_parse_crossing_list, text), \
                text
        accepted = sum(isinstance(x, list) for x in outcomes)
        assert 300 < accepted < len(texts) - 300
        assert checked["accepted"] > 100 and checked["refused"] > 300

    @pytest.mark.parametrize("text", [
        "X[1,2,3,4]X[4,3,2,1]", "X[0,1,2,3]", "X[007,1,2,3]",
        "X[\u00a01 ,2,3,4]", "X[1,2,3,4", "X[1,2,3]", "X[1,2,3,4,5]",
        "X[1\n,2,3,4], X[1,\t2,3,4]", ",, X[1,2,3,4] ,\t",
        "X[1,2,3,4]\nX[1,2,3,4]", "X[１,2,3,4]", "X[+1,2,3,4]",
        "X[1_0,2,3,4]", "X[" + "7" * _MAX_DIGITS + ",2,3,4]",
        "X[" + "7" * (_MAX_DIGITS + 1) + ",2,3,4]",
    ])
    def test_listed_texts(self, text):
        assert read_or_error(_parse_crossing_list, text) == \
            read_or_error(reference_parse_crossing_list, text)


class TestOrientationInference:
    def test_negative_crossings(self):
        # mirror Hopf link: both crossings negative, linking number -1
        d = al.parse_pd("X[1,3,2,4], X[4,2,3,1]")
        assert list(d.signs) == [-1, -1]
        assert d.linking_number(0, 1) == -1

    def test_braid_signs_match(self):
        # signs are already validated against construction in fixtures;
        # spot-check a mixed word diagram here
        d = load_fixture("hopf_big")
        assert sorted(d.signs) == [-1, 1, 1, 1]

    def test_reversed_under_strand_rejected(self):
        # edge 3 leaves crossing 0 as an under-strand and enters crossing 1
        # at its outgoing under slot
        for orient in (_orient, reference_orient):
            with pytest.raises(PDError, match="inconsistent"):
                orient([(1, 2, 3, 1), (2, 4, 3, 4)])
        with pytest.raises(PDError, match="inconsistent strand traversal"):
            al.parse_pd("X[1,2,3,1], X[2,4,3,4]")

    def test_over_only_component_follows_label_succession(self):
        # in the closure of (s1 s1^-1)^2 the strand on edges 1-4 passes
        # only over; numbering it backwards reverses it and every sign
        forward = "X[5,2,6,1], X[6,2,7,3], X[7,4,8,3], X[8,4,5,1]"
        backward = "X[5,3,6,4], X[6,3,7,2], X[7,1,8,2], X[8,1,5,4]"
        assert al.parse_pd(forward).signs == (1, -1, 1, -1)
        assert al.parse_pd(backward).signs == (-1, 1, -1, 1)


def per_pair_linking_number(d, i, j):
    """lk(i,j) as half the signed count of the crossings between i and j,
    one pair at a time."""
    total = sum(sign for k, sign in enumerate(d.signs)
                if set(d.crossing_components(k)) == {i, j})
    assert total % 2 == 0, (d, i, j)
    return total // 2


class TestLinkingNumbers:
    def test_matrix_matches_per_pair_sums(self):
        closures = random_braid_closures(seeded(76), 120,
                                         strands=(2, 3, 4, 5))
        diagrams = corpus_diagrams() + closures
        assert max(d.ncomps for d in diagrams) >= 4
        for d in diagrams:
            m = d.ncomps
            lk = d.linking_matrix()
            assert lk == [[per_pair_linking_number(d, i, j) if i != j else 0
                           for j in range(m)] for i in range(m)], d
            assert all(d.linking_number(i, j) == lk[i][j]
                       for i in range(m) for j in range(m) if i != j), d
            assert d.total_linking_number() == sum(
                lk[i][j] for i in range(m) for j in range(i)), d

    def test_odd_crossing_sum_rejected(self):
        # one crossing between two components cannot close up: built
        # directly, since parse_pd refuses it
        d = LinkDiagram([(1, 2, 1, 2)], [1], {1: 0, 2: 1}, 2)
        for query in (d.linking_matrix, lambda: d.linking_number(0, 1),
                      d.total_linking_number):
            with pytest.raises(PDError, match="odd inter-component"):
                query()

    def test_out_of_range_rejected(self):
        d = al.parse_pd(HOPF)
        for i, j in ((0, 2), (-1, 0)):
            with pytest.raises(PDError, match="out of range"):
                d.linking_number(i, j)

    def test_total(self):
        d = load_fixture("L6a4")
        assert d.linking_number(0, 1) == 0
        assert d.total_linking_number() == 0

    def test_whitehead_zero(self):
        d = load_fixture("whitehead")
        assert d.linking_number(0, 1) == 0

    def test_self_linking_rejected(self):
        d = al.parse_pd(HOPF)
        with pytest.raises(PDError):
            d.linking_number(0, 0)


class TestCrossingChange:
    def test_involutive(self):
        for d in corpus_diagrams():
            for i in range(d.ncrossings):
                dd = d.crossing_change(i).crossing_change(i)
                assert dd.crossings == d.crossings
                assert dd.signs == d.signs

    def test_sign_flips(self):
        d = al.parse_pd(HOPF)
        d2 = d.crossing_change(0)
        assert d2.signs[0] == -1

    def test_unlinks_hopf(self):
        d = al.parse_pd(HOPF)
        d2 = d.crossing_change(0).reduce_bigons()
        assert len(d2.split_partition()) == 2

    def test_out_of_range(self):
        with pytest.raises(PDError):
            al.parse_pd(HOPF).crossing_change(5)


class TestSmoothing:
    def test_hopf_smooths_to_unknot(self):
        d = al.parse_pd(HOPF)
        s = d.smooth_crossing(0)
        assert s.ncomps == 1
        assert s.ncrossings == 1

    def test_trefoil_smooths_to_two_components(self):
        d = al.parse_pd(TREFOIL)
        s = d.smooth_crossing(0)
        assert s.ncomps == 2


class TestDeleteComponents:
    def test_keep_one_of_hopf(self):
        d = al.parse_pd(HOPF)
        s = reference_delete_components(d, {0})
        assert s.ncomps == 1
        assert s.ncrossings == 0 or s.reduce_bigons().ncrossings == 0

    def test_free_loop_carried(self):
        d = load_fixture("trefoil_unknot")
        knot = reference_delete_components(d, {0})
        assert knot.ncomps == 1 and knot.ncrossings == 3
        loop = reference_delete_components(d, {1})
        assert loop.ncomps == 1 and loop.ncrossings == 0


class TestBigonsAndSplitness:
    def test_unlink_is_split(self):
        assert len(load_fixture("unlink2").split_partition()) > 1

    def test_split_union_detected(self):
        d = load_fixture("trefoil_trefoil")
        assert len(d.split_partition()) == 2

    def test_connected_not_split(self):
        assert len(al.parse_pd(HOPF).split_partition()) == 1

    def test_kink_reduces(self):
        # positive kink on a round circle
        d = al.parse_pd("X[1,1,2,2]")
        assert d.reduce_bigons().ncrossings == 0

    def test_rm2_reduces(self):
        # a Reidemeister II bigon between two components: an unlink
        d = al.parse_pd("X[1,2,3,4], X[3,2,1,4]")
        r = d.reduce_bigons()
        assert r.ncrossings == 0
        assert r.ncomps == d.ncomps


class TestPlanarity:
    def test_corpus_planar(self):
        for d in corpus_diagrams():
            if d.ncrossings:
                assert is_planar(d), d.name

    def test_face_count(self):
        assert planar_face_count(al.parse_pd(HOPF)) == 4

    def test_nonplanar_rejected(self):
        # virtual-trefoil style PD code: 2 crossings, not realizable;
        # one component, built directly since parse_pd rejects it
        d = al.LinkDiagram([(1, 3, 2, 4), (2, 4, 3, 1)], (1, 1),
                           dict.fromkeys(range(1, 5), 0), 1)
        assert not is_planar(d)
        with pytest.raises(PDError, match="planar"):
            al.parse_pd("X[1,3,2,4], X[2,4,3,1]")

    def test_parse_fixture_rejects_nonplanar(self):
        with pytest.raises(PDError, match="planar"):
            al.parse_fixture("pd: X[1,3,2,4], X[2,4,3,1]\n")


def reference_fox_jacobian(d, c=None):
    """The Fox Jacobian cell by cell, as fox_jacobian's docstring states it.

    Cell (r, j) sums the Fox derivatives of x_c = x_o^eps x_a x_o^-eps,
    abelianized, over the arcs a, o, c of crossing r that are arc j:
    v, 1 - u, -1 for eps = +1 and 1/v, u/v - 1/v, -1 for eps = -1.
    """
    m = d.ncomps if c is None else 1
    arc_of_edge, arcs = wirtinger_arcs(d, c)
    one = LaurentPoly.one(m)

    def t(e, power=1):
        return LaurentPoly.var(m, 0 if c is not None else d.comp_of_edge[e],
                               power)

    rows = []
    for i, (a, b, cc, _) in enumerate(d.crossings):
        if c is not None and d.crossing_components(i) != (c, c):
            continue
        # a curl's over-strand may be one of its own under-edges
        if d.signs[i] > 0:
            derivatives = [(a, t(b)), (b, one - t(a)), (cc, -one)]
        else:
            derivatives = [(a, t(b, -1)), (b, t(b, -1) * t(a) - t(b, -1)),
                           (cc, -one)]
        row = []
        for j in range(len(arcs)):
            cell = LaurentPoly.zero(m)
            for e, derivative in derivatives:
                if arc_of_edge[e] == j:
                    cell = cell + derivative
            row.append(cell)
        rows.append(row)
    return rows, [d.comp_of_edge[e] for e in arcs]


def curled_closures(rng, count):
    """Seeded braid closures, each Markov-stabilized once: the last
    strand meets the braid at one crossing, a curl."""
    return [al.parse_pd(braid_closure_pd(
        word + [rng.choice([1, -1]) * n], n + 1))
        for word, n in random_braid_words(rng, count, strands=(2, 3, 4),
                                          length=(3, 9))]


class TestFoxJacobian:
    def test_row_identity_corpus(self):
        """Each row dotted with (t_comp(col) - 1) vanishes, and each row
        of a component's own Jacobian dotted with (t - 1)."""
        for d in corpus_diagrams():
            if d.ncrossings == 0:
                continue
            selfcrossed = {cu for cu, co in map(d.crossing_components,
                                                range(d.ncrossings))
                           if cu == co}
            for c in [None] + sorted(selfcrossed):
                rows, arc_comp = al.fox_jacobian(d, c)
                m = d.ncomps if c is None else 1
                for row in rows:
                    acc = LaurentPoly.zero(m)
                    for col, entry in enumerate(row):
                        t = LaurentPoly.var(m, 0 if c is not None
                                            else arc_comp[col])
                        acc = acc + entry * (t - LaurentPoly.one(m))
                    assert acc.is_zero(), (d.name, c)

    def test_entries_match_cell_by_cell_reference(self):
        """fox_jacobian(d) and every fox_jacobian(d, c) equal the Fox
        derivatives summed cell by cell, with the same exponent bounds,
        on the corpus, on seeded closures and on curled closures; the
        cases include rows whose columns coincide: a curl (the over-arc
        is an under-arc) and a component passing under once (the two
        under-arcs are one arc)."""
        cases = (corpus_diagrams()
                 + random_braid_closures(seeded(82), 40, strands=(2, 3, 4),
                                         length=(2, 10))
                 + curled_closures(seeded(83), 40))
        seen = set()
        for d in cases:
            for c in [None] + list(range(d.ncomps)):
                rows, arc_comp = al.fox_jacobian(d, c)
                ref_rows, ref_comp = reference_fox_jacobian(d, c)
                assert (rows, arc_comp) == (ref_rows, ref_comp), (d.name, c)
                assert [[x._bound for x in row] for row in rows] == \
                    [[x._bound for x in row] for row in ref_rows], (d.name, c)
                arc_of_edge, _ = wirtinger_arcs(d, c)
                for i, (a, b, cc, _) in enumerate(d.crossings):
                    if c is None or d.crossing_components(i) == (c, c):
                        g_a, g_o, g_c = (arc_of_edge[e] for e in (a, b, cc))
                        seen.add("curl" if g_o in (g_a, g_c) else
                                 "under once" if g_a == g_c else "plain")
        assert seen == {"curl", "under once", "plain"}

    def test_component_jacobian(self):
        # each trefoil of the split union alone: 3 x 3 in one variable
        d = load_fixture("trefoil_trefoil")
        for c in (0, 1):
            rows, arc_comp = al.fox_jacobian(d, c)
            assert len(rows) == 3 and len(rows[0]) == 3
            assert arc_comp == [c] * 3
            assert {x.nvars for row in rows for x in row} == {1}

    @pytest.mark.parametrize("pd, nfree, c", [
        (HOPF, 0, 0), (HOPF, 0, 1),        # crosses only the other one
        (TREFOIL, 1, 1),                    # a free loop
        # sigma1 sigma1^-1 closed: component 0 runs over 1, never under
        ("X[3,2,4,1], X[4,2,3,1]", 0, 0),
    ])
    def test_component_without_self_crossing_rejected(self, pd, nfree, c):
        """No crossing with itself: no relation, so c's presentation is
        empty, of rank 0 and order 1, the unknot's."""
        d = al.parse_pd(pd, nfree=nfree)
        assert all(d.crossing_components(i) != (c, c)
                   for i in range(d.ncrossings))
        rows, arc_comp = al.fox_jacobian(d, c)
        assert rows == []
        assert _rank_and_order(rows, arc_comp, 1)[:2] == \
            (0, LaurentPoly.one(1))

    def test_arc_count(self):
        d = al.parse_pd(TREFOIL)
        arc_of_edge, arcs = wirtinger_arcs(d)
        assert len(arcs) == 3
        assert set(arc_of_edge.values()) == {0, 1, 2}

    def test_jacobian_shape(self):
        d = al.parse_pd(TREFOIL)
        rows, arc_comp = al.fox_jacobian(d)
        assert len(rows) == 3 and len(rows[0]) == 3
        assert arc_comp == [0, 0, 0]


class TestStateKey:
    def test_relabeling_invariance(self):
        d1 = al.parse_pd(HOPF)
        d2 = al.parse_pd("X[2,4,3,1], X[4,2,1,3]")
        assert d1.state_key() == d2.state_key()

    def test_distinguishes(self):
        assert al.parse_pd(HOPF).state_key() != \
            al.parse_pd(TREFOIL).state_key()


# ---------------------------------------------------------------------------
# Reference moves: a union-find per class numbering, a rebuild with two
# ways of tracking components, two bigon move kinds and a sub-diagram per
# piece for planarity.  The moves above must build the same diagrams.
# The sub-diagram of a sublink is the reference for component
# polynomials (tests/test_invariants.py).

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
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def reference_rebuild(d, keep_idx, splices, restrict_to=None,
                      recompute_comps=False):
    uf = _UF()
    for e in d.comp_of_edge:
        uf.find(e)
    for x, y in splices:
        uf.union(x, y)
    kept = []
    for i in keep_idx:
        a, b, c, dd = d.crossings[i]
        kept.append(((uf.find(a), uf.find(b), uf.find(c), uf.find(dd)),
                     d.signs[i]))
    used = sorted({e for cr, _ in kept for e in cr})
    relabel = {e: k + 1 for k, e in enumerate(used)}
    crossings = [tuple(relabel[e] for e in cr) for cr, _ in kept]
    signs = [s for _, s in kept]
    if recompute_comps:
        comp_uf = _UF()
        for a, b, c, dd in crossings:
            comp_uf.union(a, c)
            comp_uf.union(b, dd)
        roots = sorted({comp_uf.find(e) for cr in crossings for e in cr})
        comp_of_edge = {e: roots.index(comp_uf.find(e))
                        for cr in crossings for e in cr}
        old_classes = {uf.find(e) for e in d.comp_of_edge}
        survivors = {uf.find(e) for e in used}
        nfree = d.nfree + len(old_classes - survivors)
        return LinkDiagram(crossings, signs, comp_of_edge,
                           len(roots) + nfree, nfree, d.name)
    old_comps = (sorted(restrict_to) if restrict_to is not None
                 else list(range(d.ncomps)))
    old_free = {c for c in old_comps if c >= d.ncomps - d.nfree}
    survivors = {d.comp_of_edge[e] for e in used}
    comp_with = [c for c in old_comps if c in survivors]
    comp_free = [c for c in old_comps if c not in survivors or c in old_free]
    order = {c: k for k, c in enumerate(comp_with)}
    comp_of_edge = {relabel[e]: order[d.comp_of_edge[e]] for e in used}
    return LinkDiagram(crossings, signs, comp_of_edge,
                       len(old_comps), len(comp_free), d.name)


def reference_delete_components(d, keep):
    keep_idx = []
    splices = []
    for i in range(d.ncrossings):
        a, b, c, dd = d.crossings[i]
        cu, co = d.crossing_components(i)
        if cu in keep and co in keep:
            keep_idx.append(i)
        elif cu in keep:
            splices.append((a, c))
        elif co in keep:
            splices.append((b, dd))
    return reference_rebuild(d, keep_idx, splices, restrict_to=keep)


def reference_smooth_crossing(d, i):
    a, b, c, dd = d.crossings[i]
    keep_idx = [k for k in range(d.ncrossings) if k != i]
    return reference_rebuild(d, keep_idx,
                             [(a, d.over_out_edge(i)), (d.over_in_edge(i), c)],
                             recompute_comps=True)


def reference_split_partition(d):
    uf = _UF()
    for c in range(d.ncomps):
        uf.find(c)
    for i in range(d.ncrossings):
        uf.union(*d.crossing_components(i))
    pieces = {}
    for c in range(d.ncomps):
        pieces.setdefault(uf.find(c), []).append(c)
    return sorted(tuple(sorted(p)) for p in pieces.values())


def reference_find_bigon_move(d):
    for i, (a, b, c, dd) in enumerate(d.crossings):
        if a == b or b == c or c == dd or dd == a:
            return ("rm1", i)
    by_edge = {}
    for i, cr in enumerate(d.crossings):
        for e in set(cr):
            by_edge.setdefault(e, []).append(i)
    # bigons by their first crossing, then by the smaller shared edge
    for e, locs in sorted(by_edge.items(), key=lambda x: (x[1][0], x[0])):
        if len(locs) != 2 or locs[0] == locs[1]:
            continue
        i, j = locs
        if d.signs[i] != -d.signs[j]:
            continue
        over_i = {d.crossings[i][1], d.crossings[i][3]}
        over_j = {d.crossings[j][1], d.crossings[j][3]}
        under_i = {d.crossings[i][0], d.crossings[i][2]}
        under_j = {d.crossings[j][0], d.crossings[j][2]}
        if e in over_i and e in over_j:
            for f in under_i & under_j:
                if f != e:
                    return ("rm2", i, j)
    return None


def reference_reduce_bigons(d):
    while True:
        move = reference_find_bigon_move(d)
        if move is None:
            return d
        if move[0] == "rm1":
            i = move[1]
            a, b, c, dd = d.crossings[i]
            keep = [k for k in range(d.ncrossings) if k != i]
            d = reference_rebuild(d, keep, [(a, c), (b, dd)])
        else:
            _, i, j = move
            keep = [k for k in range(d.ncrossings) if k not in (i, j)]
            splices = []
            for k in (i, j):
                a, b, c, dd = d.crossings[k]
                splices.extend([(a, c), (b, dd)])
            d = reference_rebuild(d, keep, splices)


def reference_is_planar(d):
    for piece in reference_split_partition(d):
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


def reference_wirtinger_arcs(d):
    uf = _UF()
    for e in d.comp_of_edge:
        uf.find(e)
    for _, b, _, dd in d.crossings:
        uf.union(b, dd)
    arcs = sorted({uf.find(e) for e in d.comp_of_edge})
    return {e: arcs.index(uf.find(e)) for e in d.comp_of_edge}, arcs


def shape(d):
    return d.crossings, d.signs, d.comp_of_edge, d.ncomps, d.nfree


class TestMovesMatchReference:
    @pytest.fixture(scope="class")
    def diagrams(self):
        return corpus_diagrams() + random_braid_closures(
            seeded(70), 60, strands=(2, 3, 4))

    def test_crossing_change_then_reduce(self, diagrams):
        for d in diagrams:
            assert shape(d.reduce_bigons()) == \
                shape(reference_reduce_bigons(d)), d.name
            for i in range(d.ncrossings):
                c = d.crossing_change(i)
                assert shape(c.reduce_bigons()) == \
                    shape(reference_reduce_bigons(c)), (d.name, i)

    def test_smoothing(self, diagrams):
        for d in diagrams:
            for i in range(d.ncrossings):
                s, r = d.smooth_crossing(i), reference_smooth_crossing(d, i)
                assert shape(s) == shape(r), (d.name, i)
                assert shape(s.reduce_bigons()) == \
                    shape(reference_reduce_bigons(r)), (d.name, i)

    def test_partition_planarity_and_arcs(self, diagrams):
        for d in diagrams:
            for e in [d] + [d.crossing_change(i).reduce_bigons()
                            for i in range(d.ncrossings)]:
                assert e.split_partition() == reference_split_partition(e)
                assert is_planar(e) and reference_is_planar(e)
                if e.ncrossings:
                    assert wirtinger_arcs(e) == reference_wirtinger_arcs(e)


# diagrams whose first crossing starts two bigons, as (PD code, {over-edge:
# the other crossing of its bigon}, the over-edge the tie rule takes)
TIE_CASES = [
    # sigma1 sigma1^-1 sigma1^-1 sigma1^-1 closed: crossing 0 has
    # over-edges b = 2 (a bigon with crossing 1) and d = 1 (a bigon
    # with crossing 3), and the smaller edge, 1, is taken
    ("X[5,2,6,1], X[6,2,7,3], X[3,7,4,8], X[8,4,5,1]", {2: 1, 1: 3}, 1),
    # its mirror-image word: b = 5 (crossing 3) is the smaller edge
    ("X[1,5,2,6], X[2,7,3,6], X[7,4,8,3], X[4,5,1,8]", {5: 3, 6: 1}, 5),
    # the first word with edge 1 renamed 9: CPython's
    # set((5, 2, 6, 9)) meets 9 first, but the rule takes 2
    ("X[5,2,6,9], X[6,2,7,3], X[3,7,4,8], X[8,4,5,9]", {2: 1, 9: 3}, 2),
]


def relabelled(d):
    """d with every edge label e renamed 3e + 7, which keeps their order."""
    return LinkDiagram([[3 * e + 7 for e in cr] for cr in d.crossings],
                       d.signs, {3 * e + 7: c
                                 for e, c in d.comp_of_edge.items()},
                       d.ncomps, d.nfree, d.name)


class TestBigonReductionMatchesReference:
    """The flat-list reduction against the rebuild-per-move reference."""

    def test_change_sets_then_reduce(self):
        rng = seeded(72)
        for d in random_braid_closures(rng, 24, strands=(2, 3, 4, 5)):
            n = d.ncrossings
            sets = [s for r in range(3) for s in combinations(range(n), r)]
            sets += [tuple(sorted(rng.sample(range(n), r)))
                     for r in (3, 4) for _ in range(12)]
            for changes in sets:
                c = d
                for i in changes:
                    c = c.crossing_change(i)
                assert shape(c.reduce_bigons()) == \
                    shape(reference_reduce_bigons(c)), (d.name, changes)

    @pytest.mark.parametrize("pd, over_edges, first", TIE_CASES)
    def test_two_bigons_at_the_first_crossing(self, pd, over_edges, first):
        d = al.parse_pd(pd)
        assert min(over_edges) == first
        reduced = {}
        for e, j in over_edges.items():
            keep = [k for k in range(d.ncrossings) if k not in (0, j)]
            splices = _strand_pairs([d.crossings[0], d.crossings[j]])
            reduced[e] = shape(reference_reduce_bigons(
                reference_rebuild(d, keep, splices)))
        one, other = reduced.values()
        assert one != other   # the tie decides the diagram
        assert shape(d.reduce_bigons()) == reduced[first] == \
            shape(reference_reduce_bigons(d))

    def test_labels_renumbered_once(self):
        """The moves read labels only by order, and a built diagram is
        renumbered 1..N once: relabelling a diagram's edges in order
        changes no reduction or smoothing of it."""
        cases = [al.parse_pd(pd) for pd, _, _ in TIE_CASES]
        cases += random_braid_closures(seeded(73), 24, strands=(2, 3, 4, 5))
        moved = 0
        for d in cases:
            for c in [d] + [d.crossing_change(i) for i in range(d.ncrossings)]:
                r, m = c.reduce_bigons(), relabelled(c).reduce_bigons()
                moved += r is not c
                assert shape(m) == shape(relabelled(c) if r is c else r), \
                    c.crossings
            for i in range(d.ncrossings):
                assert shape(relabelled(d).smooth_crossing(i)) == \
                    shape(d.smooth_crossing(i)), (d.name, i)
        assert moved >= 200

    def test_bigon_leaving_a_free_loop(self):
        # sigma1 sigma1^-1 sigma2^2 closed: component 0 runs over
        # component 1 in a cancelling bigon and nowhere else, so it
        # becomes a free loop and the Hopf pair is renumbered 0 and 1
        d = al.parse_pd(braid_closure_pd([1, -1, 2, 2], 3))
        assert (d.ncrossings, d.ncomps, d.nfree) == (4, 3, 0)
        assert d.crossing_components(0) == (1, 0)
        r = d.reduce_bigons()
        assert (r.ncrossings, r.ncomps, r.nfree) == (2, 3, 1)
        assert sorted(set(r.comp_of_edge.values())) == [0, 1]
        assert r.split_partition() == [(0, 1), (2,)]
        assert shape(r) == shape(reference_reduce_bigons(d))


class TestSplitPlanarity:
    def test_planar_piece_with_nonplanar_piece_rejected(self):
        # the trefoil (edges 1-6) beside the two-crossing non-planar code
        # on edges 7-10: each piece is checked by its own Euler count
        crossings = [(4, 2, 5, 1), (2, 6, 3, 5), (6, 4, 1, 3),
                     (7, 9, 8, 10), (8, 10, 9, 7)]
        comp_of_edge = {**dict.fromkeys(range(1, 7), 0),
                        **dict.fromkeys(range(7, 11), 1)}
        d = LinkDiagram(crossings, (1,) * 5, comp_of_edge, 2)
        assert not is_planar(d) and not reference_is_planar(d)
        with pytest.raises(PDError, match="planar"):
            al.parse_pd(", ".join("X[{},{},{},{}]".format(*c)
                                  for c in crossings))

    def test_planar_union_with_free_loops_accepted(self):
        d = al.parse_pd(TREFOIL + ", X[10,8,7,9], X[8,10,9,7]", nfree=2)
        assert d.ncomps == 5 and d.nfree == 2
        assert len(d.split_partition()) == 4
        assert is_planar(d) and reference_is_planar(d)


def reference_face_count(d):
    """Faces traced on a dict from each (crossing, slot) end to the other
    end of its edge, leaving each crossing by the next end in rotation."""
    darts = {}
    for i, cr in enumerate(d.crossings):
        for p, e in enumerate(cr):
            darts.setdefault(e, []).append((i, p))
    other = {}
    for x, y in darts.values():
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


NONPLANAR_CODES = [
    [(1, 3, 2, 4), (2, 4, 3, 1)],
    [(4, 2, 5, 1), (2, 6, 3, 5), (6, 4, 1, 3), (7, 9, 8, 10), (8, 10, 9, 7)],
]


def face_count_codes(rng):
    """Seeded closures, Markov-stabilised closures, the non-planar codes
    above, and each closure with one crossing's ends rotated by a
    transposition, which is often not planar."""
    codes = [list(d.crossings) for d in
             random_braid_closures(rng, 40, strands=(2, 3, 4), length=(2, 10))
             + curled_closures(rng, 40)]
    for cr in list(codes):
        k = rng.randrange(len(cr))
        i, j = rng.sample(range(4), 2)
        swapped = list(cr[k])
        swapped[i], swapped[j] = swapped[j], swapped[i]
        codes.append(cr[:k] + [tuple(swapped)] + cr[k + 1:])
    return codes + NONPLANAR_CODES


class TestFaceCountOnTheEdgeMap:
    def test_parse_counts_what_planar_face_count_counts(self):
        """The faces parse_pd counts on the orientation's edge map are
        planar_face_count's, and parse_pd accepts exactly the codes that
        is_planar accepts."""
        verdicts = []
        for cr in face_count_codes(seeded(91)):
            try:
                signs, comp_of_edge, ncomps, other = _orient(cr)
            except PDError:
                continue
            d = LinkDiagram(cr, signs, comp_of_edge, ncomps)
            assert _face_count(other) == planar_face_count(d) == \
                reference_face_count(d), cr
            try:
                parsed = al.parse_pd(serialize_pd(d))
            except PDError as exc:
                assert "not planar" in str(exc), cr
                parsed = None
            verdicts.append(is_planar(d))
            assert (parsed is not None) == is_planar(d) == \
                reference_is_planar(d), cr
        assert verdicts.count(True) >= 80 and verdicts.count(False) >= 20


# ---------------------------------------------------------------------------
# Reference orientation: in/out status per crossing slot, propagated along
# edges and over-strands to a fixpoint.  ``_orient`` must give the same
# signs and components, and reject the same codes.

def reference_orient(crossings):
    slots = {}  # edge -> list of (crossing, slot)
    for i, cr in enumerate(crossings):
        for s, e in enumerate(cr):
            slots.setdefault(e, []).append((i, s))
    for e, locs in slots.items():
        if len(locs) != 2:
            raise PDError(f"edge {e} appears {len(locs)} times, expected 2")

    comp_of_edge = _classes(slots, _strand_pairs(crossings))
    ncomps = len(set(comp_of_edge.values()))

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


def orientation_codes(rng):
    """Crossing lists to orient: the corpus and seeded braid closures,
    each closure again with one component changed to pass over the
    other components wherever it met them,
    random relabellings of all of those, and each code so far with one
    under-strand reversed."""
    diagrams = corpus_diagrams() + random_braid_closures(
        rng, 100, strands=(2, 3, 4))
    codes = [list(d.crossings) for d in diagrams if d.ncrossings]
    for d in diagrams[-100:]:
        for c in range(d.ncomps):
            e = d
            for i in range(d.ncrossings):
                under, over = d.crossing_components(i)
                if under == c != over:
                    e = e.crossing_change(i)
            codes.append(list(e.crossings))
    for cr in list(codes):
        labels = sorted({x for t in cr for x in t})
        relabel = dict(zip(labels, rng.sample(labels, len(labels))))
        codes.append(rng.sample([tuple(relabel[x] for x in t) for t in cr],
                                len(cr)))
    for cr in list(codes):
        k = rng.randrange(len(cr))
        a, b, c, d = cr[k]
        codes.append(cr[:k] + [(c, d, a, b)] + cr[k + 1:])
    return codes


def oriented_or_error(orient, crossings):
    try:
        signs, comp_of_edge, ncomps = orient(crossings)[:3]
    except PDError:
        return PDError
    return list(signs), comp_of_edge, ncomps


class TestOrientMatchesReference:
    def test_codes(self):
        codes = orientation_codes(seeded(80))
        outcomes = [oriented_or_error(_orient, cr) for cr in codes]
        for cr, got in zip(codes, outcomes):
            assert got == oriented_or_error(reference_orient, cr), cr
        rejected = outcomes.count(PDError)
        assert len(codes) >= 1000 and 0 < rejected < len(codes)
