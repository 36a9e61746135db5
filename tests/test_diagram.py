"""PD parsing, orientation inference, diagram moves and the Fox Jacobian."""

import pytest

import alexlink as al
from alexlink.diagram import (PDError, is_planar, planar_face_count,
                              wirtinger_arcs)
from alexlink.laurent import LaurentPoly

from conftest import corpus_diagrams, load_fixture

HOPF = "X[4,2,1,3], X[2,4,3,1]"
TREFOIL = "X[4,2,5,1], X[2,6,3,5], X[6,4,1,3]"


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
            d2 = al.parse_fixture(al.serialize_fixture(d), name_hint=d.name)
            assert d2.signs == d.signs
            assert d2.ncomps == d.ncomps
            assert d2.notes == d.notes

    def test_fixture_component_mismatch(self):
        with pytest.raises(PDError):
            al.parse_fixture(f"name: bad\ncomponents: 3\npd: {HOPF}\n")

    def test_fixture_unknown_key(self):
        with pytest.raises(PDError):
            al.parse_fixture(f"name: bad\nbogus: 1\npd: {HOPF}\n")


class TestOrientationInference:
    def test_negative_crossings(self):
        # mirror Hopf link: both crossings negative, linking number -1
        d = al.parse_pd("X[1,3,2,4], X[4,2,3,1]")
        assert list(d.signs) == [-1, -1]
        assert d.linking_number(0, 1) == -1

    def test_braid_signs_match(self):
        import sys
        sys.path.insert(0, "/root/notes/tools")
        # signs are already validated against construction in fixtures;
        # spot-check a mixed word diagram here
        d = load_fixture("hopf_big")
        assert sorted(d.signs) == [-1, 1, 1, 1]


class TestLinkingNumbers:
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
        s = d.delete_components({0})
        assert s.ncomps == 1
        assert s.ncrossings == 0 or s.reduce_bigons().ncrossings == 0

    def test_free_loop_carried(self):
        d = load_fixture("trefoil_unknot")
        knot = d.delete_components({0})
        assert knot.ncomps == 1 and knot.ncrossings == 3
        loop = d.delete_components({1})
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


class TestFoxJacobian:
    def test_row_identity_corpus(self):
        """Each row dotted with (t_comp(col) - 1) vanishes."""
        for d in corpus_diagrams():
            if d.ncrossings == 0:
                continue
            rows, arc_comp = al.fox_jacobian(d)
            m = d.ncomps
            for row in rows:
                acc = LaurentPoly.zero(m)
                for col, entry in enumerate(row):
                    t = LaurentPoly.var(m, arc_comp[col])
                    acc = acc + entry * (t - LaurentPoly.one(m))
                assert acc.is_zero(), d.name

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
