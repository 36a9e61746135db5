"""Tests of the benchmark's generators, references and tracing.

Run from the repository root with ``python -m pytest perfbench``.
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import alexlink as al  # noqa: E402
from alexlink import cli  # noqa: E402
from alexlink.diagram import is_planar  # noqa: E402

import gen  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FIXTURES = HERE.parent / "src" / "alexlink" / "fixtures"


def diagram(case):
    return al.parse_fixture(case.fixture())


def record(case, tmp_path, *argv):
    path = tmp_path / f"{case.name}.lnk"
    path.write_text(case.fixture())
    out = io.StringIO()
    assert cli.main([argv[0], str(path), *argv[1:]], out=out,
                    err=io.StringIO()) == 0
    return json.loads(out.getvalue())


def test_trefoil_closure():
    d = diagram(gen.braid_case("t", gen.torus(2, 3)))
    assert al.format_poly(al.alexander_data(d).delta) == "t^2 - t + 1"
    assert d.signs == (1, 1, 1)


def test_mirror_flips_every_sign():
    pd = gen.braid_closure_pd(gen.Braid((1, -2, 1, 1, 2), 3))
    d = al.parse_pd(gen.pd_text(pd))
    m = al.parse_pd(gen.pd_text(gen.mirror_pd(pd)))
    assert m.signs == tuple(-s for s in d.signs)
    assert is_planar(m)


@pytest.mark.parametrize("seed", [0, 1])
def test_generated_diagrams_are_planar_with_expected_components(seed):
    for w in workloads.all_workloads(FIXTURES).values():
        stream = gen.Stream(seed)
        cases = [w.warmup(stream)]
        for index in range(2):
            cases += w.round(stream, index)
        for case in cases:
            d = diagram(case)
            assert is_planar(d), case.name
            assert d.ncomps == case.ncomps, case.name


def test_streams_repeat_for_a_seed_and_never_repeat_a_diagram():
    w = workloads.SplitSearch()
    a, b = gen.Stream(5), gen.Stream(5)
    ra = [c.pd for i in range(3) for c in w.round(a, i)]
    rb = [c.pd for i in range(3) for c in w.round(b, i)]
    assert ra == rb
    assert len({tuple(pd) for pd in ra}) == len(ra)


def test_burau_matches_torus_closed_forms():
    for p, q in ((2, 3), (2, 7), (3, 4), (3, 5), (2, -5)):
        assert ref.unit_equal(ref.burau_alexander(gen.torus(p, q)),
                              ref.torus_knot_poly(p, q))
    # Hopf link: (t - 1) * delta(t, t) with delta = 1
    assert ref.unit_equal(ref.burau_alexander(gen.torus(2, 2)),
                          {(1,): 1, (0,): -1})


def test_parse_poly_reads_format_poly():
    p = al.parse_poly("3*t1^2*t2 - t1*t2^-1 + 2 - t2", 2)
    assert ref.parse_poly(al.format_poly(p), 2) == {
        (2, 1): 3, (1, -1): -1, (0, 0): 2, (0, 1): -1}


def _tamper_delta(rec, m, field="delta"):
    poly = ref.parse_poly(rec[field], m)
    e = max(poly)
    poly[e] += 1
    rec[field] = al.format_poly(al.LaurentPoly(m, poly))


def test_tampered_nonsplit_record_fails(tmp_path):
    b = gen.Braid((1, 2, -1, 2, 1, 2, 2, -1, 2), 3)
    case = gen.braid_case("nonsplit", b)
    assert case.ncomps == 2
    rec = record(case, tmp_path, "obstruct")
    e = ref.expect(case)
    assert ref.check(case, rec, e) == []
    _tamper_delta(rec, 2)
    assert ref.check(case, rec, e)


def test_tampered_split_record_fails(tmp_path):
    case = gen.split_case("split", [gen.torus(2, 3), gen.torus(2, 5)])
    rec = record(case, tmp_path, "obstruct")
    e = ref.expect(case)
    assert ref.check(case, rec, e) == []
    bad = dict(rec)
    _tamper_delta(bad, 2, "deltaTor")
    assert ref.check(case, bad, e)
    bad = dict(rec, beta=2)
    assert ref.check(case, bad, e)


def test_tampered_torus_search_fails(tmp_path):
    case = gen.braid_case("t26", gen.torus(2, 6), (2, 6))
    rec = record(case, tmp_path, "search", "--search-depth", "4",
                 "--mode", "any")
    e = ref.expect(case)
    assert ref.check(case, rec, e, 4) == []
    rec["search"] = dict(rec["search"], found=False, depth=4)
    assert ref.check(case, rec, e, 4)


def test_tampered_invariants_conway_fails(tmp_path):
    case = gen.braid_case("knot", gen.Braid((1, -2, 1, -2, 1, 1), 3))
    rec = record(case, tmp_path, "invariants")
    e = ref.expect(case)
    assert ref.check(case, rec, e) == []
    rec["conway"] = rec["conway"] + " + z^2"
    assert ref.check(case, rec, e)


def test_tracer_wraps_every_importer_and_restores(monkeypatch):
    originals = (al.diagram.fox_jacobian, al.invariants.fox_jacobian,
                 al.obstructions.factor_irreducible,
                 al.diagram.LinkDiagram.reduce_bigons)
    monkeypatch.delattr(al.search, "bounded_split_search")
    tracer = spans.Tracer()
    tracer.install(al)
    try:
        assert al.invariants.fox_jacobian is not originals[1]
        assert al.invariants.fox_jacobian is al.diagram.fox_jacobian
        assert al.obstructions.factor_irreducible is al.cli.factor_irreducible
        d = al.parse_pd("X[4,2,5,1], X[2,6,3,5], X[6,4,1,3]")
        al.invariants.alexander_data(d)
    finally:
        tracer.restore()
    assert (al.diagram.fox_jacobian, al.invariants.fox_jacobian,
            al.obstructions.factor_irreducible,
            al.diagram.LinkDiagram.reduce_bigons) == originals
    metrics, absent = tracer.metrics()
    assert tracer.calls["diagram.fox_jacobian"] == 1
    assert metrics["diagram.jacobian_cells"][0] == 9
    assert tracer.calls["invariants.matrix_rank"] == 1
    assert "search.bounded_split_search" in absent
    assert metrics["search.search_s"][0] == 0.0


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_keeps_ten_samples_beyond():
    times = list(range(1, 101))
    assert run.tail(times, 90) == (90, 90)
    assert run.tail(times[:60], 90) == (48, 80)
