"""Golden output: the fixture directory's records, byte for byte, and
the split search on seeded closures.

The fixture files under ``tests/golden`` were written by the CLI before
the Conway polynomial moved to the Fox route, from the repository root:

    alexlink invariants src/alexlink/fixtures
    alexlink obstruct src/alexlink/fixtures --search-depth 2 --mode any

``search_closures_depth4.jsonl`` was written before bigon reduction
moved to a flat crossing list.  It holds ``bounded_split_search(d, 4,
mode)`` for both modes on the first 80 closures with two or more
components among ``random_braid_words(seeded(71), 400, strands=(2, 3,
4, 5))`` and on their mirrors (every generator inverted), each line
with the PD code it searched.

``generated_invariants.jsonl`` and ``generated_obstruct_depth2_any.jsonl``
were written before the torsion order was computed block by block.  They
hold the same two CLI runs over a directory of the 100 diagrams in
``generated_diagrams.jsonl``, one ``<name>.lnk`` fixture each: 60
closures of ``random_braid_words(seeded(80), 60, strands=(2, 3, 4, 5),
length=(4, 12))``, then 20 split unions of two or three closures of
``random_braid_words(rng, k, strands=(2, 3), length=(3, 7))`` with ``rng
= seeded(81)``, each followed by its mirror; every fifth union and its
mirror carry one free loop.

A change made only for speed must reproduce them exactly.
"""

import io
import json
from pathlib import Path

import pytest

import alexlink as al
from alexlink.cli import main
from alexlink.search import bounded_split_search

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["invariants", "src/alexlink/fixtures"], "invariants_fixtures.jsonl"),
    (["obstruct", "src/alexlink/fixtures", "--search-depth", "2",
      "--mode", "any"], "obstruct_fixtures_depth2_any.jsonl"),
])
def test_cli_reproduces_golden_output(monkeypatch, argv, golden):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, out=out, err=err) == 0
    assert err.getvalue() == ""
    assert out.getvalue() == (GOLDEN / golden).read_text()


def test_cli_reproduces_golden_output_on_generated_diagrams(monkeypatch,
                                                           tmp_path):
    gen = tmp_path / "generated"
    gen.mkdir()
    lines = (GOLDEN / "generated_diagrams.jsonl").read_text().splitlines()
    assert len(lines) == 100
    for line in lines:
        case = json.loads(line)
        (gen / f"{case['name']}.lnk").write_text(
            f"name: {case['name']}\nfreeloops: {case['freeloops']}\n"
            f"pd: {case['pd']}\n")
    monkeypatch.chdir(tmp_path)
    for argv, golden in (
            (["invariants", "generated"], "generated_invariants.jsonl"),
            (["obstruct", "generated", "--search-depth", "2", "--mode",
              "any"], "generated_obstruct_depth2_any.jsonl")):
        out, err = io.StringIO(), io.StringIO()
        assert main(argv, out=out, err=err) == 0
        assert err.getvalue() == ""
        assert out.getvalue() == (GOLDEN / golden).read_text(), argv[0]


def test_search_reproduces_golden_results():
    lines = (GOLDEN / "search_closures_depth4.jsonl").read_text().splitlines()
    assert len(lines) == 320
    for line in lines:
        want = json.loads(line)
        r = bounded_split_search(al.parse_pd(want["pd"]), 4, want["mode"])
        got = {"pd": want["pd"], "mode": r.mode, "found": r.found,
               "sequence": list(r.sequence),
               "partition": (None if r.partition is None
                             else [list(p) for p in r.partition]),
               "depth": r.depth}
        assert json.dumps(got) == line
