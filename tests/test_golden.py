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
