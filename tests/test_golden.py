"""Golden output: the fixture directory's records, byte for byte.

The files under ``tests/golden`` were written by the CLI before the
Conway polynomial moved to the Fox route, from the repository root:

    alexlink invariants src/alexlink/fixtures
    alexlink obstruct src/alexlink/fixtures --search-depth 2 --mode any

A change made only for speed must reproduce them exactly.
"""

import io
from pathlib import Path

import pytest

from alexlink.cli import main

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
