"""Command-line front end.

Subcommands:

  invariants <path...>          one machine-readable record per link
  obstruct <path...> [--table] [--search-depth k] [--mode inter|any]
  factor <poly> --vars m        factorization and norm verdicts, for
                                degree spans summing to at most
                                laurent.FACTOR_DEGREE_BUDGET and
                                powers within
                                laurent.COEFFICIENT_BIT_BUDGET bits
  search <path...> --search-depth k [--mode inter|any]

Paths are fixture files or directories of fixture files.  Structured
output is line-delimited JSON, one self-describing record per link, with
a fixed schemaVersion; keys are sorted so output is deterministic
byte-for-byte.  Exit status is 0 when every input was processed, 2 when
an input file is missing, 1 on any other error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagram import PDError, parse_fixture
from .factor import factor_irreducible, norm_verdict
from .invariants import (CONWAY_CROSSING_BUDGET, alexander_data,
                         component_polynomials, conway_polynomial)
from .laurent import (DegreeSpanExceeded, PolyParseError, format_poly,
                      format_terms, negligible_decompose, parse_poly)
from .obstructions import build_report
from .search import (MAX_SEARCH_DEPTH, SearchBudgetExceeded,
                     bounded_split_search, certify_gap)

SCHEMA_VERSION = 1


def _conway_str(nabla):
    return format_terms(
        [(nabla[k], "" if k == 0 else "z" if k == 1 else f"z^{k}")
         for k in sorted(nabla, reverse=True)])


def _norm_verdict_record(v):
    if v is None:
        return None
    return {
        "isNorm": v.is_norm,
        "witness": format_poly(v.witness) if v.witness is not None else None,
        "blockingFactors": [format_poly(b) for b in v.blocking_factors],
    }


def _iter_fixture_files(paths):
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(x for x in p.iterdir()
                              if x.is_file() and x.suffix == ".lnk")
        else:
            yield p


def _load(path):
    return parse_fixture(path.read_text(), name_hint=path.stem)


def _invariants_record(d, path):
    alex = alexander_data(d)
    rec = {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "invariants",
        "name": d.name,
        "file": str(path),
        "m": d.ncomps,
        "crossings": d.ncrossings,
        "beta": alex.beta,
        "delta": format_poly(alex.delta),
        "deltaTor": format_poly(alex.delta_tor),
        "componentPolys": [format_poly(p)
                           for p in component_polynomials(d, alex)],
        "linkingNumbers": {
            f"{i + 1},{j + 1}": d.linking_number(i, j)
            for i in range(d.ncomps) for j in range(i)},
    }
    if d.ncrossings <= CONWAY_CROSSING_BUDGET:
        rec["conway"] = _conway_str(conway_polynomial(d, alex))
    return rec


def _obstruct_record(d, path, search_depth=None, mode="inter"):
    report = build_report(d)
    rec = {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "obstruct",
        "name": d.name,
        "file": str(path),
        "m": report.m,
        "beta": report.beta,
        "delta": format_poly(report.delta),
        "deltaTor": format_poly(report.delta_tor),
        "componentPolys": [format_poly(p) for p in report.component_polys],
        "bounds": {q: {"lower": b, "reasons": rs}
                   for q, (b, rs) in report.bounds.items()},
        "parityConstraint": report.parity_constraint,
        "normVerdicts": {q: _norm_verdict_record(v)
                         for q, v in report.norm_verdicts.items()},
        "inconclusive": report.inconclusive,
        "annotations": report.annotations,
    }
    if search_depth is not None:
        try:
            result = bounded_split_search(d, search_depth, mode=mode)
        except SearchBudgetExceeded:
            # main has checked the depth, so the diagram is over the
            # search's crossing budget: only the upper bounds are lost
            result = None
        rec["search"] = None if result is None else _search_fields(result)
        rec["intervals"] = _intervals(report, result)
    return rec


def _intervals(report, result):
    """{quantity: {lower, upper, exact}} from a report and a search.

    Without a search (``result`` None) every upper bound is null.
    """
    if result is None:
        return {q: {"lower": lo, "upper": None, "exact": False}
                for q, (lo, _) in report.bounds.items()}
    gap = certify_gap(report, result)
    return {q: {"lower": lo, "upper": up, "exact": gap.exact[q]}
            for q, (lo, up) in gap.intervals.items()}


def _search_fields(result):
    return {
        "found": result.found,
        "sequence": list(result.sequence),
        "partition": [list(p) for p in result.partition]
        if result.partition else None,
        "depth": result.depth,
        "mode": result.mode,
    }


def _emit(record, out):
    out.write(json.dumps(record, sort_keys=True) + "\n")


def _table(records, out):
    cols = ["name", "m", "beta", "u>=", "sp>=", "wsp>=", "flags"]
    rows = []
    for r in records:
        flags = []
        if r["inconclusive"]:
            flags.append("inconclusive:" + ",".join(r["inconclusive"]))
        rows.append([
            r["name"], str(r["m"]), str(r["beta"]),
            str(r["bounds"]["unlinking"]["lower"]),
            str(r["bounds"]["splitting"]["lower"]),
            str(r["bounds"]["weakSplitting"]["lower"]),
            " ".join(flags),
        ])
    widths = [max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
              for i, c in enumerate(cols)]
    out.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()
              + "\n")
    for row in rows:
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
                  + "\n")


def _run_over_fixtures(args, make_record, out, err):
    status = 0
    records = []
    for path in _iter_fixture_files(args.paths):
        if not path.exists():
            err.write(f"error: no such file: {path}\n")
            return 2, records
        try:
            d = _load(path)
            records.append(make_record(d, path))
        except (PDError, ValueError) as exc:
            err.write(f"error: {path}: {exc}\n")
            status = 1
    return status, records


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = argparse.ArgumentParser(
        prog="alexlink",
        description="Alexander-module invariants and splitting obstructions "
                    "for links given by PD-code fixtures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants",
                           help="compute beta, Alexander polynomials and "
                                "component data per fixture")
    p_inv.add_argument("paths", nargs="+")

    p_obs = sub.add_parser("obstruct",
                           help="evaluate lower-bound obstructions per fixture")
    p_obs.add_argument("paths", nargs="+")
    p_obs.add_argument("--table", action="store_true",
                       help="aligned text table instead of JSON records")
    p_obs.add_argument("--search-depth", type=int, default=None)
    p_obs.add_argument("--mode", choices=["inter", "any"], default="inter")

    p_fac = sub.add_parser("factor",
                           help="factor a Laurent polynomial and run the "
                                "norm tests")
    p_fac.add_argument("poly")
    p_fac.add_argument("--vars", type=int, default=1)

    p_sea = sub.add_parser("search",
                           help="bounded search for diagrammatic splitting "
                                "sequences")
    p_sea.add_argument("paths", nargs="+")
    p_sea.add_argument("--search-depth", type=int, required=True)
    p_sea.add_argument("--mode", choices=["inter", "any"], default="inter")

    args = parser.parse_args(argv)

    # checked once, before any file is read
    depth = getattr(args, "search_depth", None)
    if depth is not None and not 0 <= depth <= MAX_SEARCH_DEPTH:
        reason = ("is negative" if depth < 0
                  else f"exceeds the budget of {MAX_SEARCH_DEPTH}")
        err.write(f"error: --search-depth {depth} {reason}\n")
        return 1
    if getattr(args, "vars", 1) < 1:
        err.write(f"error: --vars {args.vars}: need at least one variable\n")
        return 1

    if args.command == "invariants":
        status, records = _run_over_fixtures(args, _invariants_record,
                                             out, err)
        for r in records:
            _emit(r, out)
        return status

    if args.command == "obstruct":
        def make(d, path):
            return _obstruct_record(d, path,
                                    search_depth=args.search_depth,
                                    mode=args.mode)
        status, records = _run_over_fixtures(args, make, out, err)
        if args.table:
            _table(records, out)
        else:
            for r in records:
                _emit(r, out)
        return status

    if args.command == "factor":
        try:
            p = parse_poly(args.poly, args.vars)
        except (DegreeSpanExceeded, PolyParseError) as exc:
            err.write(f"error: {exc}\n")
            return 1
        if p.is_zero():
            err.write("error: cannot factor the zero polynomial\n")
            return 1
        fact = factor_irreducible(p)
        dec = negligible_decompose(p)
        rec = {
            "schemaVersion": SCHEMA_VERSION,
            "kind": "factor",
            "input": args.poly,
            "vars": args.vars,
            "unit": format_poly(fact.unit),
            "factors": [{"factor": format_poly(f), "multiplicity": mult}
                        for f, mult in fact.factors],
            "negligible": {
                "sign": dec.sign,
                "monomial": list(dec.monomial),
                "oneMinusTExponents": list(dec.one_minus_t_exponents),
                "core": format_poly(dec.core),
                "isNegligible": dec.is_negligible,
            },
            "isNormUpToNegligible": _norm_verdict_record(norm_verdict(fact)),
            "isNormModuloUnivariate": _norm_verdict_record(
                norm_verdict(fact, skip_univariate=True)),
        }
        _emit(rec, out)
        return 0

    if args.command == "search":
        def make(d, path):
            report = build_report(d)
            result = bounded_split_search(d, args.search_depth,
                                          mode=args.mode)
            return {
                "schemaVersion": SCHEMA_VERSION,
                "kind": "search",
                "name": d.name,
                "file": str(path),
                "m": d.ncomps,
                "search": _search_fields(result),
                "intervals": _intervals(report, result),
            }
        status, records = _run_over_fixtures(args, make, out, err)
        for r in records:
            _emit(r, out)
        return status

    return 1


if __name__ == "__main__":
    sys.exit(main())
