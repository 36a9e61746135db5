"""Command-line front end.

Subcommands:

  invariants <path...>          one machine-readable record per link
  obstruct <path...> [--table] [--search-depth k] [--mode inter|any]
  factor <poly> --vars m        factorization and norm verdicts, for at
                                most factor.MAX_FACTOR_VARS variables,
                                degree spans summing to at most
                                laurent.FACTOR_DEGREE_BUDGET and powers
                                within laurent.COEFFICIENT_BIT_BUDGET bits
  search <path...> --search-depth k [--mode inter|any]

Paths are fixture files or directories of fixture files.  The per-link
subcommands share one loop: each file gives a record or one error line,
and the records are written after the loop, as line-delimited JSON with
sorted keys and a fixed schemaVersion, or as obstruct's table.  Exit
status is 0 when every input was processed, 2 when an input file is
missing or a directory has no .lnk file (the loop stops there, with the
records before it written) or the arguments do not parse (argparse's
usage error), 1 on any other error.  The parser is built once, at import.

A polynomial that starts with '-' goes after ``--``, as in
``factor -- "-t^2+1"``; before it, argparse reads the text as an option
and stops with a usage error, which says so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagram import PDError, parse_fixture
from .factor import (MAX_FACTOR_VARS, factor_irreducible,
                     is_negligible_factor, norm_verdict)
from .invariants import (alexander_data, component_polynomials,
                         conway_polynomial)
from .laurent import (DegreeSpanExceeded, LaurentPoly, PolyParseError,
                      format_poly, format_terms, parse_poly)
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


def _negligible_record(fact):
    """The unit, the powers of 1 - t_i and the rest, read off fact.

    The rest is the product of the other factors, in unit normal form as
    each of them is; the input is negligible when the rest is 1.
    """
    nvars = fact.unit.nvars
    exponents, core = [0] * nvars, LaurentPoly.one(nvars)
    for f, mult in fact.factors:
        if is_negligible_factor(f):
            (i,) = f.variables_used()
            exponents[i] += mult
        else:
            core = core * f ** mult
    (monomial, sign), = fact.unit.terms.items()
    return {"sign": sign, "monomial": list(monomial),
            "oneMinusTExponents": exponents, "core": format_poly(core),
            "isNegligible": core.is_one()}


def _iter_fixture_files(paths):
    """Each path; a directory as its .lnk files, or itself if it has none."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(x for x in p.iterdir()
                              if x.is_file() and x.suffix == ".lnk") or [p]
        else:
            yield p


def _header(kind, d, path):
    return {"schemaVersion": SCHEMA_VERSION, "kind": kind, "name": d.name,
            "file": str(path), "m": d.ncomps}


def _orders(data, component_polys):
    """The order fields of alexander data or of an obstruction report."""
    return {"beta": data.beta, "delta": format_poly(data.delta),
            "deltaTor": format_poly(data.delta_tor),
            "componentPolys": [format_poly(p) for p in component_polys]}


def _search_fields(report, result):
    """The search and intervals fields; ``result`` None (over the search's
    crossing budget) makes the search and every upper bound null."""
    if result is None:
        return {"search": None,
                "intervals": {q: {"lower": lo, "upper": None, "exact": False}
                              for q, (lo, _) in report.bounds.items()}}
    gap = certify_gap(report, result)
    return {
        "search": {
            "found": result.found,
            "sequence": list(result.sequence),
            "partition": [list(p) for p in result.partition]
            if result.partition else None,
            "depth": result.depth,
            "mode": result.mode,
        },
        "intervals": {q: {"lower": lo, "upper": up, "exact": gap.exact[q]}
                      for q, (lo, up) in gap.intervals.items()},
    }


def _invariants_record(d, path, args):
    alex = alexander_data(d)
    return {
        **_header("invariants", d, path),
        **_orders(alex, component_polynomials(d, alex)),
        "crossings": d.ncrossings,
        "linkingNumbers": {
            f"{i + 1},{j + 1}": row[j]
            for i, row in enumerate(d.linking_matrix()) for j in range(i)},
        "conway": _conway_str(conway_polynomial(d, alex)),
    }


def _obstruct_record(d, path, args):
    report = build_report(d)
    rec = {
        **_header("obstruct", d, path),
        **_orders(report, report.component_polys),
        "bounds": {q: {"lower": b, "reasons": rs}
                   for q, (b, rs) in report.bounds.items()},
        "parityConstraint": report.parity_constraint,
        "normVerdicts": {q: _norm_verdict_record(v)
                         for q, v in report.norm_verdicts.items()},
        "inconclusive": report.inconclusive,
        "annotations": report.annotations,
    }
    if args.search_depth is not None:
        try:
            result = bounded_split_search(d, args.search_depth,
                                          mode=args.mode)
        except SearchBudgetExceeded:
            # main has checked the depth, so the diagram is over the
            # search's crossing budget: only the upper bounds are lost
            result = None
        rec.update(_search_fields(report, result))
    return rec


def _search_record(d, path, args):
    # the search checks its crossing budget before the report is built
    result = bounded_split_search(d, args.search_depth, mode=args.mode)
    return {**_header("search", d, path),
            **_search_fields(build_report(d), result)}


def _emit(record, out):
    out.write(json.dumps(record, sort_keys=True) + "\n")


def _table(records, out):
    rows = [["name", "m", "beta", "u>=", "sp>=", "wsp>=", "flags"]]
    for r in records:
        rows.append([
            r["name"], str(r["m"]), str(r["beta"]),
            *(str(r["bounds"][q]["lower"])
              for q in ("unlinking", "splitting", "weakSplitting")),
            "inconclusive:" + ",".join(r["inconclusive"])
            if r["inconclusive"] else "",
        ])
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
                  + "\n")


class _Parser(argparse.ArgumentParser):
    """A subcommand parser whose missing-``poly`` error says where a
    polynomial with a leading '-' goes: argparse took it for an option."""

    def error(self, message):
        if message.endswith("required: poly"):
            message += ("; a polynomial that starts with '-' must follow "
                        "--, as in: alexlink factor -- \"-t^2+1\"")
        super().error(message)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="alexlink",
        description="Alexander-module invariants and splitting obstructions "
                    "for links given by PD-code fixtures.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_inv = sub.add_parser("invariants",
                           help="compute beta, Alexander polynomials and "
                                "component data per fixture")
    p_inv.add_argument("paths", nargs="+")
    p_inv.set_defaults(record=_invariants_record)

    p_obs = sub.add_parser("obstruct",
                           help="evaluate lower-bound obstructions per fixture")
    p_obs.add_argument("paths", nargs="+")
    p_obs.add_argument("--table", action="store_true",
                       help="aligned text table instead of JSON records")
    p_obs.add_argument("--search-depth", type=int, default=None)
    p_obs.add_argument("--mode", choices=["inter", "any"], default="inter")
    p_obs.set_defaults(record=_obstruct_record)

    p_fac = sub.add_parser("factor",
                           help="factor a Laurent polynomial and run the "
                                "norm tests")
    p_fac.add_argument("poly", help="the polynomial; put -- before one "
                                     "that starts with '-'")
    p_fac.add_argument("--vars", type=int, default=1)

    p_sea = sub.add_parser("search",
                           help="bounded search for diagrammatic splitting "
                                "sequences")
    p_sea.add_argument("paths", nargs="+")
    p_sea.add_argument("--search-depth", type=int, required=True)
    p_sea.add_argument("--mode", choices=["inter", "any"], default="inter")
    p_sea.set_defaults(record=_search_record)
    return parser


_PARSER = _build_parser()


def _factor(text, nvars, out, err):
    try:
        p = parse_poly(text, nvars)
    except (DegreeSpanExceeded, PolyParseError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    if p.is_zero():
        err.write("error: cannot factor the zero polynomial\n")
        return 1
    fact = factor_irreducible(p)
    _emit({
        "schemaVersion": SCHEMA_VERSION,
        "kind": "factor",
        "input": text,
        "vars": nvars,
        "unit": format_poly(fact.unit),
        "factors": [{"factor": format_poly(f), "multiplicity": mult}
                    for f, mult in fact.factors],
        "negligible": _negligible_record(fact),
        "isNormUpToNegligible": _norm_verdict_record(norm_verdict(fact)),
        "isNormModuloUnivariate": _norm_verdict_record(
            norm_verdict(fact, skip_univariate=True)),
    }, out)
    return 0


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    args = _PARSER.parse_args(argv)

    # checked once, before any file is read or sympy is imported
    depth = getattr(args, "search_depth", None)
    if depth is not None and not 0 <= depth <= MAX_SEARCH_DEPTH:
        reason = ("is negative" if depth < 0
                  else f"exceeds the budget of {MAX_SEARCH_DEPTH}")
        err.write(f"error: --search-depth {depth} {reason}\n")
        return 1
    nvars = getattr(args, "vars", 1)
    if not 1 <= nvars <= MAX_FACTOR_VARS:
        reason = ("need at least one variable" if nvars < 1
                  else f"exceeds the budget of {MAX_FACTOR_VARS} variables")
        err.write(f"error: --vars {nvars}: {reason}\n")
        return 1
    if args.command == "factor":
        return _factor(args.poly, nvars, out, err)

    # one record per fixture file; a missing input ends the loop
    status, records = 0, []
    for path in _iter_fixture_files(args.paths):
        if path.is_dir() or not path.exists():
            err.write(f"error: no .lnk fixture in {path}\n" if path.is_dir()
                      else f"error: no such file: {path}\n")
            status = 2
            break
        try:
            d = parse_fixture(path.read_text(), name_hint=path.stem)
            records.append(args.record(d, path, args))
        except (PDError, ValueError) as exc:
            err.write(f"error: {path}: {exc}\n")
            status = 1
    if getattr(args, "table", False):
        _table(records, out)
    else:
        for r in records:
            _emit(r, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
