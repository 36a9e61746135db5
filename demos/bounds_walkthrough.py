"""Walkthrough of the lower-bound obstructions on concrete links.

Run from the repository root:

    python3 demos/bounds_walkthrough.py

Shows how the rank bound, the norm tests and the parity refinement
combine on a handful of fixtures, then demonstrates the band-clasping
factorization and the forced-knot-complexity argument.
"""

from pathlib import Path

import alexlink as al
from alexlink.laurent import embed_univariate
from alexlink.laurent import unit_normal_form
from alexlink.obstructions import (band_clasping_check, build_report,
                                   forced_knot_complexity, parity_refine)

FIXDIR = Path(al.__file__).parent / "fixtures"


def load(name):
    f = FIXDIR / f"{name}.lnk"
    return al.parse_fixture(f.read_text(), name_hint=f.stem)


def fmt(p):
    return al.format_poly(unit_normal_form(p))


def show(name):
    d = load(name)
    r = build_report(d)
    print(f"--- {d.name} (m={r.m}, beta={r.beta}) ---")
    print(f"delta      = {'0' if r.delta.is_zero() else fmt(r.delta)}")
    for q, (bound, reasons) in r.bounds.items():
        print(f"{q:14s} >= {bound}")
        for rule in reasons:
            print(f"    because: {rule}")
    if r.inconclusive:
        print(f"inconclusive for: {', '.join(r.inconclusive)}")
    print()


def main():
    print("=== bounds in increasing subtlety ===\n")

    # the rank bound alone: Borromean rings have negligible delta, so
    # the norm rule cannot fire and the bound stays at m - 1 = 2
    show("L6a4")

    # the norm rule: delta carries t3^2 - t3 + 1 exactly once, which
    # can never pair off as f * conj(f), so unlinking in m - 1 = 2
    # changes is impossible; parity pushes the splitting bound to 4
    show("L9a54")

    # one-variable factors are excused for the weak splitting number
    # but not for unlinking: 2t2^2 - 3t2 + 2 blocks the plain norm
    # test, so u >= 2, while wsp >= 1 only
    show("L9a1")

    # open problems stay open: the report refuses to guess
    show("L9a30")

    print("=== parity refinement in isolation ===")
    print("a bound of 2 with odd total linking number lifts to",
          parity_refine(2, 1))
    print()

    print("=== band-clasping factorization ===")
    tref = al.parse_poly("t^2-t+1", 1)
    p = al.parse_poly(
        "(1-t1+t1^2)*(1-t2+t2^2)*(t1^-1-1+t2)*(t1-1+t2^-1)", 2)
    v = band_clasping_check(p, tref, tref)
    print(f"input delta  = {fmt(p)}")
    print(f"compatible   = {v.compatible}")
    print(f"band poly g  = {fmt(v.g)} (trivial clasping: "
          f"{v.trivial_clasping})")
    print()

    print("=== forced knot complexity ===")
    a = al.alexander_data(load("L9a54"))
    fc = forced_knot_complexity(a.delta, tref, var_index=2)
    print(f"t3^2 - t3 + 1 divides delta(L9a54) with multiplicity "
          f"{fc.multiplicity} (odd),")
    print(f"so a shortest splitting sequence leaves a knot on that "
          f"component with Alexander degree >= {fc.min_alexander_degree} "
          f"and >= {fc.min_crossings} crossings.")
    squared = embed_univariate(tref, 0, 2) ** 2
    try:
        forced_knot_complexity(squared, tref, var_index=0)
    except ValueError as exc:
        print(f"with even multiplicity nothing is forced: {exc}")


if __name__ == "__main__":
    main()
