"""Tour of the bundled fixtures: rank, Alexander polynomials, Conway.

Run from the repository root:

    python3 demos/invariants_tour.py

Walks every vendored .lnk fixture, computes the Alexander-module data
and prints one line per link, then zooms in on a few instructive cases.
"""

from pathlib import Path

import alexlink as al
from alexlink.invariants import (CONWAY_CROSSING_BUDGET, conway_polynomial,
                                 one_variable_alexander)
from alexlink.laurent import unit_normal_form

FIXDIR = Path(al.__file__).parent / "fixtures"


def fmt(p):
    return al.format_poly(unit_normal_form(p))


def main():
    diagrams = [al.parse_fixture(f.read_text(), name_hint=f.stem)
                for f in sorted(FIXDIR.glob("*.lnk"))]
    data = {d.name: al.alexander_data(d) for d in diagrams}

    print("=== corpus overview ===")
    print(f"{'link':24s} {'m':>2s} {'cr':>3s} {'beta':>4s}  delta")
    for d in diagrams:
        a = data[d.name]
        delta = "0" if a.delta.is_zero() else fmt(a.delta)
        print(f"{d.name:24s} {d.ncomps:2d} {d.ncrossings:3d} {a.beta:4d}  "
              f"{delta}")

    print()
    print("=== the torsion order never vanishes ===")
    for name in ("Unlink3", "Trefoil-sqcup-Trefoil"):
        a = data[name]
        print(f"{name}: beta={a.beta}, delta=0, delta_tor={fmt(a.delta_tor)}")
    print("split links have positive rank, so delta is 0 while the")
    print("torsion order still remembers the knotting of each component.")

    print()
    print("=== one-variable checks ===")
    for d in diagrams:
        if d.ncomps < 2 or d.ncrossings > CONWAY_CROSSING_BUDGET:
            continue
        diag = data[d.name].delta.eval_diagonal() * al.parse_poly("t-1", 1)
        single = one_variable_alexander(d)
        tag = "ok" if al.unit_equal(diag, single) else "MISMATCH"
        print(f"{d.name:24s} delta(t,..,t)*(t-1) == single-variable: {tag}")

    print()
    print("=== Conway polynomials ===")
    for name in ("Hopf", "Whitehead", "Trefoil"):
        d = next(x for x in diagrams if x.name == name)
        print(f"{name}: nabla coefficients by z-degree = "
              f"{conway_polynomial(d, data[name])}")
    wh = next(x for x in diagrams if x.name == "Whitehead")
    print(f"Sato-Levine invariant of the Whitehead link: {al.sato_levine(wh)}")


if __name__ == "__main__":
    main()
