"""Mine seeded braid closures for words that reach a fallback route.

``alexander_data`` has two routes that its certificates leave only on
some inputs, and ``factor_irreducible`` has one:

  * rank below the bound: ``matrix_rank`` returns less than its bound,
    so every minor of the bound's size is 0 and smaller ones give the
    rank;
  * minor_gcd: a block that is not square of corank 1, whose order is
    the gcd of its rank-sized minors (``gcd_many``);
  * factor: sympy's ``Poly.factor_list`` on a rest of ``delta`` that no
    certificate and no degree-one split settles.

This script counts the times each route is taken while it computes the
Alexander data of ``random_braid_words(seeded(11), COUNT, (3, 4, 5),
(6, 16))`` and factors each nonzero ``delta``, and prints the words
that reach each one, as the ``(word, strands)`` pairs pinned in
``tests/test_invariants.py`` and ``tests/test_factor.py``.  A factor
word is followed by the number of variables of each polynomial that
reached sympy (1: univariate).  It needs no network and takes a few
seconds.  Run it from the repository root:

    PYTHONPATH=src:tests python tests/mine_fallback_words.py [COUNT]

COUNT defaults to 3000; the first 8000 words hold three whose ``delta``
reaches sympy with a multivariate rest.  Its name does not start with
``test_``, so pytest does not collect it.
"""

import sys

import alexlink as al
from alexlink import factor, invariants

from conftest import braid_closure, random_braid_words, seeded

BELOW = "rank below the bound"
FACTOR = "factor"
# route -> (module, function, whether a call takes the route)
ROUTES = {BELOW: (invariants, "matrix_rank",
                  lambda args, rank: rank < args[1]),
          "minor_gcd": (invariants, "gcd_many", lambda args, _: True)}


def mine(count):
    """{route: [(word, strands, note), ...]} over the seeded words, in
    order; the note lists the variable counts of a factor word's rests
    that reached sympy.  Every function wrapped on the way is restored
    before it returns."""
    calls = dict.fromkeys(ROUTES, 0)
    rests = []

    def counting(route, real, taken):
        def wrapper(*args):
            result = real(*args)
            calls[route] += taken(args, result)
            return result
        return wrapper

    def recording(p):
        rests.append(p)
        return to_sympy(p)

    to_sympy = factor.to_sympy
    originals = [(module, name, getattr(module, name))
                 for module, name, _ in ROUTES.values()]
    try:
        for route, (module, name, taken) in ROUTES.items():
            setattr(module, name,
                    counting(route, getattr(module, name), taken))
        factor.to_sympy = recording
        found = {route: [] for route in [*ROUTES, FACTOR]}
        for word, n in random_braid_words(seeded(11), count,
                                          strands=(3, 4, 5), length=(6, 16)):
            before = dict(calls)
            delta = al.alexander_data(braid_closure(word, n)).delta
            for route in ROUTES:
                if calls[route] > before[route]:
                    found[route].append((word, n, ""))
            rests.clear()
            if not delta.is_zero():
                al.factor_irreducible(delta)
            if rests:
                note = [len(p.variables_used()) for p in rests]
                found[FACTOR].append((word, n, f"  # {note}"))
    finally:
        for module, name, real in originals:
            setattr(module, name, real)
        factor.to_sympy = to_sympy
    return found


def main(argv):
    count = int(argv[1]) if len(argv) > 1 else 3000
    for route, words in mine(count).items():
        print(f"{route}: {len(words)} words")
        for word, n, note in words:
            print(f"    ({word}, {n}),{note}")


if __name__ == "__main__":
    main(sys.argv)
