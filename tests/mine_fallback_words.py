"""Mine seeded braid closures for words that reach a fallback route.

``alexander_data`` has three routes that its certificates leave only
on some inputs:

  * rank below the bound: ``matrix_rank`` returns less than its bound,
    so every minor of the bound's size is 0 and smaller ones give the
    rank;
  * minor_gcd: a block that is not square of corank 1;
  * gcd: sympy's gcd in ``factor.gcd_many``, where the running gcd of
    the minors does not divide the next one.

This script counts the times each route is taken while it computes the
Alexander data of ``random_braid_words(seeded(11), COUNT, (3, 4, 5),
(6, 16))``, and prints the words that reach each one, as the
``(word, strands)`` pairs pinned in ``tests/test_invariants.py``.  It
needs no network and takes a few seconds.  Run it from the repository
root:

    PYTHONPATH=src:tests python tests/mine_fallback_words.py [COUNT]

COUNT defaults to 3000.  Its name does not start with ``test_``, so
pytest does not collect it.
"""

import sys

import alexlink as al
from alexlink import factor, invariants

from conftest import braid_closure, random_braid_words, seeded

BELOW = "rank below the bound"
# route -> (module, function, whether a call takes the route)
ROUTES = {BELOW: (invariants, "matrix_rank",
                  lambda args, rank: rank < args[1]),
          "minor_gcd": (invariants, "minor_gcd", lambda args, _: True),
          "gcd": (factor, "gcd", lambda args, _: True)}


def mine(count):
    """{route: [(word, strands), ...]} over the seeded words, in order."""
    calls = dict.fromkeys(ROUTES, 0)

    def counting(route, real, taken):
        def wrapper(*args):
            result = real(*args)
            calls[route] += taken(args, result)
            return result
        return wrapper

    for route, (module, name, taken) in ROUTES.items():
        setattr(module, name, counting(route, getattr(module, name), taken))
    found = {route: [] for route in ROUTES}
    for word, n in random_braid_words(seeded(11), count, strands=(3, 4, 5),
                                      length=(6, 16)):
        before = dict(calls)
        al.alexander_data(braid_closure(word, n))
        for route in ROUTES:
            if calls[route] > before[route]:
                found[route].append((word, n))
    return found


def main(argv):
    count = int(argv[1]) if len(argv) > 1 else 3000
    for route, words in mine(count).items():
        print(f"{route}: {len(words)} words")
        for word, n in words:
            print(f"    ({word}, {n}),")


if __name__ == "__main__":
    main(sys.argv)
