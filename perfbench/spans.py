"""Per-module spans for the traced run, recorded from outside ``src/``.

Every public function of the layer modules (and the diagram moves, which
are ``LinkDiagram`` methods) is wrapped, and the wrapper is installed in
every alexlink module that holds the same function object, so a call
through an imported name (``fox_jacobian`` in ``invariants``,
``divide_exact`` in ``factor``...) is seen too.  ``restore`` puts the
originals back.

A span's self time is its duration minus the time of the spans called
directly under it; its inclusive time is counted for the outermost call
of a name only, so recursion (the Conway skein) is not counted twice.
Spans are aggregated in memory as they close.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import ref

LAYERS = ("diagram", "laurent", "invariants", "factor", "obstructions",
          "search", "cli")
MOVES = ("crossing_change", "smooth_crossing", "delete_components",
         "reduce_bigons")
SEARCH = "search.bounded_split_search"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.active = defaultdict(int)
        self.stack = []
        self.jacobian_cells = 0
        self.search_states = 0
        self.search_distinct = 0
        self.factor_inputs = set()
        self.patched = []
        self.names = set()

    # -- hooks on particular spans -------------------------------------

    def _after(self, name, args, result):
        if name == "diagram.fox_jacobian":
            rows = result[0]
            self.jacobian_cells += len(rows) * len(rows[0])
        elif name == "factor.factor_irreducible":
            if args and not args[0].is_zero():
                # unit normal form, computed without calling alexlink
                self.factor_inputs.add(ref.normal(args[0].terms))
        elif self.active[SEARCH]:
            if name == "diagram.reduce_bigons":
                self.search_states += 1
            elif name == "diagram.split_partition":
                self.search_distinct += 1

    def wrap(self, name, fn):
        stack, calls, incl, self_s, active = (
            self.stack, self.calls, self.incl, self.self_s, self.active)
        after = self._after
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if not active[name]:
                    incl[name] += dt
                if stack:
                    stack[-1][0] += dt
            after(name, args, result)
            return result

        span.__wrapped__ = fn
        return span

    # -- installation ---------------------------------------------------

    def install(self, package):
        """Wrap the layers of ``package`` (the imported ``alexlink``)."""
        modules = [package] + [getattr(package, m) for m in LAYERS]
        originals = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    originals[id(value)] = self.wrap(name, value)
                    self.names.add(name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    self._patch(mod, attr, originals[id(value)])
        cls = package.diagram.LinkDiagram
        for attr in MOVES + ("split_partition",):
            if attr in vars(cls):
                self._patch(cls, attr, self.wrap(f"diagram.{attr}",
                                                 vars(cls)[attr]))
                self.names.add(f"diagram.{attr}")

    def _patch(self, owner, attr, new):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, old in reversed(self.patched):
            setattr(owner, attr, old)
        self.patched.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, and the span names they needed but missed."""
        absent = set()

        def need(*names):
            missing = [n for n in names if n not in self.names]
            absent.update(missing)
            return not missing

        def incl(name):
            return self.incl[name] if need(name) else 0.0

        def calls(name):
            return self.calls[name] if need(name) else 0

        moves = [f"diagram.{m}" for m in MOVES]
        need(*moves)
        obstruction_spans = [n for n in self.names
                             if n.startswith("obstructions.")]
        if not obstruction_spans:
            absent.add("obstructions.*")
        states = self.search_states if need(SEARCH, "diagram.reduce_bigons") \
            else 0
        distinct = self.search_distinct if need(
            SEARCH, "diagram.split_partition") else 0
        factor_calls = calls("factor.factor_irreducible")
        out = {
            "invariants.rank_s": (incl("invariants.matrix_rank"), "s"),
            "invariants.minors_s": (
                self.self_s["invariants.minor_gcd"]
                if need("invariants.minor_gcd") else 0.0, "s"),
            "invariants.minor_gcd_calls": (calls("invariants.minor_gcd"),
                                           "count"),
            "factor.gcd_s": (incl("factor.gcd"), "s"),
            "factor.gcd_calls": (calls("factor.gcd"), "count"),
            "laurent.divide_exact_calls": (calls("laurent.divide_exact"),
                                           "count"),
            "laurent.divide_exact_s": (incl("laurent.divide_exact"), "s"),
            "factor.factor_s": (incl("factor.factor_irreducible"), "s"),
            "factor.factor_calls": (factor_calls, "count"),
            "factor.distinct_inputs_ratio": (
                len(self.factor_inputs) / factor_calls if factor_calls
                else 0.0, "ratio"),
            "obstructions.self_s": (
                sum(self.self_s[n] for n in obstruction_spans), "s"),
            "invariants.conway_s": (incl("invariants.conway_polynomial"), "s"),
            "invariants.skein_nodes": (calls("invariants.conway_polynomial"),
                                       "count"),
            "invariants.component_polys_s": (
                incl("invariants.component_polynomials"), "s"),
            "invariants.alexander_s": (incl("invariants.alexander_data"), "s"),
            "search.search_s": (incl(SEARCH), "s"),
            "search.states": (states, "count"),
            "search.distinct_states": (distinct, "count"),
            "search.dedup_ratio": (distinct / states if states else 0.0,
                                   "ratio"),
            "diagram.moves": (sum(self.calls[n] for n in moves), "count"),
            "diagram.moves_s": (sum(self.self_s[n] for n in moves), "s"),
            "diagram.parse_s": (incl("diagram.parse_fixture"), "s"),
            "diagram.fox_jacobian_s": (incl("diagram.fox_jacobian"), "s"),
            "diagram.jacobian_cells": (
                self.jacobian_cells if need("diagram.fox_jacobian") else 0,
                "count"),
            "cli.self_s": (self.self_s["cli.main"] if need("cli.main")
                           else 0.0, "s"),
        }
        return out, sorted(absent)
