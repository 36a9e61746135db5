"""Reference answers for benchmark records, computed without alexlink.

Polynomials are plain dicts {exponent tuple: coefficient}.  The
references come from routes the CLI does not take:

* closed forms for torus knots T(p, q) and for the torus links T(2, 2k);
* the reduced Burau matrix of a braid: det(I - psi(b)) * (1 - t) / (1 - t^n)
  is the one-variable Alexander polynomial of the closure, which for an
  m-component link equals (t - 1) * delta(t, ..., t) (Torres) when m >= 2;
* for split unions, beta = sum of the pieces' beta + pieces - 1, delta = 0
  and delta_tor = the product of the pieces' polynomials, each in its
  own variable;
* linking numbers counted on the braid, and the parity and size limits
  every lower bound obeys;
* for the fixtures, the Conway skein route (the only route taken from
  alexlink, computed after timing) and the ``note_u`` / ``note_sp``
  values every lower bound must stay under.

``check`` returns a list of problems; an empty list means the record
agrees with its reference.
"""

from __future__ import annotations

import re

import gen


# ---------------------------------------------------------------------------
# Laurent polynomials as dicts

def padd(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e)
    return out


def const(n, c=1):
    return {(0,) * n: c} if c else {}


def normal(p):
    """Representative under multiplication by units +-t^k, as a sorted tuple."""
    if not p:
        return ()
    n = len(next(iter(p)))
    mins = [min(e[i] for e in p) for i in range(n)]
    q = {tuple(e[i] - mins[i] for i in range(n)): c for e, c in p.items()}
    lead = min(q)
    s = 1 if q[lead] > 0 else -1
    return tuple(sorted((e, s * c) for e, c in q.items()))


def unit_equal(a, b):
    return normal(a) == normal(b)


def div1(a, b):
    """Exact quotient a / b of one-variable polynomials (ordinary ones)."""
    rest = {e[0]: c for e, c in a.items()}
    bd = {e[0]: c for e, c in b.items()}
    top_b = max(bd)
    quot = {}
    while rest:
        top = max(rest)
        c, r = divmod(rest[top], bd[top_b])
        if r:
            raise ArithmeticError("inexact division")
        k = top - top_b
        quot[(k,)] = c
        for e, cb in bd.items():
            v = rest.get(e + k, 0) - c * cb
            if v:
                rest[e + k] = v
            else:
                rest.pop(e + k)
    return quot


def diagonal(p):
    """delta(t, ..., t): the one-variable specialization."""
    out = {}
    for e, c in p.items():
        k = (sum(e),)
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k)
    return out


def embed(p, i, n):
    """One-variable p placed in variable i of n."""
    return {tuple(e[0] if j == i else 0 for j in range(n)): c
            for e, c in p.items()}


_TERM = re.compile(r"^(?:(\d+)\*)?(.*)$")


def parse_poly(text, n):
    """Parse ``alexlink.laurent.format_poly`` output into a dict."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.replace(" - ", " + -").split(" + ")
    out = {}
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("-")
        if tok.isdigit():
            coeff, body = int(tok), ""
        else:
            m = _TERM.match(tok)
            coeff = int(m.group(1)) if m.group(1) else 1
            body = m.group(2)
        e = [0] * n
        for f in filter(None, body.split("*")):
            name, _, k = f.partition("^")
            idx = 0 if name == "t" else int(name[1:]) - 1
            e[idx] += int(k) if k else 1
        out = padd(out, {tuple(e): sign * coeff})
    return out


def parse_conway(text):
    """Conway polynomial text ('z^3 + 2*z') as {degree: coefficient}."""
    return {e[0]: c for e, c in parse_poly(text.replace("z", "t"), 1).items()}


def conway_to_alexander(nabla):
    """Delta(t) ~ nabla(t^1/2 - t^-1/2), cleared by t^(top/2)."""
    if not nabla:
        return {}
    top = max(nabla)
    t_minus_1 = {(1,): 1, (0,): -1}
    out = {}
    for k, c in nabla.items():
        term = {((top - k) // 2,): c}
        for _ in range(k):
            term = pmul(term, t_minus_1)
        out = padd(out, term)
    return out


# ---------------------------------------------------------------------------
# independent routes

def _burau_gen(g, n):
    """Reduced Burau matrix of sigma_|g|^sign on n strands (entries dicts)."""
    i = abs(g)
    size = n - 1
    m = [[const(1, int(r == c)) for c in range(size)] for r in range(size)]
    t, ti = {(1,): 1}, {(-1,): 1}
    neg = lambda p: {e: -c for e, c in p.items()}  # noqa: E731
    r = i - 1  # row of the generator
    if g > 0:
        m[r][r] = neg(t)
        if r > 0:
            m[r][r - 1] = t
        if r + 1 < size:
            m[r][r + 1] = const(1)
    else:
        m[r][r] = neg(ti)
        if r > 0:
            m[r][r - 1] = const(1)
        if r + 1 < size:
            m[r][r + 1] = ti
    return m


def _matmul(a, b):
    size = len(a)
    return [[_dot(a[r], [b[k][c] for k in range(size)]) for c in range(size)]
            for r in range(size)]


def _dot(row, col):
    out = {}
    for x, y in zip(row, col):
        if x and y:
            out = padd(out, pmul(x, y))
    return out


def _det(m):
    if len(m) == 1:
        return m[0][0]
    out = {}
    for c, x in enumerate(m[0]):
        if not x:
            continue
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        out = padd(out, pmul(x, _det(minor)), 1 if c % 2 == 0 else -1)
    return out


def burau_alexander(b):
    """One-variable Alexander polynomial of the closure of braid ``b``."""
    if b.n == 1:
        return const(1)
    size = b.n - 1
    acc = [[const(1, int(r == c)) for c in range(size)] for r in range(size)]
    for g in b.word:
        acc = _matmul(acc, _burau_gen(g, b.n))
    i_minus = [[padd(const(1, int(r == c)), acc[r][c], -1)
                for c in range(size)] for r in range(size)]
    det = _det(i_minus)
    if not det:
        return {}
    mins = min(e[0] for e in det)
    det = {(e[0] - mins,): c for e, c in det.items()}
    # det * (1 - t) / (1 - t^n) = det / (1 + t + ... + t^(n-1))
    return div1(det, {(k,): 1 for k in range(b.n)})


def torus_knot_poly(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) for coprime p, q."""
    p, q = abs(p), abs(q)
    num = pmul({(p * q,): 1, (0,): -1}, {(1,): 1, (0,): -1})
    den = pmul({(p,): 1, (0,): -1}, {(q,): 1, (0,): -1})
    return div1(num, den)


def torus_link_delta(k):
    """delta of T(2, 2k): ((t1 t2)^k - 1) / (t1 t2 - 1)."""
    return {(j, j): 1 for j in range(abs(k))}


def linking_numbers(b):
    """{(i, j): lk} for components i > j of the closure of ``b``."""
    comps = gen.components(b)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for p in comp:
            comp_of[p] = ci
    at = list(range(b.n))
    twice = {}
    for g in b.word:
        i = abs(g) - 1
        ca, cb = comp_of[at[i]], comp_of[at[i + 1]]
        if ca != cb:
            key = (max(ca, cb), min(ca, cb))
            twice[key] = twice.get(key, 0) + (1 if g > 0 else -1)
        at[i], at[i + 1] = at[i + 1], at[i]
    return {(i, j): twice.get((i, j), 0) // 2
            for i in range(len(comps)) for j in range(i)}


def component_polys(b):
    return [burau_alexander(gen.sub_braid(b, comp))
            for comp in gen.components(b)]


# ---------------------------------------------------------------------------
# expected values per case

class Expect:
    """What a record must show; None where the route gives no answer."""

    def __init__(self, m):
        self.m = m
        self.beta = None
        self.delta = None        # full multivariable delta, when known
        self.delta_tor = None
        self.one_var = None      # one-variable Alexander polynomial
        self.component_polys = None
        self.linking = None
        self.notes = {}
        self.torus_link_k = None


def expect(case, fixture_conway=None):
    """Reference for a case.  ``fixture_conway`` maps fixture name to the
    Conway-route one-variable polynomial, computed outside timing."""
    e = Expect(case.ncomps)
    if case.kind == "split":
        e.beta = len(case.pieces) - 1
        e.delta = {}
        polys = [burau_alexander(b) for b in case.pieces]
        tor = const(e.m)
        for i, p in enumerate(polys):
            tor = pmul(tor, embed(p, i, e.m))
        e.delta_tor = tor
        e.component_polys = polys
        e.linking = {(i, j): 0 for i in range(e.m) for j in range(i)}
    elif case.kind == "braid":
        b = case.braid
        e.one_var = burau_alexander(b)
        e.beta = 0 if e.one_var else None
        e.component_polys = component_polys(b)
        e.linking = linking_numbers(b)
        if case.torus is not None:
            p, q = case.torus
            if p == 2 and q % 2 == 0:
                e.delta = torus_link_delta(q // 2)
                e.torus_link_k = abs(q) // 2
            elif e.m == 1:
                e.delta = torus_knot_poly(p, q)
        if e.m == 1 and e.delta is None:
            e.delta = e.one_var
        if e.delta is not None:
            e.delta_tor = e.delta
    else:
        e.one_var = fixture_conway[case.name]
        e.beta = 0 if e.one_var else None
        e.notes = case.fixture_notes
    return e


# ---------------------------------------------------------------------------
# record checks

def _check_polys(e, rec, problems):
    m = e.m
    delta = parse_poly(rec["delta"], m)
    tor = parse_poly(rec["deltaTor"], m)
    if e.beta is not None and rec["beta"] != e.beta:
        problems.append(f"beta {rec['beta']} != {e.beta}")
    if e.delta is not None and not unit_equal(delta, e.delta):
        problems.append("delta disagrees with the closed form")
    if e.delta_tor is not None and not unit_equal(tor, e.delta_tor):
        problems.append("deltaTor disagrees with the reference")
    if e.beta == 0 and not unit_equal(tor, delta):
        problems.append("deltaTor != delta at beta 0")
    if e.one_var is not None:
        lhs = diagonal(delta) if m == 1 else \
            pmul(diagonal(delta), {(1,): 1, (0,): -1})
        if not unit_equal(lhs, e.one_var):
            problems.append("delta fails Torres against the second route")
    if e.component_polys is not None:
        got = [parse_poly(p, 1) for p in rec["componentPolys"]]
        if len(got) != m or not all(
                unit_equal(g, w) for g, w in zip(got, e.component_polys)):
            problems.append("componentPolys disagree with the reference")


def _check_bounds(e, rec, problems):
    m = e.m
    rank = m - 1 - (e.beta or 0)
    bounds = {q: rec["bounds"][q]["lower"]
              for q in ("unlinking", "splitting", "weakSplitting")}
    for q, low in bounds.items():
        if not rank <= low <= m + 1:
            problems.append(f"{q} bound {low} outside [{rank}, {m + 1}]")
    if e.beta:
        # delta = 0: only the rank bound can fire
        for q in ("unlinking", "weakSplitting"):
            if bounds[q] != rank:
                problems.append(f"{q} bound {bounds[q]} != rank {rank}")
    if e.linking is not None:
        par = sum(e.linking.values()) % 2
        if rec["parityConstraint"] != par:
            problems.append("parity constraint disagrees with linking")
        if bounds["splitting"] % 2 != par:
            problems.append("splitting bound has the wrong parity")
    for key, q in (("note_u", "unlinking"), ("note_sp", "splitting")):
        if key in e.notes and bounds[q] > int(e.notes[key]):
            problems.append(f"{q} bound {bounds[q]} above {key}")


def _check_search(e, rec, depth, problems):
    s = rec["search"]
    if s["depth"] > depth or (not s["found"] and s["depth"] != depth):
        problems.append(f"search depth {s['depth']} inconsistent")
    if s["found"]:
        if len(s["sequence"]) != s["depth"]:
            problems.append("sequence length != depth")
        if sorted(c for part in s["partition"] for c in part) != \
                list(range(e.m)) or any(len(p) != 1 for p in s["partition"]):
            problems.append("found partition is not a complete split")
        if e.linking is not None and \
                s["depth"] < sum(abs(v) for v in e.linking.values()):
            problems.append("split found below the linking-number bound")
    if e.torus_link_k is not None:
        k = e.torus_link_k
        want = (True, k) if k <= depth else (False, depth)
        if (s["found"], s["depth"]) != want:
            problems.append(f"T(2,{2 * k}) search gave "
                            f"{(s['found'], s['depth'])}, want {want}")
    for q, iv in rec["intervals"].items():
        if iv["upper"] is not None and iv["upper"] < iv["lower"]:
            problems.append(f"{q} interval upside down")


def check(case, rec, e, search_depth=None):
    """Problems with ``rec``, one CLI record for ``case``, against ``e``."""
    problems = []
    if rec.get("m") != e.m:
        return [f"m {rec.get('m')} != {e.m}"]
    kind = rec["kind"]
    if kind in ("invariants", "obstruct"):
        _check_polys(e, rec, problems)
    if kind == "obstruct":
        _check_bounds(e, rec, problems)
    if kind == "invariants":
        if e.linking is not None:
            want = {f"{i + 1},{j + 1}": v for (i, j), v in e.linking.items()}
            if rec["linkingNumbers"] != want:
                problems.append("linkingNumbers disagree with the braid")
        if "conway" in rec and e.one_var is not None and not unit_equal(
                conway_to_alexander(parse_conway(rec["conway"])), e.one_var):
            problems.append("conway disagrees with the Burau route")
    if kind == "search":
        _check_search(e, rec, search_depth, problems)
    return problems
