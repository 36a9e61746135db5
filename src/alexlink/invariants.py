"""Alexander-module invariants of link diagrams.

From the Fox Jacobian of a diagram we compute:

  * beta, the rank of the first homology of the universal abelian cover
    over the quotient field of the Laurent ring;
  * the multivariable Alexander polynomial (zero exactly when beta > 0);
  * the torsion Alexander polynomial, the order of the torsion
    submodule, which is never zero.

The Jacobian is first reduced by unit pivots.  An entry ±t^k is a unit
of the Laurent ring, so its column can be cleared by exact row
operations and its row and column dropped: the matrix is equivalent to
(±t^k) ⊕ M', and every elementary ideal of the original is the ideal of
one size smaller of M'.  A Wirtinger row has such an entry, the -1 of
its outgoing under-arc, unless that arc is also the incoming one (a
component with a single under-crossing), so a diagram's n x n Jacobian
usually shrinks to a few rows.  Pivots are taken in Markowitz order,
least fill first.

After k pivots the rank is k plus the rank of M', computed by exact
fraction-free (Bareiss) elimination over the polynomial ring.  The
torsion order is the gcd of the rank-sized minors, that is of the
(rank - k)-minors of M', with the gcd short-circuited at 1 and
determinants computed by sparse cofactor expansion with memoization.
When beta = 0 the rank is ngen - 1, and these corank-1 minors generate
(Delta) for a knot and Delta times the augmentation ideal for m >= 2
(Torres, Crowell-Fox); the t_i - 1 are coprime, so their gcd is Delta.

Crossing-free components contribute through the split-union rules: each
one raises beta by 1, kills the multivariable polynomial (for links with
more than one component) and leaves the torsion polynomial unchanged.

The module also evaluates the Conway polynomial by the skein relation on
descending diagrams, and from it the one-variable Alexander polynomial
and the Sato-Levine invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .diagram import PDError, fox_jacobian
from .laurent import LaurentPoly, divide_exact, unit_normal_form

CONWAY_CROSSING_BUDGET = 16


# ---------------------------------------------------------------------------
# exact linear algebra over the Laurent ring

def reduce_unit_pivots(rows):
    """Eliminate unit pivots; return (M', k) after k pivots.

    A pivot is an entry ±t^e.  Its row, multiplied by ∓t^-e, clears the
    rest of its column by exact row operations; then the pivot's row
    and column are dropped.  Each step takes the unit entry of least
    Markowitz cost (row nonzeros - 1) * (column nonzeros - 1), ties
    broken by row and then column index.  M' keeps every elementary
    ideal one size down per pivot, so rank(M) = k + rank(M') and the
    j-minors of M have the gcd of the (j - k)-minors of M'.
    """
    m = [list(r) for r in rows]
    live_rows = list(range(len(m)))
    live_cols = list(range(len(m[0]))) if m else []
    k = 0
    while True:
        nonzero = [(r, c) for r in live_rows for c in live_cols
                   if not m[r][c].is_zero()]
        row_nz = dict.fromkeys(live_rows, 0)
        col_nz = dict.fromkeys(live_cols, 0)
        for r, c in nonzero:
            row_nz[r] += 1
            col_nz[c] += 1
        pivots = [((row_nz[r] - 1) * (col_nz[c] - 1), r, c)
                  for r, c in nonzero if m[r][c].is_unit()]
        if not pivots:
            break
        _, p, q = min(pivots)
        (exps, sign), = m[p][q].terms.items()
        inverse = tuple(-e for e in exps)
        pivot_row = {c: m[p][c].shift(inverse, sign) for c in live_cols
                     if c != q and not m[p][c].is_zero()}
        for r in live_rows:
            f = m[r][q]
            if r != p and not f.is_zero():
                for c, x in pivot_row.items():
                    m[r][c] = m[r][c] - f * x
        live_rows.remove(p)
        live_cols.remove(q)
        k += 1
    return [[m[r][c] for c in live_cols] for r in live_rows], k


def matrix_rank(rows):
    """Rank over the quotient field, by fraction-free Bareiss elimination."""
    if not rows:
        return 0
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    prev_pivot = None
    for col in range(nc):
        pivot_row = None
        for r in range(rank, nr):
            if not m[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                num = m[r][c] * pivot - m[r][col] * m[rank][c]
                m[r][c] = num if prev_pivot is None else \
                    divide_exact(num, prev_pivot)
            m[r][col] = LaurentPoly.zero(pivot.nvars)
        prev_pivot = pivot
        rank += 1
        if rank == nr:
            break
    return rank


def _determinant(rows, row_idx, col_idx, memo):
    """Determinant of the submatrix rows[row_idx][col_idx], sparsely."""
    key = (row_idx, col_idx)
    if key in memo:
        return memo[key]
    n = len(row_idx)
    nvars = rows[0][0].nvars
    if n == 0:
        result = LaurentPoly.one(nvars)
        memo[key] = result
        return result
    # expand along the row with fewest nonzero entries
    best_r, best_nz = None, None
    for r in row_idx:
        nz = sum(1 for c in col_idx if not rows[r][c].is_zero())
        if best_nz is None or nz < best_nz:
            best_r, best_nz = r, nz
        if nz == 0:
            break
    if best_nz == 0:
        result = LaurentPoly.zero(nvars)
        memo[key] = result
        return result
    rest_rows = tuple(r for r in row_idx if r != best_r)
    result = LaurentPoly.zero(nvars)
    sign = 1 if row_idx.index(best_r) % 2 == 0 else -1
    for k, c in enumerate(col_idx):
        entry = rows[best_r][c]
        if entry.is_zero():
            continue
        sub = _determinant(rows, rest_rows,
                           tuple(x for x in col_idx if x != c), memo)
        term = entry * sub
        result = result + (term if (k % 2 == 0) == (sign > 0) else -term)
    memo[key] = result
    return result


def minor_gcd(rows, size, nvars):
    """GCD of all size x size minors of a matrix over nvars variables.

    Returns 1 for size 0, whatever the matrix, and the zero polynomial
    when every minor vanishes.  Short circuits once the running gcd
    reaches 1.
    """
    if size == 0:
        return LaurentPoly.one(nvars)
    if size > len(rows) or size > len(rows[0]):
        return LaurentPoly.zero(nvars)
    memo = {}
    acc = None
    for ri in combinations(range(len(rows)), size):
        for ci in combinations(range(len(rows[0])), size):
            det = _determinant(rows, ri, ci, memo)
            if det.is_zero():
                continue
            acc = unit_normal_form(det) if acc is None else \
                _gcd2(acc, det)
            if acc.is_one():
                return acc
    return acc if acc is not None else LaurentPoly.zero(nvars)


def _gcd2(a, b):
    from .factor import gcd
    return gcd(a, b)


# ---------------------------------------------------------------------------
# Alexander data

@dataclass(frozen=True)
class AlexanderData:
    """beta, the Alexander polynomial and its torsion counterpart."""
    m: int
    beta: int
    delta: LaurentPoly
    delta_tor: LaurentPoly


def alexander_data(d):
    """Compute AlexanderData for a link diagram (free loops included)."""
    m = d.ncomps
    if d.ncrossings == 0:
        # a disjoint union of round circles
        beta = m - 1
        delta = LaurentPoly.one(m) if m == 1 else LaurentPoly.zero(m)
        return AlexanderData(m=m, beta=beta, delta=delta,
                             delta_tor=LaurentPoly.one(m))
    rows, arc_component = fox_jacobian(d)
    reduced, k = reduce_unit_pivots(rows)
    rank = matrix_rank(reduced)
    beta = (len(arc_component) - k - rank - 1) + d.nfree
    # beta == 0 forces k + rank == ngen - 1: these are the corank-1 minors
    delta_tor = minor_gcd(reduced, rank, m)
    if delta_tor.is_zero():
        raise PDError("rank/minor inconsistency in torsion order")
    delta_tor = unit_normal_form(delta_tor)
    delta = delta_tor if beta == 0 else LaurentPoly.zero(m)
    return AlexanderData(m=m, beta=beta, delta=delta, delta_tor=delta_tor)


# ---------------------------------------------------------------------------
# Conway polynomial via the skein relation on descending diagrams

class ConwayBudgetExceeded(ValueError):
    pass


def _entering_map(d):
    """edge -> (crossing, 'under'|'over') at the crossing the edge enters."""
    entering = {}
    for i in range(d.ncrossings):
        a, _, _, _ = d.crossings[i]
        entering[a] = (i, "under")
        entering[d.over_in_edge(i)] = (i, "over")
    return entering


def _first_violation(d):
    """First crossing met on its under-strand before its over-strand.

    Walks the components in order, each from its smallest edge.  A
    diagram with no violation is descending, hence an unlink.
    """
    entering = _entering_map(d)
    comp_edges = {}
    for e, c in d.comp_of_edge.items():
        comp_edges.setdefault(c, []).append(e)
    visited = set()
    for c in sorted(comp_edges):
        start = min(comp_edges[c])
        e = start
        while True:
            if e not in entering:
                break  # edge never enters a crossing: lone loop, done
            i, role = entering[e]
            if i not in visited:
                if role == "under":
                    return i
                visited.add(i)
            if role == "under":
                e = d.crossings[i][2]
            else:
                e = d.over_out_edge(i)
            if e == start:
                break
    return None


def conway_polynomial(d, _memo=None):
    """The Conway polynomial as a dict {z-degree: coefficient}.

    Skein recursion: at the first crossing violating descending order,
    the diagram is rewritten as the crossing-switched diagram plus
    sign * z times the oriented smoothing.  Descending diagrams are
    unlinks.  Bigon reduction keeps the recursion small.
    """
    if d.ncrossings > CONWAY_CROSSING_BUDGET:
        raise ConwayBudgetExceeded(
            f"{d.ncrossings} crossings exceed the skein budget "
            f"of {CONWAY_CROSSING_BUDGET}")
    if _memo is None:
        _memo = {}
    d = d.reduce_bigons()
    key = d.state_key()
    if key in _memo:
        return _memo[key]
    if len(d.split_partition()) > 1:
        result = {}
    elif d.ncrossings == 0:
        result = {0: 1} if d.ncomps == 1 else {}
    else:
        v = _first_violation(d)
        if v is None:
            result = {0: 1} if d.ncomps == 1 else {}
        else:
            sign = d.signs[v]
            switched = conway_polynomial(d.crossing_change(v), _memo)
            smoothed = conway_polynomial(d.smooth_crossing(v), _memo)
            result = dict(switched)
            for k, c in smoothed.items():
                new = result.get(k + 1, 0) + sign * c
                if new:
                    result[k + 1] = new
                else:
                    result.pop(k + 1, None)
    _memo[key] = result
    return result


def sato_levine(d):
    """Minus the z^3 coefficient of the Conway polynomial.

    Defined for 2-component links with linking number zero.
    """
    if d.ncomps != 2:
        raise PDError("Sato-Levine invariant needs exactly 2 components")
    if d.linking_number(0, 1) != 0:
        raise PDError("Sato-Levine invariant needs linking number 0")
    return -conway_polynomial(d).get(3, 0)


def one_variable_alexander(d):
    """One-variable Alexander polynomial from the Conway polynomial.

    Substitutes z = t^(1/2) - t^(-1/2); since all z-degrees share the
    parity of m-1, clearing by a half-integral monomial lands back in
    the Laurent ring.  Returned in unit normal form (zero stays zero).
    """
    nabla = conway_polynomial(d)
    if not nabla:
        return LaurentPoly.zero(1)
    top = max(nabla)
    t = LaurentPoly.var(1, 0)
    one = LaurentPoly.one(1)
    total = LaurentPoly.zero(1)
    for k, c in nabla.items():
        if (top - k) % 2 != 0:
            raise PDError("Conway degrees of mixed parity")
        # z^k * t^(top/2) = t^((top-k)/2) * (t-1)^k
        total = total + c * LaurentPoly.var(1, 0, (top - k) // 2) \
            * ((t - one) ** k)
    return unit_normal_form(total)


def component_polynomials(d):
    """One-variable Alexander polynomial of each component on its own.

    Component i is isolated with delete_components and fed through the
    Conway route.  Returns a list of one-variable polynomials in the
    link's component order.
    """
    polys = []
    for c in range(d.ncomps):
        sub = d.delete_components({c}).reduce_bigons()
        polys.append(one_variable_alexander(sub))
    return polys


def embed_univariate(p, var_index, m):
    """Place a one-variable polynomial into variable var_index of m."""
    img = [0] * m
    img[var_index] = 1
    return p.evaluate([tuple(img)], m)
