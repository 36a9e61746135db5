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
least fill first.  The elimination works on LaurentPoly's packed keys
and exponent bounds, not on polynomial objects, and builds polynomials
only for the entries of what is left.

After k pivots the rank is k plus the rank of M', and the torsion order
is the gcd of the rank-sized minors, that is of the (rank - k)-minors of
M'.  Both are taken block by block: rows and columns of M' joined by
nonzero entries form a block (one per split piece of the diagram, or
finer), all-zero rows and columns belong to none, and the rank of M' is
the sum of the blocks' ranks r_i while the gcd of its minors is the
product of the gcds of each block's r_i-minors.

The fundamental formula makes w_j = t_c(j) - 1, c(j) column j's
component, a nonzero kernel vector of M', and the Wirtinger relations
give a left kernel vector of units, which the pivots leave on the kept
rows; both restrict to each block.  So a block's rank is at most
min(rows, columns - 1); it is the size of its largest nonzero minor,
sought from that bound down, the minor on the last rows and columns
first, so one minor certifies a block at its bound and a block below it
(a connected diagram of a split link) walks the smaller minors.  A
square block of corank 1, one per piece of the diagram with beta = 0,
has adjugate its minor gcd times units times w / gcd(w) (Torres,
Crowell-Fox), so its order is the certifying minor, read again from the
memo, divided exactly by t_c(0) - 1, or by nothing when the block's
columns belong to one component.  Any other block (a connected diagram
of a split link, a component that never passes under) takes the gcd of
its r_i-minors, one of which is nonzero since r_i is proved:
factor.gcd_many factors the first nonzero minor, lowers each factor's
exponent on the later ones and stops once the gcd is 1; sympy is
loaded only by a rest of that factorization which no certificate
settles (``Poly.factor_list``).  Minors are determinants computed
lazily by sparse cofactor expansion, through one memo per block that
its rank fills and its order reads.

A diagram with no crossings has the empty presentation: rank 0, no
blocks, order 1.  Each free loop adds a generator and no relation, so
it raises beta by 1 and leaves the torsion polynomial unchanged.

Each component's Alexander polynomial is the torsion order of its own
Jacobian, read off the link's crossings with the other components'
arcs killed, through the same reduction and blocks.  A component that
crosses no other is a split piece: its rows and columns of the link's
Jacobian meet no other component's, and a pivot combines only rows that
share a column, so its blocks of M' are its own reduced Jacobian in
t_c.  AlexanderData keeps the product of those blocks' orders in t_c,
``component_polynomials`` sends it to t, and only a component that
crosses another takes a Jacobian of its own.  The Conway polynomial is
read off delta: by Torres, nabla(t^(1/2) - t^(-1/2)) is delta(t) for a
knot and (t-1) * delta(t,...,t) for a link, up to ±t^k.  Centring fixes
t^k; the sign comes from the z^(m-1) coefficient, which equals any
cofactor of the linking-number Laplacian (Hoste): nabla(0) = 1 for a
knot, whose cofactor is the empty determinant.  On a connected
diagram that cofactor is a nonzero multiaffine polynomial in the
lk(i,j) (matrix-tree theorem), so where it is 0, switching a chain of
crossings between components makes it nonzero (Alon, Combinatorial
Nullstellensatz), and the skein steps of the chain smooth crossings
that join two components.  The Sato-Levine invariant reads the Conway
polynomial.  The skein on descending diagrams, within a crossing
budget, gives the one-variable Alexander polynomial, the reference
route independent of the Fox Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations, permutations
from math import comb

from .diagram import PDError, _classes, fox_jacobian
from .factor import gcd_many
from .laurent import (EXPONENT_LIMIT, LaurentPoly, _bounded, _is_unit, _new,
                      _quotient, unit_normal_form)

CONWAY_CROSSING_BUDGET = 16


# ---------------------------------------------------------------------------
# exact linear algebra over the Laurent ring

def reduce_unit_pivots(rows):
    """Eliminate unit pivots; return (M', k, cols) after k pivots.

    A pivot is an entry ±t^e.  Its row, multiplied by the inverse
    ±t^-e, clears the rest of its column by exact row operations; then
    the pivot's row and column are dropped.  Each step takes the unit
    entry of least Markowitz cost (row nonzeros - 1) * (column nonzeros
    - 1), ties broken by row and then column index.  The nonzero
    entries of each row and column and the positions of the unit
    entries are kept up to date as entries change, so a step reads the
    costs of the unit entries, a ``min`` over them, and scans nothing
    else.  Entries are kept as LaurentPoly's packed keys, each with its
    exponent bound under LaurentPoly's rules, and only the entries of
    M' become polynomials again.  A fill step ``old - f * x`` writes in
    place into a key dict the reduction owns: an input entry, which
    the input's rows may share, is copied on its first write, and a
    term is dropped as soon as it cancels.  Its bound is f's plus x's,
    or old's if larger; ``_bounded`` raises only where f's plus x's
    reaches EXPONENT_LIMIT, and every entry of a pivot row is checked.
    The input rows and their entries are left as they were.  M' keeps
    every elementary ideal one size down per pivot, so rank(M) =
    k + rank(M') and the j-minors of M have the gcd of the
    (j - k)-minors of M'.  ``cols`` lists the columns of M that M' keeps,
    in order.
    """
    zero = LaurentPoly.zero(rows[0][0].nvars) if rows and rows[0] else None
    # live[r] holds row r's nonzero entries by column as (keys, bound),
    # cols[c] the rows with a nonzero entry in column c, and units the
    # positions of the unit entries, all over the live rows and columns
    live = {r: {c: (x._d, x._bound) for c, x in enumerate(row) if x._d}
            for r, row in enumerate(rows)}
    cols = {c: set() for c in range(len(rows[0]) if rows else 0)}
    units = set()
    # owned[r] holds the columns of row r whose key dict the reduction
    # made and may write in place; the others are the input's
    owned = {r: set() for r in live}
    for r, row in live.items():
        for c, (x, _) in row.items():
            cols[c].add(r)
            if _is_unit(x):
                units.add((r, c))
    k = 0
    while units:
        _, p, q = min(((len(live[r]) - 1) * (len(cols[c]) - 1), r, c)
                      for r, c in units)
        pivot = live.pop(p)
        # a unit s * t^e has inverse s * t^-e, under the same bound
        unit, inverse_bound = pivot.pop(q)
        (e, s), = unit.items()
        units.discard((p, q))
        for c in pivot:
            cols[c].discard(p)
            units.discard((p, c))
        pivot_row = {c: ({kx - e: s * cx for kx, cx in x.items()},
                         _bounded(bx + inverse_bound))
                     for c, (x, bx) in pivot.items()}
        for r in cols.pop(q):
            if r == p:
                continue
            row = live[r]
            mine = owned[r]
            f, bf = row.pop(q)
            units.discard((r, q))
            for c, (x, bx) in pivot_row.items():
                bound = bf + bx
                if bound >= EXPONENT_LIMIT:
                    _bounded(bound)
                # f * x term by term, in the order LaurentPoly makes them
                a, b = (f, x) if len(f) <= len(x) else (x, f)
                if c in row:
                    new, old_bound = row[c]
                    if c not in mine:
                        new = dict(new)
                        mine.add(c)
                    if old_bound > bound:
                        bound = old_bound
                else:
                    new = {}
                    mine.add(c)
                get = new.get
                for ka, ca in a.items():
                    for kb, cb in b.items():
                        key = ka + kb
                        term = get(key, 0) - ca * cb
                        if term:
                            new[key] = term
                        else:
                            del new[key]
                if not new:
                    del row[c]
                    cols[c].discard(r)
                    units.discard((r, c))
                    continue
                row[c] = (new, bound)
                cols[c].add(r)
                if len(new) == 1 and abs(next(iter(new.values()))) == 1:
                    units.add((r, c))
                else:
                    units.discard((r, c))
        k += 1
    live_cols = sorted(cols)
    return ([[_new(zero.nvars, *row[c]) if c in row else zero
              for c in live_cols] for row in map(live.get, sorted(live))],
            k, live_cols)


def matrix_rank(rows, bound, memo):
    """Rank over the quotient field: the largest nonzero minor's size.

    ``bound`` must be an upper bound on the rank, at most the number of
    rows and of columns.  Sizes are tried from ``bound`` down, and at
    each size the minor on the last rows and the last columns first, so
    a block at its bound is settled by that one minor.  ``memo`` is the
    ``_determinant`` memo, shared with the block's order.
    """
    nr, nc = len(rows), len(rows[0])
    for size in range(bound, 0, -1):
        # index tuples in descending order, so the last ones come first
        if any(not _determinant(rows, ri[::-1], ci[::-1], memo).is_zero()
               for ri in combinations(reversed(range(nr)), size)
               for ci in combinations(reversed(range(nc)), size)):
            return size
    return 0


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
        result = result + term if (k % 2 == 0) == (sign > 0) \
            else result - term
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Alexander data

@dataclass(frozen=True)
class AlexanderData:
    """beta, the Alexander polynomial and its torsion counterpart.

    ``isolated`` maps each component that crosses no other component
    to its order, the product of the link's blocks whose columns are
    all its: a polynomial in t_c over the link's m variables, which
    ``component_polynomials`` sends to t.  It takes no part in
    equality, and a hand-built AlexanderData leaves it empty, so
    ``component_polynomials`` takes each component's own Jacobian.
    """
    m: int
    beta: int
    delta: LaurentPoly
    delta_tor: LaurentPoly
    isolated: dict = field(default_factory=dict, compare=False, repr=False)


def _blocks(rows, cols):
    """The blocks of M' = ``rows``: its rows and columns joined by nonzeros.

    Returns (block, the columns of M it keeps) for each block; all-zero
    rows and columns belong to no block, so a zero or empty M' has none.
    """
    nrows = len(rows)
    pairs = [(r, nrows + c) for r, row in enumerate(rows)
             for c, x in enumerate(row) if not x.is_zero()]
    label = _classes({x for pair in pairs for x in pair}, pairs)
    members = [[] for _ in set(label.values())]
    for x in sorted(label):
        members[label[x]].append(x)
    out = []
    for block in members:
        rs = [x for x in block if x < nrows]
        cs = [x - nrows for x in block if x >= nrows]
        out.append(([[rows[r][c] for c in cs] for r in rs],
                    [cols[c] for c in cs]))
    return out


def _rank_and_order(rows, col_component, nvars):
    """The rank of a Fox Jacobian, its torsion order in unit normal form
    and each block's order with the components of its columns.

    The reduced matrix M' is taken block by block: the rank is the
    number of pivots plus the sum of the blocks' ranks and the torsion
    order the product of their orders.  ``matrix_rank`` walks a block's
    minors down from min(rows, columns - 1) to its rank r, filling the
    block's ``_determinant`` memo, which its order reads: a square block
    of corank 1 takes the minor that certified r, divided by t_c(0) - 1
    when its columns hold two or more components; any other block the
    gcd of its r-minors.  A zero minor or a failed division means the
    rank and the minors disagree.  The blocks come back as a list of
    (order, frozenset of components), so a component that crosses no
    other reads its own order off the blocks whose columns are all its.
    """
    reduced, rank, cols = reduce_unit_pivots(rows)
    order = LaurentPoly.one(nvars)
    block_orders = []
    for block, block_cols in _blocks(reduced, cols):
        memo = {}
        r = matrix_rank(block, min(len(block), len(block_cols) - 1), memo)
        rank += r
        owners = frozenset(col_component[c] for c in block_cols)
        if len(block) == len(block_cols) == r + 1:
            rest = tuple(range(1, r + 1))
            minor = _determinant(block, rest, rest, memo)
            if len(owners) > 1:
                w = LaurentPoly.var(nvars, col_component[block_cols[0]]) \
                    - LaurentPoly.one(nvars)
                minor = _quotient(minor, w)
        else:
            minor = gcd_many(_determinant(block, ri, ci, memo)
                             for ri in combinations(range(len(block)), r)
                             for ci in combinations(range(len(block_cols)), r))
        if minor is None or minor.is_zero():
            raise PDError("rank/minor inconsistency in torsion order")
        order = order * minor
        block_orders.append((minor, owners))
    return rank, unit_normal_form(order), block_orders


def _isolated_orders(d, block_orders):
    """{c: order in t_c} for each component c that crosses no other.

    Such a component is a split piece: its rows and columns of the
    link's Jacobian are its own Jacobian in t_c, and no pivot mixes them
    with another component's, so its order is the product of the blocks
    whose columns are all its, 1 when it has none.
    """
    linked = {k for u, o in map(d.crossing_components, range(d.ncrossings))
              if u != o for k in (u, o)}
    orders = {c: LaurentPoly.one(d.ncomps) for c in range(d.ncomps)
              if c not in linked}
    for order, owners in block_orders:
        if len(owners) == 1 and owners <= orders.keys():
            (c,) = owners
            orders[c] = orders[c] * order
    return orders


def alexander_data(d):
    """Compute AlexanderData for a link diagram (free loops included)."""
    m = d.ncomps
    rows, arc_component = fox_jacobian(d)
    rank, delta_tor, block_orders = _rank_and_order(rows, arc_component, m)
    beta = (len(arc_component) - rank - 1) + d.nfree
    delta = delta_tor if beta == 0 else LaurentPoly.zero(m)
    return AlexanderData(m=m, beta=beta, delta=delta, delta_tor=delta_tor,
                         isolated=_isolated_orders(d, block_orders))


# ---------------------------------------------------------------------------
# Conway polynomial from the Fox route; the skein as its reference

class ConwayBudgetExceeded(ValueError):
    pass


def _check_budget(d):
    if d.ncrossings > CONWAY_CROSSING_BUDGET:
        raise ConwayBudgetExceeded(
            f"{d.ncrossings} crossings exceed the skein budget "
            f"of {CONWAY_CROSSING_BUDGET}")


def _linking_cofactor(d, lk=None, switched=()):
    """A cofactor of the linking Laplacian: lk(1,2) when m = 2, 1 if m = 1.

    L[i][i] = sum_j lk(i,j) and L[i][j] = -lk(i,j), where ``lk`` is d's
    linking matrix (computed when not given) after the crossings in
    ``switched`` change, each moving its lk(i,j) by -sign.  By Hoste
    every cofactor equals the z^(m-1) coefficient of the Conway polynomial.
    """
    m = d.ncomps
    lk = [list(row) for row in lk or d.linking_matrix()]
    for v in switched:
        for u, o in permutations(d.crossing_components(v)):
            lk[u][o] -= d.signs[v]
    rows = [[LaurentPoly.const(1, sum(lk[i]) if i == j else -lk[i][j])
             for j in range(m)] for i in range(m)]
    rest = tuple(range(1, m))
    return _determinant(rows, rest, rest, {}).terms.get((0,), 0)


def _peel_z(one):
    """{k: c} with one ≐ sum c * z^k, z = t^(1/2) - t^(-1/2), up to ±t^j.

    ``one`` is centred on exponents of x = t^(1/2), so that its top and
    bottom x-exponents are opposite, and z^k = (x - 1/x)^k is peeled off
    its top term until nothing is left.  A negative top exponent means
    ``one`` was not (anti)symmetric under t -> 1/t.
    """
    exps = [e for (e,) in one.terms]
    shift = min(exps) + max(exps)
    rest = {2 * e - shift: c for (e,), c in one.terms.items()}
    nabla = {}
    while rest:
        top = max(rest)
        if top < 0:
            raise PDError("one-variable Alexander polynomial is not "
                          "symmetric under t -> 1/t")
        c = nabla[top] = rest[top]
        for j in range(top + 1):
            e = top - 2 * j
            new = rest.get(e, 0) - (-1) ** j * comb(top, j) * c
            if new:
                rest[e] = new
            else:
                rest.pop(e, None)
    return nabla


def conway_polynomial(d, alex=None):
    """The Conway polynomial as a dict {z-degree: coefficient}.

    ``_peel_z`` reads nabla off delta up to sign (Torres).  The sign is
    fixed by the linking cofactor, the z^(m-1) coefficient (Hoste), 1
    for a knot; where that cofactor is 0, ``_chain_step`` gives nabla.
    ``alex`` is d's AlexanderData, computed when not given.
    """
    if alex is None:
        alex = alexander_data(d)
    m = d.ncomps
    one = alex.delta.eval_diagonal()
    if m >= 2:
        one = one * (LaurentPoly.var(1, 0) - LaurentPoly.one(1))
    if one.is_zero():
        return {}  # delta = 0 (split, beta > 0) or delta(t,...,t) = 0
    lk = d.linking_matrix()
    anchor = _linking_cofactor(d, lk)
    if anchor == 0:
        return _chain_step(d, lk)
    nabla = _peel_z(one)
    lowest = nabla.get(m - 1, 0)
    if abs(lowest) != abs(anchor):
        raise PDError(f"Conway coefficient {lowest} of z^{m - 1} is not "
                      f"±{anchor} (nabla(0) for a knot, the linking "
                      f"cofactor for a link)")
    sign = 1 if lowest == anchor else -1
    return {k: sign * nabla[k] for k in sorted(nabla)}


def _skein_sum(switched, sign, smoothed):
    """nabla(L) = nabla(L') + sign * z * nabla(L0), from the children."""
    result = dict(switched)
    for k, c in smoothed.items():
        new = result.get(k + 1, 0) + sign * c
        if new:
            result[k + 1] = new
        else:
            result.pop(k + 1, None)
    return result


def _chain_step(d, lk):
    """The Conway polynomial of d, whose linking cofactor is 0.

    S = (v_1..v_s) is the first of the smallest sets of crossings between
    two components whose switching makes the cofactor nonzero; a smallest
    set changes each lk(i,j) at most once (the cofactor is affine in it),
    so only the first crossing of each pair and sign is tried.  Then
    nabla(L) = nabla(L_S) + sum_k sign(v_k) * z * nabla(L_k): L_S has S
    switched and is a Fox leaf, L_k has v_1..v_(k-1) switched and v_k
    smoothed, which joins two components, so the recursion ends.
    """
    first = {(*sorted(d.crossing_components(v)), d.signs[v]): v
             for v in reversed(range(d.ncrossings))
             if len(set(d.crossing_components(v))) == 2}
    chain = next((s for size in range(1, d.ncomps)
                  for s in combinations(sorted(first.values()), size)
                  if _linking_cofactor(d, lk, s)), None)
    if chain is None:
        raise PDError("no switch chain makes the linking cofactor nonzero")
    partial = list(accumulate(chain, lambda n, v: n.crossing_change(v),
                              initial=d))
    nabla = conway_polynomial(partial[-1])
    for node, v in zip(partial, chain):
        nabla = _skein_sum(nabla, d.signs[v],
                           conway_polynomial(node.smooth_crossing(v)))
    return nabla


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


def _conway_skein(d, memo=None):
    """The Conway polynomial by the skein relation on descending diagrams.

    At the first crossing violating descending order, the diagram is
    rewritten as the crossing-switched diagram plus sign * z times the
    oriented smoothing.  Descending diagrams are unlinks.  Bigon
    reduction keeps the recursion small.
    """
    _check_budget(d)
    if memo is None:
        memo = {}
    d = d.reduce_bigons()
    key = d.state_key()
    if key in memo:
        return memo[key]
    if len(d.split_partition()) > 1:
        result = {}
    elif (v := _first_violation(d)) is None:
        result = {0: 1} if d.ncomps == 1 else {}
    else:
        result = _skein_sum(_conway_skein(d.crossing_change(v), memo),
                            d.signs[v],
                            _conway_skein(d.smooth_crossing(v), memo))
    memo[key] = result
    return result


def sato_levine(d):
    """Minus the z^3 coefficient of the Conway polynomial.

    Defined for 2-component links with linking number zero, where the
    linking cofactor is 0, so ``conway_polynomial`` switches one crossing
    between the components: a knot and a link with lk = ±1, two Fox leaves.
    """
    if d.ncomps != 2:
        raise PDError("Sato-Levine invariant needs exactly 2 components")
    if d.linking_number(0, 1) != 0:
        raise PDError("Sato-Levine invariant needs linking number 0")
    return -conway_polynomial(d).get(3, 0)


def one_variable_alexander(d):
    """One-variable Alexander polynomial from the skein's Conway polynomial.

    Substitutes z = t^(1/2) - t^(-1/2); since all z-degrees share the
    parity of m-1, clearing by a half-integral monomial lands back in
    the Laurent ring.  Returned in unit normal form (zero stays zero).
    It reads the skein, not conway_polynomial, so that it stays a route
    independent of the Fox Jacobian, against which the Fox route's
    polynomials are checked.
    """
    nabla = _conway_skein(d)
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


def component_polynomials(d, alex=None):
    """One-variable Alexander polynomial of each component on its own.

    Component c's polynomial is the torsion order of its own Jacobian,
    ``fox_jacobian(d, c)`` (a knot has beta = 0); where c has no
    crossing with itself that Jacobian is empty and the order 1.  A
    component that crosses no other is a split piece whose Jacobian is
    already a set of blocks of the link's, so with ``alex``, d's
    AlexanderData, its polynomial is ``alex.isolated`` sent to t, and
    only the components that cross another take a Jacobian of their
    own; a knot takes none.  Returns a list of one-variable polynomials
    in the link's component order.
    """
    isolated = alex.isolated if alex is not None else {}
    crossed = {u for u, o in map(d.crossing_components,
                                 range(d.ncrossings)) if u == o}

    def own(c):
        if c in isolated:
            return unit_normal_form(isolated[c].eval_diagonal())
        if c in crossed:
            return _rank_and_order(*fox_jacobian(d, c), 1)[1]
        return LaurentPoly.one(1)

    return [own(c) for c in range(d.ncomps)]
