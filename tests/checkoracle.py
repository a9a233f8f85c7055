"""Second routes to what the package computes, for the tests to compare
with.

The verification battery's checks as plain enumerations: every pair's
minimum over its whole up- or down-set, and every triple I <= H <= J of the
gap inequalities.  ``lrpairs.generic`` takes the same minima in one pass
over the cover lattice and checks the gaps on covers.  These bodies are the
references its verdicts are compared with, and for the three equations its
report strings too.  For the gaps ``gap_failures`` is the reference for
verdicts only: the package names the first failing cover triple of its own
walk, which may not be the first triple here.

The invariant partition read off the full minor-order table, and the corner
minors of N* checked one Bareiss minor at a time against partitions found
by diagonal reduction: the second routes of acceptance criteria 5 and 4.

The row-sum identities that tie a filling's partial sums to the
right-justified minor orders, which ``lrpairs.extract._read_filling`` proves
by telescoping instead of checking them.

Single minors, each the exact determinant of its own submatrix: the route
every minor-order table is compared with.

The Smith transforms P, Q, D read off ``lrpairs.matrix._smith_grid``, the
pass the reduction reads directly.

The diagonalization of a pair's first component by separate steps: the
Smith transforms, the product Q N, each of its rows scaled clean on its
own, and the units multiplied onto P and Q as a diagonal matrix.
``lrpairs.generic.diagonalize_first`` reads all of it off one Smith pass.

The partitions of a weight that contain a given one, as ``Partition``s over
the tuple walk ``lrpairs.tableaux._partition_tuples``.

The sampler with its candidate shapes as a list of ``Partition``s,
filtered by length, shuffled, and the fillings of each shape in turn
enumerated until one has any: ``lrpairs.realize.random_filling`` must make
the same draws and leave its rng in the same state, though it lists plain
tuples and walks no shape that ``_may_fill`` rules out.
"""

from lrpairs.errors import InputError, RankError, RetriesExhaustedError
from lrpairs.generic import (CheckResult, GroupElement, MatrixPair,
                             VerificationReport, _corner_checks)
from lrpairs.matrix import (RMatrix, _between, _clean, _clear_row, _lattice,
                            _mu_weights, _require_over_ring, _smith_grid,
                            _table_partition, det, diag_from_partition,
                            invariant_partition, mat_mul, minor_order_table)
from lrpairs.ring import INFINITY, ONE, ZERO, RingElem, _pshift
from lrpairs.tableaux import (Partition, _partition_tuples, as_partition,
                              enumerate_fillings, random_partition)


def minor(m: RMatrix, rows, cols) -> RingElem:
    """Exact determinant of the submatrix in rows and cols, 1-based
    increasing index sets (the empty minor is 1): ``det`` of that
    submatrix, one ``_poly_det`` of its rows cleared by ``_clear_row``."""
    if not rows:
        return ONE
    return det(RMatrix([[m.entries[i - 1][j - 1] for j in cols] for i in rows]))


def minor_order(m: RMatrix, rows, cols):
    """Order of the minor; +infinity when it vanishes."""
    return minor(m, rows, cols).valuation()


def smith_transforms(m: RMatrix):
    """Invertible P, Q over the valuation ring with P @ m = D @ Q, where D is
    the diagonal of decreasing t-powers carrying the invariant partition.

    Returns (P, Q, D) with D = diag_from_partition(invariant_partition(m)).
    A matrix that is already such a diagonal returns identity transforms.
    Otherwise all three are read off ``_smith_grid``'s rows: row k of P is
    the grid's right block over p_(k-1) c_k, which is L^-1 Pi of the field
    elimination with that pivot, and row k of Q is the left block over
    p_(k-1) c_k t^(a_k), its columns >= k moved back to their places and
    the rest 0; D = diag(t^(a_k)), and all three are then reversed to
    decreasing order.  Q is the field reduction's, which divides row k by
    its pivot's unit part and shears the other columns off it: those column
    operations touch only row k, so the trailing block is plain elimination
    and Q = D^-1 P m is fixed by P.  Entries are reduced once, and no ring
    division happens.
    """
    smith = _smith_grid(m)
    if smith is None:
        eye = RMatrix.identity(m.r)
        return eye, eye, m
    rows, cols = smith
    r = m.r
    p, q, d = [], [], []
    for k, (row, den, a) in enumerate(rows):
        p.append([RingElem(e, den) for e in row[r:]])
        den = _pshift(den, a)
        q_row = [ZERO] * r
        for j in range(k, r):
            q_row[cols[j]] = RingElem(row[j], den)
        q.append(q_row)
        d.append(RingElem.t_pow(a))
    return RMatrix(p[::-1]), RMatrix(q[::-1]), RMatrix.diagonal(d[::-1])


def comparable_pairs(r):
    """Every nonempty pair I <= J of index sets in 1..r, by size, then I,
    then J, in lexicographic order."""
    lattice = _lattice(r)
    for sets in lattice.sets[1:]:
        for i_set in sets:
            for j_set in lattice.up[i_set]:
                yield i_set, j_set


def pairs_to_check(r):
    """Every (rows, cols) pair of equal size, including the empty pair, by
    size, then rows, then columns, in lexicographic order."""
    for sets in _lattice(r).sets:
        for i_set in sets:
            for j_set in sets:
                yield i_set, j_set


def equation_first(tab_n, tab_right, r):
    up = _lattice(r).up
    for i_set, j_set in pairs_to_check(r):
        want = tab_n[(i_set, j_set)]
        got = min(tab_right[(s, j_set)] for s in up[i_set])
        if want != got:
            return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


def equation_second(tab_n, tab_v, mu, r):
    down = _lattice(r).down
    weight = _mu_weights(mu, r)
    for i_set, j_set in comparable_pairs(r):
        want = tab_n[(i_set, j_set)]
        w_i = weight[i_set]
        got = min(tab_v[(h, j_set)] + weight[h] - w_i for h in down[i_set])
        if want != got:
            return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


def equation_third(tab_n, tab_left, r):
    down = _lattice(r).down
    for i_set, j_set in pairs_to_check(r):
        want = tab_n[(i_set, j_set)]
        got = min(tab_left[(i_set, h)] for h in down[j_set])
        if want != got:
            return f"I={i_set} J={j_set}: order {want} vs min {got}"
    return ""


def gap_failures(table, mu, r):
    """(rows, columns) failure strings of ``verify_mu_generic``'s two gap
    checks, from every triple, each naming the first failing triple by pair
    I <= J and then H; "" where a check holds.  Compared for the verdict
    alone."""
    weight = _mu_weights(mu, r)
    row_fail = ""
    col_fail = ""
    for i_set, j_set in comparable_pairs(r):
        base = table[(i_set, j_set)]
        w_i = weight[i_set]
        for h in _between(i_set, j_set):
            if not row_fail:
                vh = table[(h, j_set)]
                if not (base <= vh):
                    row_fail = f"I={i_set} H={h} J={j_set}: {base} > {vh}"
                elif base is not INFINITY and \
                        (vh is INFINITY or vh > base + w_i - weight[h]):
                    row_fail = (f"I={i_set} H={h} J={j_set}: gap {vh} - {base} exceeds "
                                f"{w_i - weight[h]}")
            if not col_fail:
                vc = table[(i_set, h)]
                if not (vc >= base):
                    col_fail = f"I={i_set} H={h} J={j_set}: {vc} < {base}"
            if row_fail and col_fail:
                break
    return row_fail, col_fail


def invariant_partition_oracle(m: RMatrix) -> Partition:
    """``invariant_partition`` by a different route: the minimal order among
    k-by-k minors is the k-th partial sum of the increasing invariant
    orders."""
    _require_over_ring(m, "matrix")
    part = _table_partition(minor_order_table(m), m.r, Partition(()))[0]
    if part is None:
        raise RankError("matrix is rank deficient")
    return part


def corner_invariant_check(n_star: RMatrix, mu) -> VerificationReport:
    """Corner minors read off the orbit partitions: the top-rows/right-columns
    minors of N* carry the tail sums of nu, and the bottom-right corners of
    D_mu N* carry the tail sums of lam.

    nu and lam are recomputed here by diagonal reduction, and each minor by
    its own Bareiss elimination, deliberately not through the minor-order
    table that the reduction's own corner checks read."""
    mu = as_partition(mu)
    r = n_star.r
    nu = invariant_partition(n_star)
    lam = invariant_partition(mat_mul(diag_from_partition(mu, r), n_star))
    lookup = lambda rows, cols: minor_order(n_star, rows, cols)
    return VerificationReport(_corner_checks(lookup, mu, nu, lam, r))


def row_sum_identities(filling, table) -> VerificationReport:
    """The two telescoping identities tying partial sums of the filling to
    the orders O(p, q) of the right-justified minors omitting the rows
    max(1, p)..q, read off the minor-order table of a matrix of the
    filling's size:
      sum over columns j..l of (k_1b + ... + k_ib) = O(j-i, j-1) - O(l-i+1, l)
      k_ii + ... + k_ij = O(j-i+2, j) - O(j-i+1, j)
    """
    r = filling.r

    def o(p, q):
        kept = tuple(x for x in range(1, r + 1) if not max(1, p) <= x <= q)
        return table[kept, tuple(range(r - len(kept) + 1, r + 1))]

    block_fail = ""
    prefix_fail = ""
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            want = sum(filling.entry(i, b) for b in range(i, j + 1))
            got = o(j - i + 2, j) - o(j - i + 1, j)
            if want != got and not prefix_fail:
                prefix_fail = f"i={i} j={j}: {want} vs {got}"
            for lcol in range(j, r + 1):
                want = sum(filling.entry(s, b)
                           for b in range(j, lcol + 1)
                           for s in range(1, min(i, b) + 1))
                got = o(j - i, j - 1) - o(lcol - i + 1, lcol)
                if want != got and not block_fail:
                    block_fail = f"i={i} j={j} l={lcol}: {want} vs {got}"
    return VerificationReport((
        CheckResult("block_sum_identity", not block_fail, block_fail),
        CheckResult("row_prefix_identity", not prefix_fail, prefix_fail),
    ))


def diagonalize_first_oracle(pair: MatrixPair):
    """(pair, group element) as ``diagonalize_first`` returns them, by
    separate steps: (P, Q, D) from ``smith_transforms``, Q N by
    ``mat_mul``, each row of Q N cleared and scaled clean on its own by a
    unit u_k, and P and Q multiplied on the left by diag(u)."""
    p, q, d = smith_transforms(pair.first)
    rows, units = [], []
    for row in mat_mul(q, pair.second).entries:
        nums, den = _clear_row(row)
        cleaned, w = _clean(nums, den)
        rows.append(cleaned)
        units.append(RingElem(den, w))
    du = RMatrix.diagonal(units)
    return (MatrixPair(d, RMatrix(rows)),
            GroupElement(mat_mul(du, p), mat_mul(du, q), RMatrix.identity(pair.r)))


def iter_partitions(weight: int, max_len: int, mu=()):
    """The partitions of weight with at most max_len parts that contain mu,
    largest first part first (decreasing lexicographic order): the tuple
    walk with mu's parts as its floors."""
    mu = as_partition(mu)
    if len(mu) > max_len:
        return
    for parts in _partition_tuples(weight, mu.padded(max_len)):
        yield Partition(parts)


def random_filling_oracle(rng, r_max: int = 4, part_max: int = 6):
    """(filling, mu, nu, lam) as ``random_filling`` draws it, every
    candidate a ``Partition`` and every candidate's fillings enumerated."""
    if r_max < 1 or part_max < 1:
        raise InputError("sampling bounds must be at least 1")
    for _ in range(200):
        mu = random_partition(rng, r_max, part_max)
        nu = random_partition(rng, r_max, part_max)
        w = mu.weight() + nu.weight()
        if w == 0:
            continue
        candidates = [lam for lam in iter_partitions(w, r_max, mu)
                      if len(lam) >= len(nu)]
        rng.shuffle(candidates)
        for lam in candidates:
            fillings = enumerate_fillings(mu, nu, lam)
            if fillings:
                return rng.choice(fillings), mu, nu, lam
    raise RetriesExhaustedError(200, "no triple with a valid filling found")
