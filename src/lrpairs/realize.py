"""Forward construction: turn a valid LR filling into a factored matrix pair.

Each label i of the filling contributes one bidiagonal factor
N_i = identity_(i-1) (+) T_i, where T_i has diagonal t^k_ii, ..., t^k_ir and
ones on the superdiagonal.  With M = diag(t^mu_1, ..., t^mu_r) the partial
products satisfy

    inv(M) = mu,
    inv(N_1 ... N_i) = (nu_1, ..., nu_i),
    inv(M N_1 ... N_i) = the i-th stage of the filling's shape sequence,

which is what makes (M, N_1...N_r) a realization of the triple (mu, nu, lam).
``realize`` forms no matrix product.  It keeps the rows of X_i = N_1 ... N_i
as integer polynomials: right multiplication by N_i keeps the columns before
i, turns column j > i into t^k_ij times itself plus column j - 1, and column
i into t^k_ii times itself.  M X_i is X_i with row a shifted by t^mu_a.  It
still recomputes all 2r + 1 invariant partitions, of M and of both products
at every stage, and refuses to return a pair that does not check out.
"""

from __future__ import annotations

from .errors import InputError, RetriesExhaustedError, VerificationError
from .generic import MatrixPair
from .matrix import (RMatrix, _grid_partition, diag_from_partition,
                     invariant_partition)
from .ring import _PONE, ONE, ZERO, RingElem, _padd, _pshift
from .tableaux import (Filling, Partition, _may_fill, _partition_tuples,
                       as_partition, enumerate_fillings, random_partition,
                       sequence_from_filling, validate_filling)


class FactoredRealization:
    """M, the factors N_1..N_r, and their product N."""

    __slots__ = ("m", "factors", "n", "mu", "nu", "lam", "filling", "stages")

    def __init__(self, m, factors, n, mu, nu, lam, filling, stages):
        self.m = m
        self.factors = tuple(factors)
        self.n = n
        self.mu = mu
        self.nu = nu
        self.lam = lam
        self.filling = filling
        self.stages = tuple(stages)

    @property
    def r(self) -> int:
        return self.m.r

    def pair(self) -> MatrixPair:
        return MatrixPair(self.m, self.n)

    def to_json(self):
        return {
            "M": self.m.to_json(),
            "factors": [f.to_json() for f in self.factors],
            "N": self.n.to_json(),
            "mu": self.mu.to_json(),
            "nu": self.nu.to_json(),
            "lambda": self.lam.to_json(),
            "filling": self.filling.to_json(),
            "stages": [s.to_json() for s in self.stages],
        }


def build_factor(filling: Filling, i: int, r: int) -> RMatrix:
    """The block factor for label i: identity above, T_i from row position i."""
    if not 1 <= i <= r:
        raise InputError(f"factor index {i} outside 1..{r}")
    if filling.r != r:
        raise InputError(f"filling has {filling.r} rows, expected {r}")
    rows = []
    for a in range(1, r + 1):
        row = []
        for b in range(1, r + 1):
            if a < i or b < i:
                row.append(ONE if a == b else ZERO)
            elif a == b:
                row.append(RingElem.t_pow(filling.entry(i, a)))
            elif b == a + 1:
                row.append(ONE)
            else:
                row.append(ZERO)
        rows.append(row)
    return RMatrix(rows)


def realize(filling: Filling, mu) -> FactoredRealization:
    """Build (M, N_1..N_r) for the filling over the base shape mu.

    X_i = N_1 ... N_i is formed from X_(i-1) by N_i's column operations on
    one grid of integer polynomials, and N is X_r.  At every stage the
    invariant partitions of X_i and of M X_i (X_i's rows shifted by mu) are
    recomputed exactly, on copies of the grid, as is M's; a mismatch raises
    VerificationError, since it can only come from an arithmetic bug, not
    from valid input.
    """
    mu = as_partition(mu)
    r = filling.r
    if r == 0:
        raise InputError("filling must have at least one row")

    try:
        nu = Partition(filling.content())
    except InputError as exc:
        raise InputError(f"filling content is not a partition: {exc}") from exc
    stages = sequence_from_filling(filling, mu)
    lam = stages[r]
    failure = validate_filling(filling, mu, nu, lam)
    if failure:
        raise InputError(f"not a valid LR filling: {failure}")

    factors = [build_factor(filling, i, r) for i in range(1, r + 1)]
    m = diag_from_partition(mu, r)
    if invariant_partition(m) != mu:
        raise VerificationError("diagonal first component lost its invariant partition")
    content = nu.padded(r)
    shifts = mu.padded(r)
    # the rows of X_i = N_1 ... N_i over Z[t], from X_0 = I; 0-based
    # column j takes k_i(j+1) = rows[j][i - 1]
    rows = filling.rows
    grid = [[_PONE if a == b else {} for b in range(r)] for a in range(r)]
    for i in range(1, r + 1):
        for row in grid:
            # from the right, so column j - 1 is still X_(i-1)'s when read;
            # it comes first, as in mat_mul's sum, so each entry keeps the
            # product's term order, where order-sensitive loops such as
            # _pcontent's early exit stop
            for j in range(r - 1, i - 1, -1):
                row[j] = _padd(row[j - 1], _pshift(row[j], rows[j][i - 1]))
            row[i - 1] = _pshift(row[i - 1], rows[i - 1][i - 1])
        got_n = _grid_partition([list(row) for row in grid])
        want_n = Partition(content[:i])
        if got_n != want_n:
            raise VerificationError(
                f"partial product {i}: invariant partition {got_n} != {want_n}")
        got_mn = _grid_partition([[_pshift(e, s) for e in row]
                                  for row, s in zip(grid, shifts)])
        if got_mn != stages[i]:
            raise VerificationError(
                f"partial product {i} with M: invariant partition {got_mn} "
                f"!= stage {stages[i]}")
    n = RMatrix([[RingElem(e, _PONE, _raw=True) if e else ZERO for e in row]
                 for row in grid])

    return FactoredRealization(m, factors, n, mu, nu, lam, filling, stages)


def random_filling(rng, r_max: int = 4, part_max: int = 6):
    """Sample (filling, mu, nu, lam): random mu and nu within the bounds,
    then a random compatible lam, then a uniform filling of that triple.

    The candidates are the shapes of the right weight, with at most r_max
    parts, that contain mu and have at least len(nu) parts, in shuffled
    walk order; the first one with a filling is taken.  A candidate that
    fails ``_may_fill`` has none, so its fillings are not walked.
    """
    if r_max < 1 or part_max < 1:
        raise InputError("sampling bounds must be at least 1")
    for _ in range(200):
        mu = random_partition(rng, r_max, part_max)
        nu = random_partition(rng, r_max, part_max)
        w = mu.weight() + nu.weight()
        if w == 0:
            continue
        mu_p, nu_p = mu.padded(r_max), nu.padded(r_max)
        floors = tuple(max(m, 1) if k < len(nu) else m for k, m in enumerate(mu_p))
        candidates = list(_partition_tuples(w, floors))
        rng.shuffle(candidates)
        for parts in candidates:
            if not _may_fill(mu_p, nu_p, parts + (0,) * (r_max - len(parts))):
                continue
            lam = Partition(parts)
            fillings = enumerate_fillings(mu, nu, lam)
            if fillings:
                return rng.choice(fillings), mu, nu, lam
    raise RetriesExhaustedError(200, "no triple with a valid filling found")
