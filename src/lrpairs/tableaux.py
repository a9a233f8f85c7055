"""Partitions, triangular fillings and the Littlewood-Richardson conditions.

A filling of size r is a triangular array {k_ij : 1 <= i <= j <= r} of
integers.  Given partitions mu (inner shape), nu (content) and lam (outer
shape) it is a valid skew filling when:

  LR1  row sums match the skew rows and content sums match nu:
         mu_j + k_1j + ... + k_jj = lam_j   and   k_ii + ... + k_ir = nu_i
  LR2  all entries are non-negative
  LR3  columns are strict: the row profile after stage i fits strictly
       under the previous row's profile after stage i-1
  LR4  the reading-word (ballot) condition:
         sum_{s=i+1..j+1} k_{i+1,s} <= sum_{s=i..j} k_{i,s}

The stage profiles lam^(i)_j = mu_j + k_1j + ... + k_ij interpolate from mu
to lam; row j of the skew diagram receives its entries in rows i <= j only.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import InputError

# Largest matrix size r (rows of a filling) accepted from outside.  A pair of
# size r builds minor tables of C(2r, r) entries on every attempt, so an
# unbounded r would cost unbounded time before any check could reject it.
MAX_SIZE = 10


class Partition:
    """A weakly decreasing tuple of non-negative integers.

    Trailing zeros are stripped, so equality ignores them.  ``part(k)`` is
    1-based and returns 0 beyond the length.  A part that is not an int
    raises ``InputError``, a bool too: JSON's true and false arrive as
    bools, an int subclass.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        for p in parts:
            if type(p) is not int:
                raise InputError(f"partition parts must be integers, got {p!r}")
            if p < 0:
                raise InputError(f"partition parts must be non-negative, got {p}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise InputError(f"partition parts must be weakly decreasing, got {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.parts = parts

    def part(self, k: int) -> int:
        if k < 1:
            raise IndexError("partition parts are 1-based")
        return self.parts[k - 1] if k <= len(self.parts) else 0

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def weight(self) -> int:
        return sum(self.parts)

    def contains(self, other: "Partition") -> bool:
        """True when other fits inside self part by part."""
        return all(other.part(k) <= self.part(k) for k in range(1, len(other) + 1))

    def padded(self, r: int) -> tuple:
        if len(self.parts) > r:
            raise InputError(f"partition {self.parts} has more than {r} parts")
        return self.parts + (0,) * (r - len(self.parts))

    def sum_over(self, indices) -> int:
        """Sum of the selected parts (1-based indices, 0 beyond the length)."""
        return sum(self.part(i) for i in indices)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, (tuple, list)):
            other = tuple(other)
            while other and other[-1] == 0:
                other = other[:-1]
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def to_json(self):
        return list(self.parts)

    @staticmethod
    def from_json(obj) -> "Partition":
        if not isinstance(obj, list):
            raise InputError(f"partition must be a list of integers, got {obj!r}")
        return Partition(obj)


def as_partition(x) -> Partition:
    return x if isinstance(x, Partition) else Partition(x)


class Filling:
    """Triangular integer array; row j holds (k_1j, ..., k_jj).  An entry
    that is not an int, a bool included, raises ``InputError``."""

    __slots__ = ("r", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        for j, row in enumerate(rows, start=1):
            if not all(type(v) is int for v in row):
                raise InputError(f"filling row {j} must hold integers, got {list(row)!r}")
            if len(row) != j:
                raise InputError(f"filling row {j} must have {j} entries, got {len(row)}")
        self.rows = rows
        self.r = len(rows)

    def entry(self, i: int, j: int) -> int:
        """k_ij for 1 <= i <= j <= r."""
        if not (1 <= i <= j <= self.r):
            raise IndexError(f"entry ({i},{j}) outside triangular range 1 <= i <= j <= {self.r}")
        return self.rows[j - 1][i - 1]

    def row_sum(self, j: int) -> int:
        return sum(self.rows[j - 1])

    def content(self) -> tuple:
        """Total multiplicity of each label: (sum_j k_1j, sum_j k_2j, ...)."""
        return tuple(sum(self.rows[j - 1][i - 1] for j in range(i, self.r + 1))
                     for i in range(1, self.r + 1))

    def __eq__(self, other):
        if not isinstance(other, Filling):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Filling({[list(r) for r in self.rows]})"

    def to_json(self):
        return {"r": self.r, "rows": [list(row) for row in self.rows]}

    @staticmethod
    def from_json(obj) -> "Filling":
        if not isinstance(obj, dict) or "rows" not in obj:
            raise InputError(f"filling must be an object with a 'rows' list, got {obj!r}")
        rows = obj["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InputError("filling 'rows' must be a list of integer lists")
        if len(rows) > MAX_SIZE:
            raise InputError(f"filling size {len(rows)} exceeds the limit {MAX_SIZE}")
        f = Filling(rows)
        if "r" in obj and (type(obj["r"]) is not int or obj["r"] != f.r):
            raise InputError(f"filling declares r={obj['r']!r} but has {f.r} rows")
        return f


def sequence_from_filling(filling: Filling, mu) -> tuple:
    """The interpolating profiles mu = lam^(0), lam^(1), ..., lam^(r) = lam
    as a tuple of partitions: lam^(i)_j = mu_j + k_1j + ... + k_{min(i,j),j}.

    Raises InputError when mu has more parts than the filling has rows, or
    when some stage is not weakly decreasing, i.e. the filling does not even
    define a chain of partitions.
    """
    r = filling.r
    base = as_partition(mu).padded(r)
    steps = []
    for i in range(0, r + 1):
        row = []
        for j in range(1, r + 1):
            v = base[j - 1] + sum(filling.entry(s, j) for s in range(1, min(i, j) + 1))
            row.append(v)
        for a, b in zip(row, row[1:]):
            if a < b:
                raise InputError(
                    f"stage {i} profile {row} is not weakly decreasing; invalid filling"
                )
        steps.append(Partition(row))
    return tuple(steps)


def validate_filling(filling: Filling, mu, nu, lam) -> str:
    """Check LR1-LR4 for the triple (mu, nu, lam): "" when the filling is
    valid, else each failing condition with its first violating cell,
    joined by "; " as in "lr1 at ('row', 1); lr3 at (1, 3)".  Every
    condition is checked, not only up to the first that fails."""
    mu, nu, lam = as_partition(mu), as_partition(nu), as_partition(lam)
    r = filling.r
    if len(lam) > r:
        raise InputError(f"outer shape has {len(lam)} parts but the filling has size {r}")
    if len(mu) > len(lam) or len(nu) > len(lam):
        raise InputError("inner shape and content must not be longer than the outer shape")

    # LR1: row sums then content sums
    lr1 = None
    for j in range(1, r + 1):
        if mu.part(j) + filling.row_sum(j) != lam.part(j):
            lr1 = ("row", j)
            break
    if lr1 is None:
        content = filling.content()
        for i in range(1, r + 1):
            if content[i - 1] != nu.part(i):
                lr1 = ("content", i)
                break

    lr2 = None
    for j in range(1, r + 1):
        for i in range(1, j + 1):
            if filling.entry(i, j) < 0:
                lr2 = (i, j)
                break
        if lr2:
            break

    # LR3: lam^(i)_j <= lam^(i-1)_{j-1} for 2 <= j <= r, 1 <= i <= j
    lr3 = None
    prefix = [None] + [[mu.part(j)] for j in range(1, r + 1)]  # prefix[j][i] = lam^(i)_j
    for j in range(1, r + 1):
        for i in range(1, j + 1):
            prefix[j].append(prefix[j][i - 1] + filling.entry(i, j))
    for j in range(2, r + 1):
        for i in range(1, j + 1):
            if prefix[j][min(i, j)] > prefix[j - 1][min(i - 1, j - 1)]:
                lr3 = (i, j)
                break
        if lr3:
            break

    # LR4: sum_{s=i+1..j+1} k_{i+1,s} <= sum_{s=i..j} k_{i,s} for i <= j <= r-1
    lr4 = None
    for i in range(1, r):
        for j in range(i, r):
            upper = sum(filling.entry(i, s) for s in range(i, j + 1))
            lower = sum(filling.entry(i + 1, s) for s in range(i + 1, j + 2))
            if lower > upper:
                lr4 = (i, j)
                break
        if lr4:
            break

    return "; ".join(f"lr{n} at {cell}" for n, cell in enumerate((lr1, lr2, lr3, lr4), 1)
                     if cell is not None)


def _walk_fillings(mu, nu, lam):
    """Yield the rows of each valid filling for (mu, nu, lam) in turn.

    Rows are filled top to bottom and each row left to right, every entry
    running upward to its cap: LR2 and the content left of its label, LR3
    (the stage profile stays under the row above after one label less) and
    LR4 (label i >= 2 in row j is at most label i-1's lead over label i in
    rows 1..j-1).  Each entry starts at the least value for which the
    later entries' caps can still hold the rest of the row, so only values
    that could never close the row are skipped.  The last entry of a row
    takes what the row has left.
    The yielded list is the walk's own state: read it before the next one.
    """
    mu, nu, lam = as_partition(mu), as_partition(nu), as_partition(lam)
    r = len(lam)
    if (mu.weight() + nu.weight() != lam.weight() or not lam.contains(mu)
            or len(nu) > r):
        return
    mu_p, nu_p, lam_p = mu.padded(r), nu.padded(r), lam.padded(r)
    if not _may_fill(mu_p, nu_p, lam_p):
        return
    # the weights agree and no entry exceeds what is left of its label, so
    # every label is used up when the last row is full
    left = list(nu_p)
    rows = []

    def walk_rows(j):
        if j == r:
            yield rows
            return
        # above[i] = lam^(i)_{j-1}; the first row has no row above it
        above = list(accumulate(rows[j - 1], initial=mu_p[j - 1])) if j else [lam_p[0]]
        caps = [left[0]] + [min(left[i], (nu_p[i - 1] - left[i - 1]) - (nu_p[i] - left[i]))
                            for i in range(1, j + 1)]
        rest = [sum(caps[i + 1:]) for i in range(j + 1)]
        row = [0] * (j + 1)
        rows.append(row)

        def walk_entries(i, room, profile):
            # profile = mu_j + the entries placed in row j so far
            if i == j:
                if room <= caps[i] and profile + room <= above[i]:
                    row[i] = room
                    left[i] -= room
                    yield from walk_rows(j + 1)
                    left[i] += room
                return
            for v in range(max(0, room - rest[i]),
                           min(room, caps[i], above[i] - profile) + 1):
                row[i] = v
                left[i] -= v
                yield from walk_entries(i + 1, room - v, profile + v)
                left[i] += v

        yield from walk_entries(0, lam_p[j] - mu_p[j], mu_p[j])
        rows.pop()

    yield from walk_rows(0)


def enumerate_fillings(mu, nu, lam) -> list:
    """All valid fillings for (mu, nu, lam), by row-wise backtracking.

    The filling size is the number of parts of lam.  Returns [] whenever the
    weights disagree or mu does not fit inside lam.
    """
    return [Filling(rows) for rows in _walk_fillings(mu, nu, lam)]


def count_fillings(mu, nu, lam) -> int:
    """The number of valid fillings for (mu, nu, lam), none of them built."""
    return sum(1 for _ in _walk_fillings(mu, nu, lam))


def _may_fill(mu_p, nu_p, lam_p) -> bool:
    """Whether (mu, nu, lam), each padded to one length r, passes two tests
    that every triple with a filling passes: nu fits inside lam, and lam is
    dominated by mu + nu.  So False means there is no filling; True
    decides nothing.

    Dominance: row j receives labels i <= j only, so the first k rows hold
    at most the nu_1 + ... + nu_k cells of labels 1..k, and lam_1 + ... +
    lam_k <= mu_1 + ... + mu_k + nu_1 + ... + nu_k.  Containment: the
    fillings of (mu, nu, lam) and of (nu, mu, lam) are equinumerous
    (c^lam_{mu nu} = c^lam_{nu mu}; Fulton, Young Tableaux, 1997, sec. 5),
    and every filling's shape contains its inner shape.
    """
    top = low = 0
    for m, n, l in zip(mu_p, nu_p, lam_p):
        top += m + n
        low += l
        if n > l or low > top:
            return False
    return True


def _partition_tuples(weight: int, floors: tuple):
    """The partitions of weight with at most len(floors) parts whose part k
    is at least floors[k], as tuples, largest first part first (decreasing
    lexicographic order).  floors must be weakly decreasing.

    Part k runs down from the largest value that leaves the rest of the
    weight enough to reach the later floors, to the larger of its floor and
    the least value that lets the slots still free hold the rest.  So every
    prefix the walk builds ends in a partition it yields.
    """
    max_len = len(floors)
    if weight < sum(floors) or (weight and not max_len):
        return
    tails = [sum(floors[k:]) for k in range(max_len + 1)]  # 0-based k

    def rec(remaining, k, cap, prefix):
        if remaining == 0:
            yield prefix
            return
        low = max(floors[k], -(-remaining // (max_len - k)), 1)
        for p in range(min(cap, remaining - tails[k + 1]), low - 1, -1):
            yield from rec(remaining - p, k + 1, p, prefix + (p,))

    yield from rec(weight, 0, weight, ())


def random_partition(rng, max_len: int, max_part: int) -> Partition:
    """Quick random partition: each part uniform under the previous one."""
    parts = []
    cap = max_part
    for _ in range(max_len):
        p = rng.randint(0, cap)
        if p == 0:
            break
        parts.append(p)
        cap = p
    return Partition(parts)
