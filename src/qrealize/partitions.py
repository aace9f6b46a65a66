"""Exact combinatorics: partitions, S_n characters, Schur polynomials,
Littlewood-Richardson coefficients, the finite-difference/cumulative-sum
bridge between spectra and partitions, and double cosets of product
subgroups inside S_{nk}.

Everything is computed in exact integer arithmetic.  Schur polynomial
values are exact rationals (every float is a dyadic rational), rounded once
to float.  The module imports no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence


@dataclass(frozen=True, order=True)
class Partition:
    """A non-increasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be non-increasing: {parts}")

    @staticmethod
    def of(seq: Iterable[int]) -> "Partition":
        """Build from any integer sequence, dropping trailing zeros."""
        parts = [int(p) for p in seq]
        while parts and parts[-1] == 0:
            parts.pop()
        return Partition(tuple(parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def padded(self, d: int) -> tuple[int, ...]:
        """Parts padded with zeros to length d (d >= length)."""
        if d < len(self.parts):
            raise ValueError(f"cannot pad length-{len(self.parts)} partition to {d}")
        return self.parts + (0,) * (d - len(self.parts))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        conj = [sum(1 for p in self.parts if p > j) for j in range(self.parts[0])]
        return Partition(tuple(conj))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"Partition{self.parts}"


EMPTY = Partition(())


def _gen_partitions(n: int, max_part: int, max_len: int):
    if n == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - first, first, max_len - 1):
            yield (first,) + rest


def partitions_of(n: int, max_len: int) -> list[Partition]:
    """All partitions of n with at most max_len parts, in decreasing
    lexicographic order (so (n) first)."""
    if n < 0 or max_len < 1:
        raise ValueError("need n >= 0 and max_len >= 1")
    return [Partition(p) for p in _gen_partitions(n, n, max_len)]


def all_cycle_types(n: int) -> list[Partition]:
    return partitions_of(n, n) if n > 0 else [EMPTY]


def conjugacy_class_size(t: Partition) -> int:
    """Number of permutations in S_n with cycle type t (n = |t|)."""
    n = t.size
    z = 1
    for m in set(t.parts):
        a = t.parts.count(m)
        z *= m ** a * math.factorial(a)
    return math.factorial(n) // z


def set_cycles(perm: Sequence[int]) -> list[list[int]]:
    """Cycle decomposition; each cycle listed in iteration order from its
    smallest unvisited element."""
    seen = [False] * len(perm)
    cycles = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        cyc = []
        t = s
        while not seen[t]:
            seen[t] = True
            cyc.append(t)
            t = perm[t]
        cycles.append(cyc)
    return cycles


def cycle_type(perm: Sequence[int]) -> Partition:
    """Cycle type of a permutation in one-line notation."""
    return Partition(tuple(sorted(map(len, set_cycles(perm)), reverse=True)))


@cache
def specht_dim(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    n = lam.size
    if n == 0:
        return 1
    conj = lam.conjugate().parts
    hooks = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(n) // hooks


@cache
def weyl_dim(lam: Partition, d: int) -> int:
    """Count of semistandard tableaux of shape lam with entries in 1..d;
    zero when the shape has more than d rows."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if lam.length > d:
        return 0
    row = lam.padded(d)
    val = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            val *= Fraction(row[i] - row[j] + j - i, j - i)
    assert val.denominator == 1
    return int(val)


# ---------------------------------------------------------------------------
# Schur polynomial values


def _dyadic_numerators(x: Sequence[float]) -> tuple[list[int], int]:
    """Integers a_i and one power of two D with x_i = a_i / D exactly (every
    finite float is a dyadic rational); ValueError names a non-finite x_i."""
    ratios = []
    for v in map(float, x):
        if not math.isfinite(v):
            raise ValueError(f"coordinate {v} is not finite")
        ratios.append(v.as_integer_ratio())
    den = max((d for _, d in ratios), default=1)
    return [num * (den // d) for num, d in ratios], den


def _int_quotient(num: int, den: int) -> float:
    """num / den for integers, den > 0, rounded once; +-inf when the quotient
    lies past float range, as IEEE division of floats gives."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (overwrites m)."""
    prev = 1
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:  # a swap with one row negated keeps the determinant
            m[c], m[pivot] = m[pivot], [-v for v in m[c]]
        for r in range(c + 1, len(m)):
            for j in range(c + 1, len(m)):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
        prev = m[c][c]
    return prev


def schur_polynomial(lam: Partition, x: Sequence[float]) -> float:
    """Value of the Schur polynomial s_lam at the point x, exact and rounded
    once: with x_i = a_i / D, s_lam(x) is the integer Jacobi-Trudi
    determinant det(h_{lam_i-i+j}(a)) divided by D**|lam|.

    0 when the shape is longer than the point (vanishing multiplicity);
    ValueError on a non-finite coordinate.
    """
    if lam.length > len(x):
        return 0.0
    a, den = _dyadic_numerators(x)
    ell = lam.length
    h = [0] * ell + [1] + [0] * lam.size  # h[ell + m] = h_m(a); 0 for m < 0
    for ai in a:
        for m in range(ell + 1, len(h)):
            h[m] += ai * h[m - 1]
    jt = [[h[ell + p - i + j] for j in range(ell)] for i, p in enumerate(lam.parts)]
    return _int_quotient(_bareiss_det(jt), den ** lam.size)


# ---------------------------------------------------------------------------
# Characters: Murnaghan-Nakayama with beta-number border-strip removal


def _beta_set(lam: Partition, length: int) -> tuple[int, ...]:
    row = lam.padded(length)
    return tuple(row[i] + (length - 1 - i) for i in range(length))


def _partition_from_beta(beta: Sequence[int]) -> Partition:
    srt = sorted(beta, reverse=True)
    return Partition.of(tuple(srt[i] - (len(srt) - 1 - i) for i in range(len(srt))))


@cache
def _mn(lam: Partition, cls: tuple[int, ...]) -> int:
    if not cls:
        return 1 if lam.size == 0 else 0
    r, rest = cls[0], cls[1:]
    length = max(lam.length, 1)
    beta = list(_beta_set(lam, length))
    present = set(beta)
    total = 0
    for idx, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in present:
            continue
        # strip height = number of occupied beta values jumped over
        height = sum(1 for c in beta if nb < c < b)
        new_beta = beta[:idx] + [nb] + beta[idx + 1:]
        total += (-1) ** height * _mn(_partition_from_beta(new_beta), rest)
    return total


def mn_character(lam: Partition, cls: Partition) -> int:
    """Character of the S_n irreducible labeled lam at the class of cycle
    type cls (Murnaghan-Nakayama recursion)."""
    if lam.size != cls.size:
        raise ValueError(f"|lam|={lam.size} but |class|={cls.size}")
    # recurse on longest cycles first: fewer strip choices near the top
    return _mn(lam, tuple(sorted(cls.parts, reverse=True)))


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients by lattice-word skew tableaux


def littlewood_richardson(alpha: Partition, beta: Partition, lam: Partition) -> int:
    """The multiplicity c^lam_{alpha,beta}.

    Counts skew semistandard fillings of lam/alpha with content beta whose
    reverse reading word (right-to-left, top-to-bottom) is a lattice word.
    """
    if lam.size != alpha.size + beta.size:
        return 0
    arow = alpha.padded(lam.length) if alpha.length <= lam.length else None
    if arow is None or any(arow[i] > lam.parts[i] for i in range(lam.length)):
        return 0  # alpha not contained in lam
    nrows = lam.length
    brow = beta.parts
    nvals = len(brow)
    # cells in reverse reading order
    cells = [(i, j) for i in range(nrows) for j in range(lam.parts[i] - 1, arow[i] - 1, -1)]
    if not cells:
        return 1 if beta.size == 0 else 0
    grid = [[0] * lam.parts[i] for i in range(nrows)]
    cnt = [0] * (nvals + 1)
    found = 0

    def place(ci: int):
        nonlocal found
        if ci == len(cells):
            found += 1
            return
        i, j = cells[ci]
        lo, hi = 1, nvals
        if i > 0 and j < len(grid[i - 1]) and grid[i - 1][j] > 0:
            lo = max(lo, grid[i - 1][j] + 1)  # strict down the column
        if j + 1 < lam.parts[i] and grid[i][j + 1] > 0:
            hi = min(hi, grid[i][j + 1])      # weak along the row
        for v in range(lo, hi + 1):
            if cnt[v] >= brow[v - 1]:
                continue
            if v > 1 and cnt[v] + 1 > cnt[v - 1]:
                continue  # lattice word violated
            cnt[v] += 1
            grid[i][j] = v
            place(ci + 1)
            grid[i][j] = 0
            cnt[v] -= 1

    place(0)
    return found


# ---------------------------------------------------------------------------
# The finite-difference / cumulative-sum bridge


def finite_difference(x: Sequence[float]):
    """delta_i(x) = x_i - x_{i+1}, with the final entry x_d itself.

    Input must be non-increasing (a spectrum or padded partition); the output
    is entrywise non-negative and cumulative() inverts it.
    """
    x = list(x)
    for i in range(len(x) - 1):
        if x[i] < x[i + 1] - 1e-12:
            raise ValueError(f"input not non-increasing at position {i}: {x}")
    return [x[i] - x[i + 1] for i in range(len(x) - 1)] + [x[-1]]


def cumulative(y: Sequence[float]):
    """gamma_i(y) = y_i + ... + y_d; inverse of finite_difference."""
    y = list(y)
    out = []
    acc = 0
    for v in reversed(y):
        acc = acc + v
        out.append(acc)
    return out[::-1]


def approx_partition(s: Sequence[float], n: int) -> Partition:
    """Integer shape lam with delta_i(lam) = ceil(delta_i(n*s)).

    The size obeys n <= |lam| <= n + d(d+1)/2 - 1, and flat stretches of s
    stay flat in lam.  Ceilings are taken with a 1e-9 downward nudge so that
    float representations of exact integers (e.g. 10 x 0.3) do not round up.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = [float(v) for v in s]
    ds = finite_difference([n * v for v in s])
    dl = [max(0, math.ceil(v - 1e-9)) for v in ds]
    return Partition.of(cumulative(dl))


# ---------------------------------------------------------------------------
# Double cosets of S_n x ... x S_n in S_{nk}


def _matrices_with_margins(n: int, k: int):
    """All k x k non-negative integer matrices with row and column sums n."""
    def rows(remaining_cols: tuple[int, ...], rows_left: int):
        if rows_left == 0:
            if all(c == 0 for c in remaining_cols):
                yield ()
            return
        # one row summing to n, entry j capped by remaining column budget
        def row_fill(j: int, left: int):
            if j == k - 1:
                if left <= remaining_cols[j]:
                    yield (left,)
                return
            for v in range(min(left, remaining_cols[j]), -1, -1):
                for rest in row_fill(j + 1, left - v):
                    yield (v,) + rest

        for row in row_fill(0, n):
            new_cols = tuple(remaining_cols[j] - row[j] for j in range(k))
            for rest in rows(new_cols, rows_left - 1):
                yield (row,) + rest

    yield from rows((n,) * k, k)


def coset_cardinality(mat: Sequence[Sequence[int]], n: int) -> int:
    """(n!)^{2k} / prod(l_ij!) — the orbit-stabilizer size of the double coset."""
    k = len(mat)
    num = math.factorial(n) ** (2 * k)
    den = 1
    for row in mat:
        for v in row:
            den *= math.factorial(v)
    return num // den


def coset_representative(mat: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """The unique doubly order-preserving permutation in the double coset.

    Within source block i, the first l_i1 elements go to block 1, the next
    l_i2 to block 2, and so on; each target block fills in increasing order.
    One-line notation: position s holds the image of s.
    """
    k = len(mat)
    perm = [0] * (n * k)
    next_free = [j * n for j in range(k)]
    pos = 0
    for i in range(k):
        for j in range(k):
            for _ in range(mat[i][j]):
                perm[pos] = next_free[j]
                next_free[j] += 1
                pos += 1
    return tuple(perm)


def double_cosets(n: int, k: int):
    """List of (matrix, cardinality, representative) for S_n^k \\ S_nk / S_n^k.

    Matrices are k x k with all margins n; cardinalities sum to (nk)!.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    out = []
    for mat in _matrices_with_margins(n, k):
        out.append((mat, coset_cardinality(mat, n), coset_representative(mat, n)))
    return out
