"""Torus representations: moment maps, capacity minimization, weight-hull
membership, fixed-subspace projectors, and the occasionality decay probe.

A torus of rank r acts diagonally with integer weight vectors; the capacity
of a vector is the infimum of the transformed norm over the group, reached
by minimizing the convex function g(x) = sum_w e^{w.x} |v_w|^2.  Capacity
vanishes exactly when the convex hull of the supported weights misses the
origin, which hull_membership decides exactly in rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .config import BUDGET, Budgets
from .tensor import Operator, _exact_int, _kron_power, as_matrix, power_space, space


@dataclass(frozen=True)
class TorusRep:
    """Diagonal action of a rank-r torus, one integer weight per block."""

    rank: int
    weights: tuple[tuple[int, ...], ...]
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if len(self.weights) != len(self.block_sizes):
            raise ValueError("one block size per weight required")
        if len(set(self.weights)) != len(self.weights):
            raise ValueError("weights must be distinct")
        for w in self.weights:
            if len(w) != self.rank:
                raise ValueError(f"weight {w} does not have rank {self.rank} entries")
        if any(b < 1 for b in self.block_sizes):
            raise ValueError("block sizes must be >= 1")

    @property
    def dim(self) -> int:
        return sum(self.block_sizes)

    def block_slices(self) -> list[slice]:
        out, start = [], 0
        for b in self.block_sizes:
            out.append(slice(start, start + b))
            start += b
        return out

    def coordinate_weights(self) -> np.ndarray:
        """One weight row per basis coordinate, blocks expanded."""
        rows = []
        for w, b in zip(self.weights, self.block_sizes):
            rows.extend([w] * b)
        return np.array(rows, dtype=np.int64)


def _int_weight(w) -> tuple[int, ...]:
    """One weight as a tuple of ints; a fractional coordinate is a ValueError."""
    coords = tuple(w) if hasattr(w, "__len__") else (w,)
    ints = tuple(_exact_int(c) for c in coords)
    if None in ints:
        raise ValueError(f"weight {list(coords)} is not an integer vector")
    return ints


def _int_block(b) -> int:
    """One block size as an int; a fractional size is a ValueError."""
    size = _exact_int(b)
    if size is None:
        raise ValueError(f"block size {b} is not an integer")
    return size


def torus_rep(weights: Sequence[Sequence[int]], block_sizes: Sequence[int] | None = None) -> TorusRep:
    ws = tuple(_int_weight(w) for w in weights)
    rank = len(ws[0]) if ws else 1
    sizes = tuple(_int_block(b) for b in block_sizes) if block_sizes else (1,) * len(ws)
    return TorusRep(rank, ws, sizes)


def _as_vector(rep: TorusRep, v) -> np.ndarray:
    vec = np.asarray(v, dtype=np.complex128).ravel()
    if vec.size != rep.dim:
        raise ValueError(f"vector length {vec.size} != representation dim {rep.dim}")
    return vec


def _block_mass(rep: TorusRep, vec: np.ndarray) -> np.ndarray:
    return np.array([float(np.sum(np.abs(vec[sl]) ** 2)) for sl in rep.block_slices()])


def moment_map(rep: TorusRep, v) -> np.ndarray:
    """sum_w (|v_w|^2 / |v|^2) w — a point in the hull of supported weights."""
    vec = _as_vector(rep, v)
    mass = _block_mass(rep, vec)
    total = float(mass.sum())
    if total <= 0.0:
        raise ValueError("moment map of the zero vector is undefined")
    return (mass / total) @ np.array(rep.weights, dtype=float)


def kempf_ness(rep: TorusRep, v, x) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient, and Hessian of g(x) = sum_w e^{w.x} |v_w|^2."""
    vec = _as_vector(rep, v)
    mass = _block_mass(rep, vec)
    wmat = np.array(rep.weights, dtype=float)
    x = np.asarray(x, dtype=float)
    terms = mass * np.exp(wmat @ x)
    value = float(terms.sum())
    grad = terms @ wmat
    hess = wmat.T @ (terms[:, None] * wmat)
    return value, grad, hess


class HullResult(NamedTuple):
    inside: bool
    coefficients: tuple[float, ...] | None
    separator: np.ndarray | None
    margin: float


def _exact_hull_feasibility(weights, target) -> HullResult:
    # Phase-1 simplex on sum c_i w_i = t, sum c_i = 1, c >= 0, one artificial
    # per row, Bland's rules.  Scaling every row by the common denominator of
    # t makes the tableau integral, and Edmonds' fraction-free pivot keeps it
    # so: each entry is the rational tableau's entry times det, the
    # determinant of the current basis, which stays positive, and every
    # update divides exactly by the previous det.
    den = math.lcm(*(t.denominator for t in target))
    ncols, nrows = len(weights), len(target) + 1
    tab, signs = [], []
    for i, rhs in enumerate([*target, 1]):
        arow = [w[i] for w in weights] if i < len(target) else [1] * ncols
        sign = -1 if rhs < 0 else 1
        signs.append(sign)
        tab.append([sign * den * a for a in arow] + [int(k == i) for k in range(nrows)]
                   + [int(sign * den * rhs)])
    tab.append([sum(col) for col in zip(*tab)])    # the phase-1 objective row
    basis = [ncols + i for i in range(nrows)]
    det = 1
    while True:
        enter = next((j for j in range(ncols) if tab[-1][j] > 0), None)
        if enter is None:
            break
        pivot_row, best = None, None
        for i in range(nrows):
            if tab[i][enter] > 0:
                ratio = Fraction(tab[i][-1], tab[i][enter])
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    pivot_row, best = i, ratio
        if pivot_row is None:
            raise ArithmeticError("phase-1 simplex found an unbounded direction")
        prow = tab[pivot_row]
        piv = prow[enter]
        for i, row in enumerate(tab):
            if i != pivot_row:
                f = row[enter]
                tab[i] = [(piv * a - f * b) // det for a, b in zip(row, prow)]
        det = piv
        basis[pivot_row] = enter

    obj = tab[-1]
    if obj[-1] == 0:
        coeffs = [0.0] * ncols
        for i, b in enumerate(basis):
            if b < ncols:
                coeffs[b] = tab[i][-1] / det
        return HullResult(True, tuple(coeffs), None, 0.0)
    # Farkas certificate: y with y.A <= 0 and y.b > 0 read off the artificial
    # columns (times det / den > 0), so s = -y on the target rows has
    # min_w s.w - s.t > 0 exactly
    sep = [-signs[i] * obj[ncols + i] for i in range(nrows - 1)]
    norm = math.hypot(*(float(c) for c in sep))
    gap = (min(sum(s * c for s, c in zip(sep, w)) for w in weights)
           - sum(s * c for s, c in zip(sep, target)))
    return HullResult(False, None, np.array([float(c) for c in sep]) / norm, gap / norm)


def hull_membership(weights: Sequence[Sequence[int]], target: Sequence[float]) -> HullResult:
    """Decide target in conv(weights), with convex coefficients or a strictly
    separating hyperplane as certificate.

    One route decides every input: a phase-1 simplex over the rationals with
    Bland's entering and leaving rules, so it is exact and terminates.
    Weights must be integer vectors; a fractional weight coordinate, or a
    non-finite target coordinate, is a ValueError.  A float target is
    decided as the dyadic rational it denotes: (0.2,) * 5 sums to
    1 + 5.6e-17, so it lies outside the simplex of the unit vectors of R^5,
    while Fraction(1, 5) coordinates lie inside.  Inside, the coefficients
    are the exact rationals rounded once.  Outside, the separator s is a
    unit vector with s.w > s.t for every weight w, and the margin
    min_w s.w - s.t is exact up to one division by the float norm of the
    rational separator; it is positive however small.
    """
    ws = [_int_weight(w) for w in weights]
    if not ws:
        raise ValueError("need at least one weight")
    coords = tuple(target) if hasattr(target, "__len__") else (target,)
    if len(coords) != len(ws[0]):
        raise ValueError("target rank mismatch")
    for c in coords:
        if not isinstance(c, numbers.Rational) and not math.isfinite(c):
            raise ValueError(f"target coordinate {c} is not finite")
    tgt = [Fraction(c if isinstance(c, numbers.Rational) else float(c)) for c in coords]
    return _exact_hull_feasibility(ws, tgt)


@dataclass(frozen=True)
class CapacityResult:
    value: float
    minimizer: np.ndarray | None
    moment: np.ndarray
    unbounded: bool
    separator: np.ndarray | None = None

    def to_json(self) -> dict:
        return {
            "capacity": self.value,
            "minimizer": None if self.minimizer is None else [float(c) for c in self.minimizer],
            "moment_map": [float(c) for c in self.moment],
            "unbounded": self.unbounded,
        }


_TOL_GRAD, _MAX_ITER = 1e-8, 500  # moment-map norm counted as zero; Newton steps


def capacity(rep: TorusRep, v) -> CapacityResult:
    """Infimum of the transformed norm over the torus orbit closure.

    Runs a damped Newton iteration on g from x = 0 after an upfront hull
    test; reports value 0 with a separator when the hull of the supported
    weights (block mass > 0) excludes the origin.  At a minimizer the moment
    map is zero to relative gradient 1e-8, or 500 steps raise ArithmeticError.
    """
    vec = _as_vector(rep, v)
    mass = _block_mass(rep, vec)
    if mass.sum() <= 0.0:
        raise ValueError("capacity of the zero vector is undefined")
    supported = [w for w, a in zip(rep.weights, mass) if a > 0.0]
    hull = hull_membership(supported, (0,) * rep.rank)
    base_moment = moment_map(rep, vec)
    if not hull.inside:
        return CapacityResult(0.0, None, base_moment, True, hull.separator)

    x = np.zeros(rep.rank)
    for _ in range(_MAX_ITER):
        value, grad, hess = kempf_ness(rep, vec, x)
        if np.linalg.norm(grad) / value <= _TOL_GRAD:
            return CapacityResult(math.sqrt(value), x, grad / value, False)
        ridge = 1e-12 * max(1.0, float(np.trace(hess)))
        step = -np.linalg.solve(hess + ridge * np.eye(rep.rank), grad)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            trial = kempf_ness(rep, vec, x + t * step)[0]
            if trial <= value + 1e-4 * t * slope:
                break
            t /= 2
        x = x + t * step
        if np.linalg.norm(x) > 1e3:
            raise ArithmeticError(
                f"minimizer escaped to |x| = {np.linalg.norm(x):.3g} although the "
                "weight hull contains the origin; g may be flat along a face")
    raise ArithmeticError(
        f"Newton failed to reach gradient tolerance {_TOL_GRAD} in {_MAX_ITER} "
        f"iterations (last relative gradient {np.linalg.norm(grad) / value:.3g})")


# ---------------------------------------------------------------------------
# Fixed subspaces


def _match_member(mat: np.ndarray, members: list[np.ndarray]) -> bool:
    return any(np.max(np.abs(mat - g)) <= 1e-8 for g in members)


def fixed_subspace_projector(rep_or_group, n: int, budget: Budgets = BUDGET) -> Operator:
    """Projector onto the vectors fixed by the n-fold action.

    For a finite group given by its unitary matrices, averages the n-fold
    tensor powers over the group (after validating closure under products);
    the average is real when every group matrix is.  For a TorusRep, selects
    the multi-indices whose coordinate weights sum to zero, as a real
    diagonal.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(rep_or_group, TorusRep):
        rep = rep_or_group
        d = rep.dim
        budget.check_dense(d ** n, "fixed-subspace projector")
        wrows = rep.coordinate_weights()
        sums = np.zeros((1, rep.rank), dtype=np.int64)
        for _ in range(n):
            sums = (sums[:, None, :] + wrows[None, :, :]).reshape(-1, rep.rank)
        mask = np.all(sums == 0, axis=1).astype(np.float64)
        sp = power_space(space(("V", d)), n)
        return Operator(sp, np.diag(mask))

    members = [as_matrix(g) for g in rep_or_group]
    if not members:
        raise ValueError("empty group")
    d = members[0].shape[0]
    for g in members:
        if g.shape != (d, d):
            raise ValueError("group matrices must share one square shape")
    for g, h in itertools.product(members, members):
        if not _match_member(g @ h, members):
            raise ValueError("matrix set is not closed under products")
    budget.check_dense(d ** n, "fixed-subspace projector")
    total = np.zeros((d ** n, d ** n), dtype=np.result_type(*members))
    for g in members:
        total += _kron_power(g, n)
    total /= len(members)
    if np.max(np.abs(total @ total - total)) > 1e-8:
        raise ArithmeticError("group average is not idempotent")
    sp = power_space(space(("V", d)), n)
    return Operator(sp, total)


# ---------------------------------------------------------------------------
# Occasionality probe


@dataclass(frozen=True)
class OccasionalityTable:
    rows: tuple[tuple[int, float, float], ...]
    exponent: int
    verdict: str


def _zero_sum_mass(weights: np.ndarray, mass: np.ndarray, n: int) -> float:
    """P(n iid draws of the weight rows, with probabilities mass, sum to 0)."""
    low = weights.min(axis=0)
    spans = weights.max(axis=0) - low  # shifted sums of k draws lie in [0, k * span]
    BUDGET.check_entries(math.prod(n * int(span) + 1 for span in spans),
                         f"occasionality p_{n} box")
    dist = np.ones((1,) * len(spans))
    for k in range(1, n + 1):
        nxt = np.zeros(k * spans + 1)
        for step, m in zip(weights - low, mass):
            nxt[tuple(slice(a, a + d) for a, d in zip(step, dist.shape))] += m * dist
        dist = nxt
    origin = -n * low
    return float(dist[tuple(origin)]) if np.all((origin >= 0) & (origin < dist.shape)) else 0.0


def occasionality_probe(rep: TorusRep, psi, n_list: Sequence[int]) -> OccasionalityTable:
    """Decay profile of p_n = Tr(P_psi^{(x)n} . fixed-subspace projector).

    p_n is the probability that n iid weights, drawn with the block masses of
    the unit psi (support: block mass > 0), sum to zero: n shift-adds of the
    running sum's distribution over its dense box of reachable sums.  A box
    past ``BUDGET.dense_dim ** 2`` entries raises ResourceBudgetError before
    it is allocated; n < 0 is a ValueError.

    When the moment map of psi vanishes the sequence decays only
    polynomially and the scaled column n^{c/2} p_n stays bounded, with c the
    dimension spanned by the supported weights; otherwise the probe reports
    the exponential-decay regime.
    """
    mass = _block_mass(rep, _as_vector(rep, psi))
    if mass.sum() <= 0:
        raise ValueError("state must be nonzero")
    supported = mass > 0.0
    weights = np.array(rep.weights, dtype=np.int64)[supported]
    exponent = int(np.linalg.matrix_rank(weights))
    occasional = np.linalg.norm(moment_map(rep, psi)) <= _TOL_GRAD
    verdict = "OCCASIONAL" if occasional else "EXPONENTIAL_DECAY"
    rows = []
    for n in n_list:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        p = _zero_sum_mass(weights, mass[supported] / mass.sum(), int(n))
        rows.append((int(n), p, n ** (exponent / 2) * p))
    return OccasionalityTable(tuple(rows), exponent, verdict)
