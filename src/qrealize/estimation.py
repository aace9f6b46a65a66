"""Estimation distributions and densities.

Covers the multinomial type distribution, spectrum estimation over
partitions, exact expectation-value densities of Haar-random pure states
(nondegenerate, degenerate, and the qubit two-observable joint case), the
asymptotic Born ratio after repeated projective outcomes, and the two-basis
X/Z toy sampler.  The scheme's exact corner/balanced probabilities live in
the numpy-free ``toy_xz`` module and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .divergence import multinomial_mass, spectrum_of
from .partitions import Partition, partitions_of, schur_polynomial, specht_dim
from .tensor import Operator, as_matrix
# re-exported, so qrealize.estimation.toy_xz_exact_bounds is a name callers can hook
from .toy_xz import ToyXZBounds, toy_xz_exact_bounds, toy_xz_exact_fractions


def compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All length-d tuples of non-negative integers summing to n."""
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in compositions(n - first, d - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class TypeDistribution:
    """A finite distribution over integer count vectors (types).

    Used both for the multinomial type distribution (support = compositions)
    and for spectrum estimation (support = partitions padded to length d).
    """

    support: tuple[tuple[tuple[int, ...], float], ...]
    n: int
    d: int

    def __post_init__(self):
        total = 0.0
        for t, p in self.support:
            if p < -1e-12:
                raise ValueError(f"negative probability {p} at {t}")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution mass {total} is not 1")

    def prob(self, t: Sequence[int]) -> float:
        key = tuple(int(v) for v in t)
        for tt, p in self.support:
            if tt == key:
                return p
        return 0.0

    def argmax(self) -> tuple[int, ...]:
        return max(self.support, key=lambda item: item[1])[0]

    def mass(self, pred: Callable[[tuple[int, ...]], bool]) -> float:
        return sum(p for t, p in self.support if pred(t))


def multinomial_type_dist(q: Sequence[float], n: int) -> TypeDistribution:
    """Distribution of empirical counts after n iid draws from q."""
    if n < 0:
        raise ValueError("n must be non-negative")
    q = [float(v) for v in q]
    rows = tuple((t, multinomial_mass(q, t)) for t in compositions(n, len(q)))
    return TypeDistribution(rows, n, len(q))


def spectral_dist(rho, n: int) -> TypeDistribution:
    """Distribution of the estimated spectrum shape at n copies.

    p(lambda) = specht_dim(lambda) * s_lambda(spectrum); support is all
    partitions of n with at most d rows, padded with zeros to length d.
    """
    if isinstance(rho, Operator):
        spec = list(spectrum_of(rho))
    else:
        spec = sorted((float(v) for v in rho), reverse=True)
    d = len(spec)
    rows = []
    for lam in partitions_of(n, max_len=d):
        p = specht_dim(lam) * schur_polynomial(lam, spec)
        rows.append((lam.padded(d), max(float(p), 0.0)))
    return TypeDistribution(tuple(rows), n, d)


# ---------------------------------------------------------------------------
# Expectation-value densities


def _heaviside(t: float) -> float:
    if t > 0.0:
        return 1.0
    return 0.5 if t == 0.0 else 0.0


def density_nondegenerate(lam: Sequence[float], x) -> float | np.ndarray:
    """Density of <psi|X|psi> for Haar psi when X has distinct eigenvalues.

    f(x) = (d-1) sum_i (x - l_i)^{d-2} H(x - l_i) / prod_{j!=i}(l_j - l_i).
    """
    lam = sorted((float(v) for v in lam), reverse=True)
    d = len(lam)
    if d < 2:
        raise ValueError("need at least two eigenvalues")
    for a, b in zip(lam, lam[1:]):
        if abs(a - b) < 1e-12:
            raise ValueError(
                "repeated eigenvalues; use density_degenerate instead")

    def at(t: float) -> float:
        total = 0.0
        for i, li in enumerate(lam):
            denom = 1.0
            for j, lj in enumerate(lam):
                if j != i:
                    denom *= lj - li
            total += (t - li) ** (d - 2) * _heaviside(t - li) / denom
        return (d - 1) * total

    if np.ndim(x) == 0:
        return at(float(x))
    return np.array([at(float(t)) for t in np.asarray(x).ravel()]).reshape(np.shape(x))


def density_degenerate(eigs: Sequence[tuple[float, int]], x) -> float | np.ndarray:
    """Density of <psi|X|psi> for arbitrary multiplicities.

    ``eigs`` lists (eigenvalue, multiplicity) with distinct values and
    multiplicities summing to d >= 2.  Exact ties x = l_k take sign 0.
    """
    vals = [float(v) for v, _ in eigs]
    mults = [int(m) for _, m in eigs]
    ell = len(vals)
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be >= 1")
    if len(set(vals)) != ell:
        raise ValueError("eigenvalues must be distinct")
    d = sum(mults)
    if ell < 2:
        raise ValueError("a single eigenvalue gives a point mass, not a density")

    def tail_sum(k: int, mk: int) -> list[float]:
        # inner[M] = sum over {m_j >= 0, sum = M} of
        #   prod_{j != k} binom(d_j + m_j - 1, m_j) / (l_k - l_j)^{d_j + m_j}
        # built by convolving one factor per j != k.
        out = [1.0] + [0.0] * (mk - 1)
        for j in range(ell):
            if j == k:
                continue
            gap = vals[k] - vals[j]
            fac = [math.comb(mults[j] + m - 1, m) / gap ** (mults[j] + m)
                   for m in range(mk)]
            nxt = [0.0] * mk
            for a, va in enumerate(out):
                if va == 0.0:
                    continue
                for b in range(mk - a):
                    nxt[a + b] += va * fac[b]
            out = nxt
        return out

    def at(t: float) -> float:
        total = 0.0
        for k in range(ell):
            mk = mults[k]
            inner = tail_sum(k, mk)
            for m_cap in range(mk):
                power = d + m_cap - mk - 1
                diff = vals[k] - t
                lead = diff ** power * float(np.sign(diff)) * (-1) ** m_cap
                lead /= 2 * math.factorial(power) * math.factorial(mk - 1 - m_cap)
                total += lead * inner[m_cap]
        return math.gamma(d) * total

    if np.ndim(x) == 0:
        return at(float(x))
    return np.array([at(float(t)) for t in np.asarray(x).ravel()]).reshape(np.shape(x))


@dataclass(frozen=True)
class DensityCurve:
    """A sampled one-dimensional probability density.

    The grid straddles the support by half a step on each side so trapezoid
    integration reproduces unit mass even for piecewise-constant densities.
    """

    grid: np.ndarray
    values: np.ndarray
    total: float

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.min(self.values) < -1e-12:
            raise ValueError("density values must be non-negative")
        if abs(self.total - 1.0) > 1e-5:
            raise ValueError(f"curve integrates to {self.total}, not 1")

    def rows(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in zip(self.grid, self.values)]


def density_curve(fun, lo: float, hi: float, npoints: int = 2000) -> DensityCurve:
    """Sample ``fun`` on a half-step-offset grid covering [lo, hi]; the mass
    check integrates on max(npoints, 2000) steps, past a coarse grid's error."""
    if npoints < 1:
        raise ValueError(f"need at least one grid point, got npoints={npoints}")
    curves = {}
    for steps in {npoints, max(npoints, 2000)}:
        step = (hi - lo) / steps
        grid = lo - step / 2 + step * np.arange(steps + 2)
        curves[steps] = grid, np.asarray([max(float(fun(t)), 0.0) for t in grid])
    fine_grid, fine_values = curves[max(npoints, 2000)]
    return DensityCurve(*curves[npoints], float(np.trapezoid(fine_values, fine_grid)))


def density_qubit_pair(a_op, b_op, point: Sequence[float]) -> float:
    """Joint density of (<A>, <B>) for a Haar qubit and two traceless,
    linearly independent observables.

    f(a,b) = H(1 - w) / (2 pi sqrt(det T (1 - w^2))) with T the Gram matrix
    of the observables in the normalized trace inner product <A,B> =
    Tr(A B)/2 and w^2 = (a,b) T^{-1} (a,b)^T.  Points on or outside the
    support rim get 0 (the rim carries no mass).
    """
    amat, bmat = as_matrix(a_op), as_matrix(b_op)
    for m in (amat, bmat):
        if m.shape != (2, 2):
            raise ValueError("observables must be 2x2")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("observables must be Hermitian")
        if abs(np.trace(m)) > 1e-10:
            raise ValueError("observables must be traceless")
    gram = np.array([
        [np.real(np.trace(amat @ amat)), np.real(np.trace(amat @ bmat))],
        [np.real(np.trace(bmat @ amat)), np.real(np.trace(bmat @ bmat))],
    ]) / 2
    det = float(np.linalg.det(gram))
    if det < 1e-12:
        raise ValueError("observables are linearly dependent")
    pt = np.asarray([float(point[0]), float(point[1])])
    omega_sq = float(pt @ np.linalg.solve(gram, pt))
    if omega_sq >= 1.0:
        return 0.0
    return 1.0 / (2 * math.pi * math.sqrt(det * (1.0 - omega_sq)))


# ---------------------------------------------------------------------------
# Asymptotic Born ratio


def born_ratio(p_op, q_op, n: int) -> float:
    """Probability of outcome Q after n repeated observations of P.

    Exactly (Tr Q + n Tr(rho_P Q)) / (d + n) with rho_P = P / Tr P; tends to
    the Born probability Tr(rho_P Q) as n grows.
    """
    pmat, qmat = as_matrix(p_op), as_matrix(q_op)
    if n < 0:
        raise ValueError("n must be non-negative")
    if np.max(np.abs(pmat @ pmat - pmat)) > 1e-8:
        raise ValueError("P must be a projector")
    if np.max(np.abs(qmat - qmat.conj().T)) > 1e-8:
        raise ValueError("Q must be Hermitian")
    d = pmat.shape[0]
    tr_p = float(np.real(np.trace(pmat)))
    if tr_p < 0.5:
        raise ValueError("P must be a nonzero projector")
    tr_q = float(np.real(np.trace(qmat)))
    born = float(np.real(np.trace(pmat @ qmat))) / tr_p
    return (tr_q + n * born) / (d + n)


# ---------------------------------------------------------------------------
# The two-basis X/Z toy scheme


def _sphere_points(rng: np.random.Generator, trials: int) -> np.ndarray:
    pts = rng.normal(size=(trials, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def toy_xz_simulate(m: int, trials: int, seed: int = 0) -> np.ndarray:
    """Empirical (<X>, <Z>) estimates from m shots per basis on Haar qubits.

    Returns a (trials, 2) array of empirical means; deterministic for a
    fixed seed.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    pts = _sphere_points(rng, trials)
    x, z = pts[:, 0], pts[:, 2]
    kx = rng.binomial(m, (1 + x) / 2)
    kz = rng.binomial(m, (1 + z) / 2)
    return np.column_stack([2 * kx / m - 1, 2 * kz / m - 1])
