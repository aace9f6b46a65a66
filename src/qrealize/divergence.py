"""Generalized power functions, the Keyl divergence, classical divergences,
Sanov bounds, and the constructive discrimination sequence.

The central object is Delta_x(rho) = prod_i lpm_i(rho)^{delta_i(x)} — leading
principal minors raised to finite differences of a non-increasing exponent
vector x, with 0^0 = 1.  Its logarithmic contrast between a state and its
diagonalizing frame applied to another state is the Keyl divergence, which
drives exponential one-sided discrimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import TOL
from .partitions import Partition, _dyadic_numerators, _int_quotient, approx_partition, \
    finite_difference
from .tensor import DensityOperator, as_matrix


def leading_principal_minors(x) -> np.ndarray:
    """Determinants of the upper-left i x i blocks, i = 1..d.

    Magnitudes below 1e-300 are flushed to exact zero so downstream powers
    never operate on denormal noise.
    """
    mat = as_matrix(x)
    d = mat.shape[0]
    out = np.empty(d)
    for i in range(1, d + 1):
        val = np.linalg.det(mat[:i, :i])
        val = float(np.real(val)) if abs(val.imag) < 1e-9 * max(1.0, abs(val)) else val
        if abs(val) < 1e-300:
            val = 0.0
        out[i - 1] = val
    return out


def _ceil_nudged(v: float) -> int:
    # float images of exact integers (0.3 * 10 and friends) must not round up
    return math.ceil(v - 1e-9)


def gen_power(x: Sequence[float], rho) -> float:
    """prod_i lpm_i(rho)^{x_i - x_{i+1}} with 0^0 = 1.

    ``x`` must be non-increasing and non-negative (a partition padded with
    zeros, or any sorted exponent vector).  A negative minor raised to a
    non-integer exponent has no real value and raises.
    """
    lpm = leading_principal_minors(rho)
    deltas = finite_difference([float(v) for v in x])
    if len(deltas) != len(lpm):
        raise ValueError(f"exponent length {len(deltas)} != operator size {len(lpm)}")
    out = 1.0
    for base, expo in zip(lpm, deltas):
        if expo == 0.0:
            continue  # 0^0 = 1 convention, and skip exact-zero exponents
        if base < 0.0:
            if abs(base) < 1e-12:
                base = 0.0
            elif abs(expo - round(expo)) > 1e-12:
                raise ValueError(
                    f"negative minor {base} with non-integer exponent {expo}")
        if base == 0.0:
            if expo > 0.0:
                return 0.0
            raise ZeroDivisionError("zero minor with negative exponent")
        out *= base ** expo
    return out


@dataclass(frozen=True)
class DiagonalizingFrame:
    """Unitary U and non-increasing spectrum s with rho = U diag(s) U*.

    Column phases are fixed by making each column's first significantly
    nonzero entry real positive; for degenerate spectra the frame is still a
    valid diagonalizer but not canonical.
    """

    u: np.ndarray
    spectrum: np.ndarray

    @staticmethod
    def of(rho) -> "DiagonalizingFrame":
        mat = as_matrix(rho)
        mat = (mat + mat.conj().T) / 2
        w, v = np.linalg.eigh(mat)
        order = np.argsort(w)[::-1]
        w = w[order]
        v = v[:, order]
        for j in range(v.shape[1]):
            col = v[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            anchor = col[nz[0]] if nz.size else 1.0
            v[:, j] = col * (abs(anchor) / anchor)
        d = mat.shape[0]
        if np.max(np.abs(v.conj().T @ v - np.eye(d))) > 1e-10:
            raise ArithmeticError("eigenvector frame lost unitarity")
        if np.max(np.abs(v @ np.diag(w) @ v.conj().T - mat)) > 1e-9:
            raise ArithmeticError("frame does not reconstruct the operator")
        w = np.clip(w, 0.0, None) if w.min() > -1e-9 else w
        return DiagonalizingFrame(v, w)

    def conjugated(self, other) -> np.ndarray:
        """U* other U — the other operator seen in this frame's basis."""
        mat = as_matrix(other)
        return self.u.conj().T @ mat @ self.u


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """sum_i p_i (ln p_i - ln q_i), with 0 ln 0 = 0 and +inf off-support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("length mismatch")
    tot = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            tot += pi * (math.log(pi) - math.log(qi))
    return max(tot, 0.0)


def keyl_divergence(rho, sigma) -> float:
    """Exponential separation rate of sigma from rho under rho's frame.

    K = sum_i s_i ln s_i - delta_i(s) ln lpm_i(U* sigma U); +inf when a minor
    with positive exponent vanishes.  Reduces to the classical relative
    entropy of the spectra when the two operators commute, and never exceeds
    the quantum relative entropy.
    """
    frame = DiagonalizingFrame.of(rho)
    s = np.clip(frame.spectrum, 0.0, None)
    lpm = leading_principal_minors(frame.conjugated(sigma))
    deltas = finite_difference(list(s))
    total = sum(si * math.log(si) for si in s if si > 0.0)
    for base, expo in zip(lpm, deltas):
        if expo <= 1e-15:
            continue
        if base <= 0.0:
            return math.inf
        total -= expo * math.log(base)
    if abs(total) < 1e-12:
        return 0.0
    return total


def quantum_relative_entropy(rho, sigma) -> float:
    """Tr rho (ln rho - ln sigma); +inf when rho's support leaks outside
    sigma's."""
    rmat = as_matrix(rho)
    smat = as_matrix(sigma)
    rw, rv = np.linalg.eigh((rmat + rmat.conj().T) / 2)
    sw, sv = np.linalg.eigh((smat + smat.conj().T) / 2)
    rw = np.clip(rw, 0.0, None)
    sw = np.clip(sw, 0.0, None)
    ent = sum(w * math.log(w) for w in rw if w > 1e-15)
    cross = 0.0
    for j, wj in enumerate(sw):
        # weight of rho on sigma's j-th eigenvector
        wt = float(np.real(sv[:, j].conj() @ rmat @ sv[:, j]))
        if wt < 1e-15:
            continue
        if wj <= 1e-15:
            return math.inf
        cross += wt * math.log(wj)
    return ent - cross


class SanovCheck(NamedTuple):
    lower: float
    value: float
    upper: float
    ok: bool


def multinomial_mass(q: Sequence[float], lam: Sequence[int]) -> float:
    """Probability of the type lam under n iid draws from q (n = sum lam):
    with q_i = a_i / D, the integer coeff * prod a_i^lam_i / D^n, rounded once
    (inf past float range)."""
    lam = [int(v) for v in lam]
    a, den = _dyadic_numerators(q)
    num = math.factorial(sum(lam))
    for v in lam:
        num //= math.factorial(v)
    for ai, v in zip(a, lam):
        if v and ai <= 0:
            return 0.0
        num *= ai ** v
    return _int_quotient(num, den ** sum(lam))


def sanov_bounds_check(q: Sequence[float], lam: Sequence[int], n: int) -> SanovCheck:
    """The polynomial-vs-exponential squeeze on a single multinomial type.

    lower = (n+1)^{-d} e^{-n KL(lam/n || q)}, upper = e^{-n KL(lam/n || q)};
    ok means lower <= m_q(lam) <= upper (with 1e-12 slack for roundoff).
    q must be a distribution: no negative entry, and a sum within
    ``TOL.trace`` of 1.
    """
    if not all(v >= 0 for v in q):
        raise ValueError("distribution q has an entry below 0 or NaN")
    total = math.fsum(q)
    if not abs(total - 1) <= TOL.trace:
        raise ValueError(f"distribution q sums to {total}, not 1")
    lam = [int(v) for v in lam]
    if sum(lam) != n:
        raise ValueError(f"type {lam} does not sum to n={n}")
    d = len(q)
    if len(lam) != d:
        raise ValueError("type length != alphabet size")
    value = multinomial_mass(q, lam)
    rate = kl_divergence([v / n for v in lam], q) if n > 0 else 0.0
    if math.isinf(rate):
        upper = 0.0
        lower = 0.0
    else:
        upper = math.exp(-n * rate)
        lower = (n + 1) ** (-d) * upper
    ok = (lower <= value * (1 + 1e-12) + 1e-300) and (value <= upper * (1 + 1e-12))
    return SanovCheck(lower, value, upper, ok)


# ---------------------------------------------------------------------------
# Constructive discrimination


def discrimination_sequence(s: Sequence[float], n: int) -> Partition:
    """The size-n shape whose frame projector separates states from rho.

    Takes the integer staircase approximation of k*s for the largest k whose
    size lands within binom(d+1,2)-1 below n, then pads the first row up to
    size exactly n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = [float(v) for v in s]
    d = len(s)
    window = math.comb(d + 1, 2) - 1
    for k in range(n, -1, -1):
        mu = approx_partition(s, k) if k >= 1 else Partition(())
        size = mu.size
        if n - window <= size <= n:
            parts = list(mu.padded(max(mu.length, 1)))
            parts[0] += n - size
            return Partition.of(parts)
    raise ArithmeticError(f"no staircase size landed in [{n - window}, {n}]")


class RatioBound(NamedTuple):
    ratio: float
    bound: float
    ok: bool


def discrimination_constant(s: Sequence[float]) -> float:
    """D(s) = s_1^{1 - binom(d+1,2)} prod_i (s_1 ... s_i)^{-ceil(delta_i(s))}."""
    s = [float(v) for v in s]
    d = len(s)
    if s[0] <= 0.0:
        return math.inf
    out = s[0] ** (1 - math.comb(d + 1, 2))
    run = 1.0
    for i, (si, expo) in enumerate(zip(s, finite_difference(s))):
        run *= si
        e = _ceil_nudged(expo)
        if e == 0:
            continue
        if run <= 0.0:
            return math.inf
        out *= run ** (-e)
    return out


def discrimination_ratio_bound(rho, sigma, n: int) -> RatioBound:
    """Compare the frame-projector probability ratio against its exponential
    bound at n copies.

    ratio = Delta_{lam_n}(U* sigma U) / Delta_{lam_n}(diag s); bound =
    D(s) exp(-(n - binom(d+1,2) + 1) K(rho||sigma)).  For rational spectra
    with n a multiple of the denominator the ratio equals exp(-n K) exactly.
    """
    frame = DiagonalizingFrame.of(rho)
    s = np.clip(frame.spectrum, 0.0, None)
    d = len(s)
    lam = discrimination_sequence(list(s), n)
    x = lam.padded(d)
    num = gen_power(x, frame.conjugated(sigma))
    den = gen_power(x, np.diag(s))
    kdiv = keyl_divergence(rho, sigma)
    dconst = discrimination_constant(list(s))
    if math.isinf(kdiv):
        bound = 0.0 if n - math.comb(d + 1, 2) + 1 > 0 else math.inf
    else:
        bound = dconst * math.exp(-(n - math.comb(d + 1, 2) + 1) * kdiv)
    if den <= 0.0:
        ratio = math.inf
        return RatioBound(ratio, bound, math.isinf(bound))
    ratio = num / den
    return RatioBound(ratio, bound, ratio <= bound * (1 + 1e-9) + 1e-300)


def spectrum_of(rho) -> np.ndarray:
    """Non-increasing eigenvalues of a Hermitian operator, clipped at zero."""
    if isinstance(rho, DensityOperator):
        return rho.spectrum()
    mat = as_matrix(rho)
    return np.clip(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[::-1], 0.0, None)
