"""Second-route certificate checks and exact references for CLI outputs.

None of this shares the solver path: a VIOLATED certificate is re-checked by
summing single traced permutations applied to the witness (no ``WiringSum``,
no eigensolver) and contracting the marginals one tensor factor at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

import numpy as np

from qrealize import partitions, symmetrizer
from qrealize.config import TOL

GAP_AGREEMENT = 1e-9      # |recomputed gap - certificate gap| allowed
TOY_XZ_REL_TOL = 1e-6

_traced_cache: dict = {}


def _traced_permutations(layout) -> list:
    """(cycle type, traced wiring) for every slot permutation, cached per layout."""
    if layout not in _traced_cache:
        _traced_cache[layout] = [
            (partitions.cycle_type(perm), symmetrizer.traced_permutation(layout, perm))
            for perm in itertools.permutations(range(layout.nslots))]
    return _traced_cache[layout]


def product_power_expectation(marginals, n: int, w: np.ndarray) -> float:
    """<w| (rho_1 x ... x rho_m)^{x n} |w>, one context factor per tensor axis."""
    factors = [np.asarray(m) for m in marginals] * n
    t = np.asarray(w, dtype=np.complex128).reshape([f.shape[0] for f in factors])
    for axis, f in enumerate(factors):
        t = np.moveaxis(np.tensordot(f, t, axes=([1], [axis])), 0, axis)
    return float(np.vdot(w, t.reshape(-1)).real)


def second_route_gap(marginals, labels, contexts, n: int, witness,
                     rank: int | None = None) -> float:
    """<w|RHS|w> - scale <w|rho^{x n}|w> summed term by term.

    RHS is the traced symmetrizer (``rank`` None) or the traced isotypic band
    of shapes with at most ``rank`` rows, whose left side is scaled by
    rank^(n m) as in ``ortho_bound_check``.
    """
    layout = symmetrizer.scenario_layout(labels, contexts, n)
    nslots = layout.nslots
    if rank is None:
        weight = lambda t: 1.0 / math.factorial(nslots)
        scale = 1.0
    else:
        weight = symmetrizer.isotypic_band_weight(nslots, rank)
        scale = float(rank) ** nslots
    w = np.asarray(witness, dtype=np.complex128)
    rhs = 0.0
    for ctype, wiring in _traced_permutations(layout):
        c = weight(ctype)
        if c:
            rhs += c * np.vdot(w, wiring.apply(w)).real
    return rhs - scale * product_power_expectation(marginals, n, w)


def certificate_problem(cert_gap: float, witness, marginals, labels, contexts, n: int,
                        rank: int | None = None) -> str | None:
    """None when a VIOLATED certificate re-verifies, else the reason it does not."""
    w = np.asarray(witness, dtype=np.complex128)
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        return "witness is not a unit vector"
    gap = second_route_gap(marginals, labels, contexts, n, w, rank)
    if not gap < -TOL.psd:
        return f"recomputed gap {gap:.3e} is not below -{TOL.psd:g}"
    if abs(gap - cert_gap) > GAP_AGREEMENT:
        return f"recomputed gap {gap!r} differs from certificate gap {cert_gap!r}"
    return None


# ---------------------------------------------------------------------------
# toy-xz: rational sphere moments


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


@cache
def sphere_moment(a: int, b: int) -> Fraction:
    """E[x^(2a) z^(2b)] for a uniform point on the unit sphere."""
    return Fraction(_double_factorial(2 * a - 1) * _double_factorial(2 * b - 1),
                    _double_factorial(2 * a + 2 * b + 1))


@cache
def toy_xz_reference(m: int) -> dict[str, float]:
    """Exact values of what ``toy-xz --exact -m m`` reports.

    corner = E[((1+z)/2)^m ((1+x)/2)^m] and, for even m = 2h,
    balanced = C(m,h)^2 E[((1-z^2)/4)^h ((1-x^2)/4)^h], both expanded into
    sphere moments and summed in rational arithmetic.
    """
    corner = sum(math.comb(m, 2 * a) * math.comb(m, 2 * b) * sphere_moment(a, b)
                 for a in range(m // 2 + 1) for b in range(m // 2 + 1)) / Fraction(4) ** m
    out = {"corner_prob": float(corner),
           "corner_bound": ((3 + 2 * math.sqrt(2)) / 8) ** m,
           "balanced_prob": 0.0, "balanced_bound": 0.0}
    if m % 2 == 0:
        h = m // 2
        inner = sum((-1) ** (a + b) * math.comb(h, a) * math.comb(h, b) * sphere_moment(a, b)
                    for a in range(h + 1) for b in range(h + 1))
        out["balanced_prob"] = float(math.comb(m, h) ** 2 * inner / Fraction(16) ** h)
        out["balanced_bound"] = 1.0 / (2 * m)
    return out


def toy_xz_mismatches(m: int, reported: dict) -> list[str]:
    """Fields of a ``toy-xz --exact`` report that miss the exact value."""
    bad = []
    for key, want in toy_xz_reference(m).items():
        got = reported.get(key)
        if not isinstance(got, (int, float)) or abs(got - want) > TOY_XZ_REL_TOL * abs(want):
            bad.append(key)
    return bad


# ---------------------------------------------------------------------------
# Small references for the other CLI commands


def spectrum(mat: np.ndarray) -> np.ndarray:
    return np.clip(np.linalg.eigvalsh(mat)[::-1], 0.0, None)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (log rho - log sigma) for full-rank sigma."""
    def log_h(m):
        w, v = np.linalg.eigh(m)
        return (v * np.log(np.clip(w, 1e-300, None))) @ v.conj().T
    return float(np.trace(rho @ (log_h(rho) - log_h(sigma))).real)


def spectra_rate(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """KL(a||r) + KL(b||r) with r the midpoint of the two sorted spectra."""
    pa, pb = spectrum(rho_a), spectrum(rho_b)
    r = (pa + pb) / 2
    return float(sum(p * math.log(p / q) for p, q in zip(pa, r) if p > 0)
                 + sum(p * math.log(p / q) for p, q in zip(pb, r) if p > 0))


@cache
def partition_count(n: int, max_len: int, max_part: int | None = None) -> int:
    """Partitions of n into at most max_len parts, each at most max_part."""
    max_part = n if max_part is None else max_part
    if n == 0:
        return 1
    if max_len == 0:
        return 0
    return sum(partition_count(n - k, max_len - 1, k) for k in range(1, min(n, max_part) + 1))
