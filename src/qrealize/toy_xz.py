"""Exact corner and balanced probabilities of the two-basis X/Z toy scheme.

Pure ``math`` and ``fractions``: the averages are finite sums of sphere
moments taken in rational arithmetic, so ``toy-xz --exact`` runs without
numpy.  ``estimation`` re-exports the public names next to the sampler.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence


class ToyXZBounds(NamedTuple):
    corner_prob: float
    corner_bound: float
    balanced_prob: float
    balanced_bound: float


def _sphere_average(c: Sequence[int]) -> Fraction:
    """E[f(x) f(z)] for a uniform point on the unit sphere, where
    f(t) = sum_a c[a] t^(2a), summed exactly from the moments
    E[x^(2a) z^(2b)] = (2a-1)!! (2b-1)!! / (2a+2b+1)!!.

    The sum runs in integers: with alternating c it cancels to far below
    its largest term, which float arithmetic would not survive."""
    k = len(c)
    odd = [1]                       # odd[j] = (2j-1)!!
    for j in range(1, 2 * k):
        odd.append(odd[-1] * (2 * j - 1))
    den = odd[-1]                   # (2(a+b)+1)!! divides it for all a, b < k
    num = sum(c[a] * c[b] * odd[a] * odd[b] * (den // odd[a + b + 1])
              for a in range(k) for b in range(k))
    return Fraction(num, den)


def toy_xz_exact_fractions(m: int) -> tuple[Fraction, Fraction]:
    """Exact (corner, balanced) probabilities of the X/Z scheme as rationals.

    Both integrands are polynomials in x and z, so each average is a finite
    sum of sphere moments; balanced is 0 for odd m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # E[(1+z)^m (1+x)^m] keeps only the even powers of x and z
    corner = _sphere_average([math.comb(m, 2 * a) for a in range(m // 2 + 1)]) / 4 ** m
    if m % 2:
        return corner, Fraction(0)
    half = m // 2
    inner = _sphere_average([(-1) ** a * math.comb(half, a) for a in range(half + 1)])
    return corner, math.comb(m, half) ** 2 * inner / 16 ** half


def toy_xz_exact_bounds(m: int) -> ToyXZBounds:
    """Exact corner and balanced estimate probabilities of the X/Z scheme.

    corner_prob is the Haar average of [((1+z)/2)((1+x)/2)]^m — the chance
    of an all-up, all-right record — with bound ((3+2*sqrt 2)/8)^m; for even
    m, balanced_prob is the Haar average of the doubly-balanced record
    probability C(m,m/2)^2 ((1-z^2)/4)^{m/2} ((1-x^2)/4)^{m/2} with the
    polynomial floor 1/(2m); odd m returns 0 for both balanced entries.
    Both probabilities are the rationals of ``toy_xz_exact_fractions``
    rounded once to float.
    """
    corner, balanced = toy_xz_exact_fractions(m)
    return ToyXZBounds(float(corner), ((3 + 2 * math.sqrt(2)) / 8) ** m,
                       float(balanced), 0.0 if m % 2 else 1.0 / (2 * m))
