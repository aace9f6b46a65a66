"""Reference implementations the tests compare the library against, the
tests' writer of operator input files, and their measure of a Lanczos
basis's orthogonality.

None of these is part of the package: each is the plainest route to a value
the library computes another way (a dense permutation matrix, a tableau sum),
the inverse of the library's operator reader, or a direct measurement of
what the library only estimates.
"""
from __future__ import annotations

import itertools
import math
from functools import cache
from typing import Sequence

import numpy as np

from qrealize.jsonio import dumps
from qrealize.partitions import Partition
from qrealize.symmetrizer import WiringOperator
from qrealize.tensor import LabeledSpace, Operator, power_space


def _permutation_matrix(dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """The matrix moving the content of axis s to axis perm[s]: the identity
    on the axes ``dims`` with its row axes transposed by the inverse
    permutation."""
    big = math.prod(dims)
    k = len(dims)
    eye = np.eye(big).reshape(tuple(dims) * 2)
    axes = list(np.argsort(perm)) + list(range(k, 2 * k))
    return eye.transpose(axes).reshape(big, big)


def permutation_operator(sp: LabeledSpace, perm: Sequence[int]) -> Operator:
    """The unitary permuting the k copies of ``sp``: slot s moves to slot perm[s].

    With that convention T(p) T(q) = T(p o q) where (p o q)(s) = p(q(s)).
    The result lives on ``power_space(sp, k)``.
    """
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
    return Operator(power_space(sp, len(perm)),
                    _permutation_matrix((sp.total_dim,) * len(perm), perm))


def wiring_matrix(w: WiringOperator) -> np.ndarray:
    """One wiring operator as a dense matrix, term by term."""
    return w.scalar * _permutation_matrix(w.dims, w.perm)


def _interlacing(lam: tuple[int, ...]):
    """All mu with lam_{i+1} <= mu_i <= lam_i (one row shorter), in
    decreasing lexicographic order."""
    lows = lam[1:] + (0,)
    return itertools.product(*(range(hi, lo - 1, -1) for hi, lo in zip(lam, lows)))


def schur_ssyt(lam: Partition, x: Sequence):
    """Schur value by the branching (semistandard-tableau) summation, in the
    arithmetic of its inputs: floats, or Fractions for the exact value.

    Every term is a product of inputs, so for spectra this route is free of
    cancellation; it is schur_polynomial's reference.
    """
    x = list(x)
    if lam.length > len(x):
        return 0

    @cache
    def rec(shape: tuple[int, ...], nvars: int):
        if not shape:
            return 1
        if nvars == 0:
            return 0
        if len(shape) > nvars:
            return 0
        tot = 0
        w = sum(shape)
        for mu in _interlacing(shape):
            mu_stripped = tuple(v for v in mu if v > 0)
            tot += x[nvars - 1] ** (w - sum(mu)) * rec(mu_stripped, nvars - 1)
        return tot

    return rec(lam.parts, len(x))


def operator_to_json(op: Operator) -> dict:
    """The payload ``qrealize.jsonio.operator_from_json`` reads back as ``op``."""
    return {
        "labels": [{"name": n, "dim": d} for n, d in op.space.labels],
        "re": [[float(x) for x in row] for row in op.mat.real],
        "im": [[float(x) for x in row] for row in op.mat.imag],
    }


def write_json(path: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(value, indent=2))
        fh.write("\n")


def lanczos_basis_overlap(vectors, block: int = 64) -> float:
    """max |Q Q^H - I| over the Krylov bases Q of a restarted Lanczos run,
    read from copies of the vectors it handed its matvec, in order: each
    cycle hands over its ``block`` basis vectors, then its Ritz vector."""
    assert vectors and len(vectors) % (block + 1) == 0, len(vectors)
    worst = 0.0
    for start in range(0, len(vectors), block + 1):
        q = np.array(vectors[start:start + block])
        worst = max(worst, float(np.abs(q @ q.conj().T - np.eye(block)).max()))
    return worst
