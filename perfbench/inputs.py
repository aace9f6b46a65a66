"""Seeded inputs, generated with numpy only so the program under test sees
nothing but the finished matrices and files.

Realizable inputs are marginals of Haar pure states on three qubits A, B, C.
Planted inputs put p * singlet + (1 - p) * I/4 on every context; the weights
p are stratified over their range so each seed gets the same spread of
noise levels (the noise level sets how many Lanczos restarts a check needs).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

JOINT = (("A", 2), ("B", 2), ("C", 2))
SINGLET = np.array([[0, 0, 0, 0], [0, .5, -.5, 0], [0, -.5, .5, 0], [0, 0, 0, 0]],
                   dtype=np.complex128)


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Independent stream per (seed, tags); the same arguments give the same draws."""
    return np.random.default_rng([seed, *tags])


def haar_marginals(rng: np.random.Generator, contexts: tuple[str, ...]) -> list[np.ndarray]:
    """Two-qubit marginals, one per context such as "AB", of a Haar pure state on ABC."""
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = (psi / np.linalg.norm(psi)).reshape(2, 2, 2)
    out = []
    for ctx in contexts:
        drop = [i for i, (name, _) in enumerate(JOINT) if name not in ctx]
        out.append(np.tensordot(psi, psi.conj(), axes=(drop, drop)).reshape(4, 4))
    return out


def planted_pair(p: float) -> np.ndarray:
    """Singlet with white noise: p * |s><s| + (1 - p) * I / 4."""
    return p * SINGLET + (1.0 - p) * np.eye(4) / 4


def stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """One uniform draw from each of k equal strata of [lo, hi)."""
    return lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k


def ginibre_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank density matrix G G* / tr(G G*) with complex Gaussian G."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def operator_payload(labels, mat: np.ndarray, *, readme_form: bool = False) -> dict:
    """Operator JSON as the CLI reads it.

    ``readme_form`` writes labels as ``[["A", 2], ...]``, the form the README
    documents; otherwise ``[{"name": "A", "dim": 2}, ...]``.
    """
    if readme_form:
        lab = [[name, dim] for name, dim in labels]
    else:
        lab = [{"name": name, "dim": dim} for name, dim in labels]
    mat = np.asarray(mat, dtype=np.complex128)
    return {"labels": lab, "re": mat.real.tolist(), "im": mat.imag.tolist()}


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)
