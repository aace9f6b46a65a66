"""Dense complex linear algebra on labeled tensor-product spaces.

Operators act on an ordered tensor product of labeled finite-dimensional
factors.  Slots are numbered left to right starting at 0; a partial trace
keeps the relative order of the remaining slots.  All values are immutable
after construction (ndarray buffers are marked read-only) so they can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import BUDGET, TOL, Budgets, ResourceBudgetError, Tolerances


def _exact_int(x) -> int | None:
    """x as an int when it is integral, else None."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == x else None


@dataclass(frozen=True)
class LabeledSpace:
    """An ordered list of (name, dim) factors; a dimension that is not an
    integer (2.5, not 2 or 2.0) is a ValueError naming its label."""

    labels: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = []
        for n, d in self.labels:
            dim = _exact_int(d)
            if dim is None:
                raise ValueError(f"label {str(n)!r} has dimension {d}, not an integer")
            labels.append((str(n), dim))
        object.__setattr__(self, "labels", tuple(labels))
        names = [n for n, _ in labels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate label names in {names}")
        if any(d < 1 for _, d in labels):
            raise ValueError("factor dimensions must be >= 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.labels)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def nslots(self) -> int:
        return len(self.labels)

    def slot(self, name: str) -> int:
        """Index of the factor with the given name."""
        for i, (n, _) in enumerate(self.labels):
            if n == name:
                return i
        raise KeyError(f"no factor named {name!r}")

    def dim_of(self, name: str) -> int:
        return self.labels[self.slot(name)][1]

    def subspace(self, names: Iterable[str]) -> "LabeledSpace":
        """The space spanned by the named factors, in this space's order."""
        wanted = set(names)
        return LabeledSpace(tuple(l for l in self.labels if l[0] in wanted))

    def concat(self, other: "LabeledSpace") -> "LabeledSpace":
        return LabeledSpace(self.labels + other.labels)


def space(*labels: tuple[str, int]) -> LabeledSpace:
    """Convenience constructor: ``space(("A", 2), ("B", 3))``."""
    return LabeledSpace(tuple(labels))


def qubits(*names: str) -> LabeledSpace:
    return LabeledSpace(tuple((n, 2) for n in names))


def power_space(sp: LabeledSpace, k: int) -> LabeledSpace:
    """k ordered copies of ``sp``; copy index appended to keep names unique."""
    labels = []
    for t in range(k):
        for n, d in sp.labels:
            labels.append((f"{n}#{t}", d))
    return LabeledSpace(tuple(labels))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class Operator:
    """A square complex matrix on a LabeledSpace."""

    __slots__ = ("space", "mat")

    def __init__(self, sp: LabeledSpace, mat: np.ndarray):
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got {mat.shape}")
        if mat.shape[0] != sp.total_dim:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} != space dimension {sp.total_dim}"
            )
        object.__setattr__(self, "space", sp)
        object.__setattr__(self, "mat", _freeze(mat))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Operator is immutable")

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def adjoint(self) -> "Operator":
        return Operator(self.space, self.mat.conj().T)

    def is_hermitian(self, tol: float = TOL.herm) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= tol)

    def hermitian_part(self) -> "Operator":
        return Operator(self.space, (self.mat + self.mat.conj().T) / 2)

    def tensor_form(self) -> np.ndarray:
        """The matrix reshaped to (out dims) + (in dims)."""
        d = self.space.dims
        return self.mat.reshape(d + d)

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.space, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.space, self.mat - other.mat)

    def __mul__(self, c) -> "Operator":
        return Operator(self.space, self.mat * c)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.space, self.mat @ other.mat)

    def __repr__(self):
        return f"Operator(space={self.space.names}, dim={self.dim})"


def identity(sp: LabeledSpace) -> Operator:
    return Operator(sp, np.eye(sp.total_dim))


class DensityOperator:
    """An Operator validated to be a quantum state (Hermitian, PSD, unit trace)."""

    __slots__ = ("op",)

    def __init__(self, op: Operator, tol: Tolerances = TOL):
        if not op.is_hermitian(tol.herm):
            raise ValueError("density operator must be Hermitian")
        tr = op.trace()
        if abs(tr - 1.0) > tol.trace:
            raise ValueError(f"density operator trace {tr} not within {tol.trace} of 1")
        evals = np.linalg.eigvalsh(op.hermitian_part().mat)
        if evals.min() < -tol.psd:
            raise ValueError(f"density operator has eigenvalue {evals.min()} < -{tol.psd}")
        object.__setattr__(self, "op", op)

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    @property
    def space(self) -> LabeledSpace:
        return self.op.space

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    def spectrum(self) -> np.ndarray:
        """Eigenvalues sorted non-increasing, clipped at 0."""
        ev = np.linalg.eigvalsh(self.op.hermitian_part().mat)[::-1]
        return np.clip(ev, 0.0, None)

    def __repr__(self):
        return f"DensityOperator(space={self.space.names})"


class PureState:
    """A unit vector on a LabeledSpace."""

    __slots__ = ("space", "amplitudes")

    def __init__(self, sp: LabeledSpace, amplitudes: np.ndarray, tol: Tolerances = TOL):
        amp = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if amp.shape[0] != sp.total_dim:
            raise ValueError(
                f"amplitude length {amp.shape[0]} != space dimension {sp.total_dim}"
            )
        nrm2 = float(np.vdot(amp, amp).real)
        if abs(nrm2 - 1.0) > tol.trace:
            raise ValueError(f"squared norm {nrm2} not within {tol.trace} of 1")
        object.__setattr__(self, "space", sp)
        object.__setattr__(self, "amplitudes", _freeze(amp))

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    def projector(self) -> DensityOperator:
        return DensityOperator(Operator(self.space, np.outer(self.amplitudes, self.amplitudes.conj())))

    def reduced(self, keep_names: Sequence[str]) -> DensityOperator:
        """Reduced density operator on the named factors."""
        op = self.projector().op
        drop = [i for i, (n, _) in enumerate(self.space.labels) if n not in set(keep_names)]
        return DensityOperator(partial_trace(op, drop))

    def __repr__(self):
        return f"PureState(space={self.space.names})"


def as_matrix(x) -> np.ndarray:
    """The matrix of an Operator or DensityOperator, else ``x`` as a complex array."""
    return x.mat if hasattr(x, "mat") else np.asarray(x, dtype=np.complex128)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor (Kronecker) product; label lists concatenate."""
    return Operator(a.space.concat(b.space), np.kron(a.mat, b.mat))


def _kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    """mat^{tensor n} as a dense matrix, n >= 1."""
    out = mat
    for _ in range(n - 1):
        out = np.kron(out, mat)
    return out


def partial_trace(x: Operator, drop: Iterable[int]) -> Operator:
    """Trace out the factors at the given slot indices.

    The result acts on the remaining factors in their original relative
    order; the full trace is preserved.
    """
    drop = sorted(set(drop))
    k = x.space.nslots
    for i in drop:
        if not (0 <= i < k):
            raise ValueError(f"slot index {i} out of range for {k} factors")
    if not drop:
        return x
    keep = [i for i in range(k) if i not in drop]
    t = x.tensor_form()
    # einsum: dropped slots share an index between the out and in axis,
    # kept slots keep distinct out/in indices.
    out_idx = list(range(k))
    in_idx = [k + i if i in keep else i for i in range(k)]
    kept_axes = [i for i in keep] + [k + i for i in keep]
    reduced = np.einsum(t, out_idx + in_idx, kept_axes)
    new_space = LabeledSpace(tuple(x.space.labels[i] for i in keep))
    d = new_space.total_dim
    return Operator(new_space, reduced.reshape(d, d))


def _perm_inverse(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for s, t in enumerate(perm):
        inv[t] = s
    return inv


def _check_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
    return perm


def apply_slot_permutation(vec: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Apply the slot permutation (content of slot s -> slot perm[s]) to a vector.

    ``dims`` are the per-slot dimensions of ``vec`` (so dims[perm[s]] must equal
    dims[s]); returns a new flat vector.
    """
    perm = list(perm)
    t = np.asarray(vec).reshape(tuple(dims))
    out = t.transpose(_perm_inverse(perm))
    return out.reshape(-1)


def trace_with_permutation(ops: Sequence[np.ndarray], block_dims: Sequence[int],
                           perm: Sequence[int], d: int) -> complex:
    """Tr(T(perm) (ops[0] x ... x ops[-1])) without materializing the big space.

    ``ops[r]`` acts on ``block_dims[r]`` slots of local dimension d; the blocks
    are laid out contiguously and ``perm`` permutes all N = sum(block_dims)
    slots (content of slot s moves to slot perm[s]).
    """
    perm = _check_permutation(perm)
    n_tot = sum(block_dims)
    if len(perm) != n_tot:
        raise ValueError("permutation length does not match total slot count")
    inv = _perm_inverse(perm)
    # one contraction index per slot; row index of slot s is c[s], column index
    # of slot s is c[inv[s]] (the slot whose content lands here).
    operands = []
    subscripts = []
    start = 0
    for r, nb in enumerate(block_dims):
        slots = list(range(start, start + nb))
        start += nb
        t = np.asarray(ops[r]).reshape((d,) * (2 * nb))
        operands.append(t)
        subscripts.append([s for s in slots] + [inv[s] for s in slots])
    args = []
    for t, sub in zip(operands, subscripts):
        args.extend([t, sub])
    return complex(np.einsum(*args, []))


# DGKS / ARPACK threshold: reorthogonalize again when one classical
# Gram-Schmidt pass keeps less than this fraction of the vector's norm
_REORTH_AGAIN = 0.717
_EPS = 2.0 ** -52  # float64 machine epsilon
# semi-orthogonality: while every |<q_i, q_k>| stays below sqrt(eps), the
# Ritz values are as accurate as with a fully orthogonal basis
_SEMI_ORTHO = math.sqrt(_EPS)
# a cycle stops once the Ritz residual is below this times the spectral spread
_RESIDUAL_TOL = 1e-9


def _omega_row(omega: np.ndarray, tri: np.ndarray, j: int, a: float, b: float,
               noise: float) -> float:
    """Simon's recurrence: fill omega[j + 1, :j + 1], the estimates of
    <q_{j+1}, q_k> for k <= j, from rows j and j - 1 and the tridiagonal
    ``tri`` so far (a = alpha_j, b = beta_{j+1}).  ``noise`` is the
    rounding error of one Lanczos step, added with the sign that grows each
    estimate; entry j, which the recurrence does not reach, is noise / b.
    Returns the largest |estimate|."""
    est = tri[:j + 1, :j + 1] @ omega[j, :j + 1]
    # k < j (none at j = 0); entry j keeps only the rounding term
    est[:j] -= a * omega[j, :j] + tri[j, j - 1] * omega[j - 1, :j]
    est[j] = 0.0
    est += np.copysign(noise, est)
    est /= b
    omega[j + 1, :j + 1] = est
    return float(np.abs(est).max())


def lanczos_min_eig(
    apply_h: Callable[[np.ndarray], np.ndarray],
    dim: int,
    *,
    block: int = 64,
    cycles: int = 40,
    seed: int = 7,
    budget: Budgets = BUDGET,
    dtype: type = np.complex128,
) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a Hermitian operator via restarted Lanczos.

    Each cycle runs up to ``block`` Lanczos steps with partial
    reorthogonalization (Simon, Math. Comp. 42, 1984), takes the bottom
    Ritz pair of the tridiagonal, and restarts from that Ritz vector.  Each
    step updates Simon's recurrence for omega[j + 1, k], an estimate of
    <q_{j+1}, q_k> for every k <= j, from the alphas and betas alone, in a
    few operations on length-j arrays:

        beta_{j+1} omega[j+1, k] = beta_{k+1} omega[j, k+1]
            + (alpha_k - alpha_j) omega[j, k] + beta_k omega[j, k-1]
            - beta_j omega[j-1, k] +- u ||T||,

    with omega[i, i] = 1 and omega[i + 1, i] = u ||T|| / beta_{i+1}.  Here
    u = sqrt(dim) eps / 2 is the rounding level of a length-dim inner
    product, ||T|| the largest |alpha_j| + beta_j + beta_{j+1} seen so far,
    and the sign of the rounding term is the one that grows the estimate.
    Only when some |omega[j + 1, k]| exceeds sqrt(eps), and again at the
    step after, does the new vector get a classical Gram-Schmidt pass
    against the whole basis; a second pass follows when the first shrinks
    the vector's norm to at most 0.717 of what it was (Kahan's "twice is
    enough"; the DGKS test ARPACK uses).  Both rows touched are then reset
    to u.  A vector whose norm is already below the breakdown floor gets
    the pass too.  So the basis stays semi-orthogonal, |<q_i, q_k>| about
    sqrt(eps) at worst, which keeps the Ritz values accurate to working
    precision, and most steps do not read the basis at all.

    Soundness does not rest on that orthogonality: the returned value is
    the Rayleigh quotient of the normalised Ritz vector y, computed from a
    fresh ``apply_h(y)``, so it can only overestimate the true minimum.  A
    reported negative eigenvalue is always genuine, which is what a
    one-sided feasibility verdict needs.  Stops when the Ritz residual drops
    below 1e-9 times the observed spectral spread, or when restarts stop
    improving the estimate.  ``dim`` is checked against ``budget.matvec_dim``.

    ``dtype`` is the arithmetic of the Krylov space.  With ``np.float64``
    the operator must be real symmetric and map real vectors to real
    vectors; the start vector, restart vectors and basis are then real,
    which halves the work and loses nothing, since a real symmetric
    operator reaches its minimum at a real vector.  The returned vector is
    complex128 either way (zero imaginary part on the real path).
    """
    if dim > budget.matvec_dim:
        raise ResourceBudgetError(f"matrix-free dimension {dim} exceeds cap {budget.matvec_dim}")
    block = max(4, min(block, dim))
    rng = np.random.default_rng(seed)
    real = np.dtype(dtype) == np.float64

    def noise() -> np.ndarray:
        if real:
            return rng.standard_normal(dim)
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    v = noise()
    v /= np.linalg.norm(v)
    spread = 1.0
    best_theta = math.inf
    best_vec = v
    basis = np.empty((block, dim), dtype=v.dtype)
    # the tridiagonal, and omega[i, k] ~ <q_i, q_k>; every entry a cycle
    # reads is written earlier in that cycle
    tri = np.zeros((block, block))
    omega = np.eye(block)
    anorm = 0.0
    # rounding level of a length-dim inner product
    unit = _EPS * math.sqrt(dim) / 2
    for cycle in range(cycles):
        floor = 1e-13 * max(1.0, spread)
        again = False
        basis[0] = v
        w = apply_h(v)
        steps = 1
        for j in range(block):
            a = float(np.real(np.vdot(basis[j], w)))
            tri[j, j] = a
            if j + 1 == block or j + 1 == dim:
                steps = j + 1
                break
            # out of place: apply_h may return a view of its input
            w = w - a * basis[j]
            beta = 0.0
            if j > 0:
                beta = tri[j, j - 1]
                w -= beta * basis[j - 1]
            b = float(np.linalg.norm(w))
            anorm = max(anorm, abs(a) + beta + b)
            full = (again or b < floor
                    or _omega_row(omega, tri, j, a, b, unit * anorm) > _SEMI_ORTHO)
            if full:
                # conjugating the product instead of the basis avoids a
                # (j+1, dim) copy
                local = b
                w -= (basis[: j + 1] @ w.conj()).conj() @ basis[: j + 1]
                b = float(np.linalg.norm(w))
                if b <= _REORTH_AGAIN * local:
                    w -= (basis[: j + 1] @ w.conj()).conj() @ basis[: j + 1]
                    b = float(np.linalg.norm(w))
                omega[j + 1, : j + 1] = unit
            again = full and not again
            if b < floor:
                steps = j + 1
                break
            tri[j, j + 1] = tri[j + 1, j] = b
            basis[j + 1] = w / b
            w = apply_h(basis[j + 1])
            steps = j + 2
        evals, evecs = np.linalg.eigh(tri[:steps, :steps])
        spread = max(spread, float(evals[-1] - evals[0]), abs(float(evals[0])))
        y = evecs[:, 0] @ basis[:steps]
        y /= np.linalg.norm(y)
        hy = apply_h(y)
        theta = float(np.real(np.vdot(y, hy)))
        residual = float(np.linalg.norm(hy - theta * y))
        improved = theta < best_theta - 1e-12 * spread
        if theta < best_theta:
            best_theta, best_vec = theta, y
        if residual <= _RESIDUAL_TOL * spread:
            break
        if steps < block and not improved:
            # Krylov space closed without progress: restart from fresh noise
            v = noise()
            coeff = np.vdot(y, v)
            v = v - coeff * y
            v /= np.linalg.norm(v)
            continue
        if cycle > 0 and not improved:
            break
        v = y
    return best_theta, best_vec.astype(np.complex128, copy=False)


def haar_random_pure(dim: int, seed) -> PureState:
    """A Haar-distributed pure state: normalized complex standard normal.

    ``seed`` may be an integer or a numpy Generator (for chained sampling);
    a fixed integer seed gives identical amplitudes on every call.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return PureState(LabeledSpace((("H", dim),)), v)


def haar_random_pure_on(sp: LabeledSpace, seed) -> PureState:
    st = haar_random_pure(sp.total_dim, seed)
    return PureState(sp, st.amplitudes)


def haar_random_density(dim: int, seed, rank: int | None = None) -> DensityOperator:
    """Partial trace of a Haar pure state on dim x rank (rank defaults to dim)."""
    rank = dim if rank is None else rank
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(Operator(LabeledSpace((("H", dim),)), m))
