"""Marginal scenarios and realizability certification.

A marginal scenario fixes a joint register J and an ordered tuple of
contexts (sublists of J).  A candidate assignment of density operators to
the contexts is packaged as one product operator; the check at level n asks
whether its n-th tensor power stays below the partial trace of the
symmetric-subspace projector on n*m joint copies.  Failure at any level is a
certificate of unrealizability; success at every tested level is only
consistency.

The special-case solvers (three-qubit overlap witness, bipartite spectra,
orthogonal-solution counting, joint-subspace restriction, k-uniformity) live
here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .config import BUDGET, TOL, Budgets, Tolerances
from .divergence import kl_divergence
from .partitions import littlewood_richardson, partitions_of, \
    schur_polynomial, specht_dim, weyl_dim
from .symmetrizer import WiringSum, check_perms_budget, isotypic_band_weight, \
    scenario_layout, sym_projector, traced_permutation_sum
from .tensor import DensityOperator, LabeledSpace, Operator, PureState, \
    as_matrix, lanczos_min_eig, partial_trace, power_space

VERDICT_CONSISTENT = "CONSISTENT_AT_LEVEL"
VERDICT_VIOLATED = "VIOLATED"


@dataclass(frozen=True)
class MarginalScenario:
    """A joint register and an ordered tuple of marginal contexts.

    Context label lists are normalized to the joint register's label order so
    that partial traces and tensor layouts always agree.
    """

    joint: LabeledSpace
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.contexts) < 1:
            raise ValueError("need at least one context")
        names = self.joint.names
        fixed = []
        for ctx in self.contexts:
            ctx = tuple(ctx)
            if not ctx:
                raise ValueError("contexts must be non-empty")
            if len(set(ctx)) != len(ctx):
                raise ValueError(f"repeated label inside context {ctx}")
            for x in ctx:
                if x not in names:
                    raise ValueError(f"context label {x!r} not in joint register {names}")
            fixed.append(tuple(x for x in names if x in ctx))
        object.__setattr__(self, "contexts", tuple(fixed))

    @property
    def m(self) -> int:
        return len(self.contexts)

    @property
    def d_joint(self) -> int:
        return self.joint.total_dim

    def context_space(self, i: int) -> LabeledSpace:
        return self.joint.subspace(self.contexts[i])

    @property
    def kept_space(self) -> LabeledSpace:
        """The target space: contexts concatenated, labels tagged by context."""
        labels = []
        for i, ctx in enumerate(self.contexts):
            for x in ctx:
                labels.append((f"{x}#{i}", self.joint.dim_of(x)))
        return LabeledSpace(tuple(labels))

    @property
    def kept_dim(self) -> int:
        return self.kept_space.total_dim

    def __repr__(self):
        ctx = ",".join("".join(c) for c in self.contexts)
        return f"MarginalScenario({''.join(self.joint.names)}: {ctx})"


def scenario(labels: Sequence[tuple[str, int]], contexts: Sequence) -> MarginalScenario:
    """Convenience constructor; contexts may be strings of one-char labels."""
    ctxs = tuple(tuple(c) for c in contexts)
    return MarginalScenario(LabeledSpace(tuple(labels)), ctxs)


@dataclass(frozen=True)
class MProductState:
    """One density operator per context, packaged with its scenario."""

    scenario: MarginalScenario
    marginals: tuple[DensityOperator, ...]

    def __post_init__(self):
        scen = self.scenario
        if len(self.marginals) != scen.m:
            raise ValueError(f"need {scen.m} marginals, got {len(self.marginals)}")
        for i, rho in enumerate(self.marginals):
            want = scen.context_space(i).dims
            if rho.space.dims != want:
                raise ValueError(
                    f"marginal {i} has dims {rho.space.dims}, context wants {want}")

    def product_matrix(self) -> np.ndarray:
        out = self.marginals[0].mat
        for rho in self.marginals[1:]:
            out = np.kron(out, rho.mat)
        return out


def marginals_of(psi: PureState, scen: MarginalScenario) -> MProductState:
    """The true marginal tuple of a joint pure state on the scenario's register."""
    if psi.space.dims != scen.joint.dims or psi.space.names != scen.joint.names:
        raise ValueError("state lives on a different register than the scenario")
    return MProductState(scen, tuple(psi.reduced(ctx) for ctx in scen.contexts))


@dataclass(frozen=True)
class RealizabilityCertificate:
    level: int
    gap: float
    verdict: str
    witness: np.ndarray | None = None
    near_zero_warning: bool = False
    rate_bound: float | None = None

    @property
    def violated(self) -> bool:
        return self.verdict == VERDICT_VIOLATED

    def to_json(self) -> dict:
        out = {
            "level": self.level,
            "gap": self.gap,
            "verdict": self.verdict,
            "near_zero_warning": self.near_zero_warning,
            "rate_bound": self.rate_bound,
        }
        if self.witness is not None:
            out["witness_re"] = self.witness.real.tolist()
            out["witness_im"] = self.witness.imag.tolist()
        return out


# ---------------------------------------------------------------------------
# Shared eigen-gap machinery


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron for two matrices, as one broadcast product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    out = mat
    for _ in range(n - 1):
        out = np.kron(out, mat)
    return out


def _apply_product_power(mat: np.ndarray, n: int, vec: np.ndarray) -> np.ndarray:
    """(mat^{tensor n}) @ vec without forming the big matrix."""
    d = mat.shape[0]
    v = np.asarray(vec, dtype=np.complex128).reshape(d, -1)
    for _ in range(n):
        # act on the leading copy, then rotate it to the back; after n steps
        # every copy has been hit once and the axes are in order again
        v = (mat @ v).T.reshape(d, -1)
    return v.reshape(-1)


@lru_cache(maxsize=32)
def _swap_sectors(ctx_dims: tuple[int, ...], n: int) -> tuple[tuple, tuple, np.ndarray]:
    """(views, sectors, scale) splitting the kept space of n copies of the
    contexts by the swap of copies 1 and 2 inside each context.

    The kept index is slot-major over slots t*m + i of dimension
    ``ctx_dims[i]``; context i's two copy digits are those of slots i and
    m + i, and ``views`` holds (pre, d, mid) so that reshaping to
    (pre, d, mid, d, -1) exposes them.  The swap's +-1 eigenspaces have the
    real basis e_aa, (e_ab + e_ba)/sqrt2 and (e_ba - e_ab)/sqrt2 (a < b): the
    symmetric vector takes index (a, b), the antisymmetric one (b, a).
    ``_pair_sweep`` applies the unnormalised change of basis, and ``scale``
    (2^(-k/2), k the number of contexts whose digits differ) normalises it.
    ``sectors`` lists the index sets of equal swap eigenvalues in every
    context, all-symmetric first; at n = 1 there is one sector.  The blocks
    P h P^T on these sectors come from ``_swap_blocks`` for a formed matrix
    and from ``_power_blocks`` for a product power."""
    m = len(ctx_dims)
    slot_dims = ctx_dims * n
    big = math.prod(slot_dims)
    digits = np.unravel_index(np.arange(big), slot_dims)
    views = []
    sector = np.zeros(big, dtype=np.int64)
    k = np.zeros(big)
    for i in range(m if n > 1 else 0):
        if ctx_dims[i] == 1:
            continue
        first, second = digits[i], digits[m + i]
        views.append((math.prod(slot_dims[:i]), ctx_dims[i],
                      math.prod(slot_dims[i + 1:m + i])))
        sector |= (first > second).astype(np.int64) << i
        k += first != second
    sectors = [np.flatnonzero(sector == s) for s in range(1 << m)]
    sectors = tuple(s for s in sectors if s.size)
    scale = 2.0 ** (-k / 2)
    for arr in sectors + (scale,):
        arr.setflags(write=False)
    return tuple(views), sectors, scale


@lru_cache(maxsize=32)
def _sector_kron_order(ctx_dims: tuple[int, ...], n: int
                       ) -> tuple[tuple[np.ndarray, ...], tuple[int, ...], tuple]:
    """(bases, nsym, orders) for assembling the sector blocks of a product
    operator from per-context pieces (n >= 2; see ``_power_blocks``).

    ``bases[i]`` is the real orthogonal change of basis of
    ``_swap_sectors`` on the two copies of context i (index a*d + b): first
    the ``nsym[i]`` symmetric rows, for the indices a <= b in order, then the
    antisymmetric rows, for a > b in order.  ``orders`` holds, for each
    sector of ``_swap_sectors``, its per-context choice (0 symmetric, 1
    antisymmetric) and the position of each of its indices in the Kronecker
    product of the chosen per-context blocks with copies 3..n."""
    m = len(ctx_dims)
    slot_dims = ctx_dims * n
    rest = math.prod(ctx_dims) ** (n - 2)
    bases, nsym, ranks = [], [], []
    for d in ctx_dims:
        a, b = np.divmod(np.arange(d * d), d)
        rows = np.concatenate([np.flatnonzero(a <= b), np.flatnonzero(a > b)])
        a, b = a[rows], b[rows]
        # row for index (a, b): e_ab + e_ba if a <= b, e_ab - e_ba if a > b
        basis = np.zeros((d * d, d * d))
        basis[np.arange(d * d), b * d + a] = np.where(a > b, -1.0, 1.0)
        basis[np.arange(d * d), rows] = 1.0
        basis[a != b] /= math.sqrt(2.0)
        k = int(np.count_nonzero(a <= b))
        rank = np.empty(d * d, dtype=np.int64)
        rank[rows] = np.concatenate([np.arange(k), np.arange(d * d - k)])
        basis.setflags(write=False)
        bases.append(basis)
        nsym.append(k)
        ranks.append(rank)
    orders = []
    for idx in _swap_sectors(ctx_dims, n)[1]:
        digits = np.unravel_index(idx, slot_dims)
        choice = tuple(int(digits[i][0] > digits[m + i][0]) for i in range(m))
        pos = np.zeros(idx.size, dtype=np.int64)
        for i, d in enumerate(ctx_dims):
            size = d * d - nsym[i] if choice[i] else nsym[i]
            pos = pos * size + ranks[i][digits[i] * d + digits[m + i]]
        pos = pos * rest + idx % rest
        pos.setflags(write=False)
        orders.append((choice, pos))
    return tuple(bases), tuple(nsym), tuple(orders)


def _pair_sweep(x: np.ndarray, views, back: bool = False) -> None:
    """In place along the leading (kept) axis of ``x``: for each context and
    digit pair a < b, (x_ab, x_ba) <- (x_ab + x_ba, x_ba - x_ab), or the
    transpose of that map when ``back``."""
    for pre, d, mid in views:
        x5 = x.reshape(pre, d, mid, d, -1)
        for a in range(d - 1):
            u = x5[:, a, :, a + 1:]
            v = x5[:, a + 1:, :, a].swapaxes(1, 2)
            if back:
                u, v = v, u
            v -= u
            u *= 2
            u += v


def _swap_blocks(h: np.ndarray, ctx_dims: tuple[int, ...], n: int) -> list[np.ndarray]:
    """The diagonal blocks P h P^T of a Hermitian ``h`` on the kept space of
    n copies, P the normalised change of basis of ``_swap_sectors``, one per
    sector and Hermitian-averaged.  ``h`` may be overwritten."""
    views, sectors, scale = _swap_sectors(ctx_dims, n)
    h = np.require(h, requirements="CW")  # _pair_sweep works in place on reshaped views
    if len(sectors) == 1:
        return [(h + h.conj().T) / 2]
    # rows, then rows of the conjugate transpose: P h^H P^T = P h P^T
    _pair_sweep(h, views)
    h = h.conj().T.copy()
    _pair_sweep(h, views)
    blocks = []
    for idx in sectors:
        s = scale[idx]
        blk = h[np.ix_(idx, idx)]
        blocks.append((blk + blk.conj().T) * (0.5 * np.outer(s, s)))
    return blocks


def _power_blocks(mats: Sequence[np.ndarray], ctx_dims: tuple[int, ...], n: int
                  ) -> list[np.ndarray]:
    """The blocks ``_swap_blocks`` takes from rho^{x n}, rho = mats[0] x ...
    x mats[m-1], built without forming rho^{x n}.

    The swap of copies 1 and 2 of context i acts on rho_i x rho_i only, so
    each sector block is the Kronecker product of one block of
    R_i (rho_i x rho_i) R_i^T per context (R_i from ``_sector_kron_order``)
    with rho^{x (n-2)} for copies 3..n, reordered to slot-major.  Each
    factor is Hermitian-averaged, so every block is exactly Hermitian."""
    mats = [(a + a.conj().T) / 2 for a in mats]
    if n == 1:
        return [reduce(_kron, mats)]
    bases, nsym, orders = _sector_kron_order(ctx_dims, n)
    pairs = []
    for a, basis, k in zip(mats, bases, nsym):
        y = basis @ _kron(a, a) @ basis.T
        y = (y + y.conj().T) / 2
        pairs.append((y[:k, :k], y[k:, k:]))
    rest = [_kron_power(reduce(_kron, mats), n - 2)] if n > 2 else []
    blocks = []
    for choice, pos in orders:
        blk = reduce(_kron, [pair[c] for pair, c in zip(pairs, choice)] + rest)
        blocks.append(blk[np.ix_(pos, pos)])
    return blocks


def _sector_min_eig(blocks: Sequence[np.ndarray], ctx_dims: tuple[int, ...], n: int
                    ) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a Hermitian operator on the kept space of n
    copies, given as its sector blocks (``_swap_blocks``, ``_power_blocks``).

    Eigenvalues pick the block with the smallest one; only that block goes
    to ``eigh``, and its bottom eigenvector y is mapped back as P^T y.  With
    one sector (n = 1) this is plain ``eigh``."""
    views, sectors, scale = _swap_sectors(ctx_dims, n)
    k = 0
    if len(blocks) > 1:
        k = int(np.argmin([np.linalg.eigvalsh(b)[0] for b in blocks]))
    w, v = np.linalg.eigh(blocks[k])
    vec = np.zeros(scale.size, dtype=np.complex128)
    vec[sectors[k]] = v[:, 0] * scale[sectors[k]]
    _pair_sweep(vec, views, back=True)
    return float(w[0]), vec


_DENSE_EIG_FAST = 1024  # LAPACK up to this kept dimension, Lanczos above


def _min_gap(ws: WiringSum, mats: Sequence[np.ndarray], n: int, *,
             budget: Budgets = BUDGET, lhs_scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue (and eigenvector) of RHS - lhs_scale * rho^{x n},
    rho = mats[0] x ... x mats[m-1], one matrix per context.

    ``ws`` is a scenario sum (slot t*m + i keeps context i).  Kept dimensions
    up to ``_DENSE_EIG_FAST`` solve densely: both terms commute with the
    per-context swap of copies 1 and 2, so the RHS is split into the swap
    sectors (``_swap_blocks``), the product power's blocks are built from
    per-context pieces (``_power_blocks``) and the differences go to LAPACK
    (``_sector_min_eig``); rho^{x n} is never formed.  Above that, Lanczos
    runs on the full kept space.  A non-finite Lanczos result raises
    ``ArithmeticError``."""
    layout = ws.layout
    big = layout.out_dim
    m = layout.nslots // n
    ctx_dims = [1] * m
    for (slot, _), d in zip(layout.axes, layout.axis_dims):
        if slot < m:
            ctx_dims[slot] *= d
    ctx_dims = tuple(ctx_dims)
    if tuple(a.shape[0] for a in mats) != ctx_dims:
        raise ValueError("context matrix dimensions do not match the layout")
    if big <= _DENSE_EIG_FAST:
        blocks = _power_blocks(mats, ctx_dims, n)
        for rhs, blk in zip(_swap_blocks(ws.to_matrix(budget), ctx_dims, n), blocks):
            blk *= -lhs_scale
            blk += rhs
        return _sector_min_eig(blocks, ctx_dims, n)

    rho_m = reduce(np.kron, mats)

    def matvec(v):
        out = ws.apply(v)
        out -= lhs_scale * _apply_product_power(rho_m, n, v)
        return out

    lam, vec = lanczos_min_eig(matvec, big, budget=budget)
    if not math.isfinite(lam):
        raise ArithmeticError(f"Lanczos returned a non-finite eigenvalue {lam}")
    return lam, vec


@lru_cache(maxsize=64)
def _wiring_sum(labels: tuple, contexts: tuple, n: int, v: int) -> WiringSum:
    """Traced sum of the isotypic projectors on n*m slots over shapes with at
    most v rows (v = 1 is the traced symmetrizer), built and compiled once.
    It does not depend on the budget, so the cache key leaves the budget out
    and ``_scenario_sum`` checks the caller's permutation cap on every call."""
    layout = scenario_layout(labels, contexts, n)
    uncapped = BUDGET.with_(perms_matrix_free=math.factorial(layout.nslots))
    return traced_permutation_sum(layout, isotypic_band_weight(layout.nslots, v), uncapped)


def _scenario_sum(scen: MarginalScenario, n: int, budget: Budgets, v: int = 1) -> WiringSum:
    check_perms_budget(n * scen.m, budget)
    return _wiring_sum(scen.joint.labels, scen.contexts, n, v)


def _certificate(gap: float, wvec: np.ndarray, n: int, scen: MarginalScenario,
                 tol: Tolerances) -> RealizabilityCertificate:
    violated = gap < -tol.psd
    # a gap within the eigensolver's accuracy of 0 is rounding, not a warning
    warning = (not violated) and gap < -tol.eig
    d_m = scen.kept_dim
    nm = n * scen.m
    bound = None
    if n > d_m ** 2:
        bound = math.log(math.comb(nm + scen.d_joint - 1, nm)) / (n - d_m ** 2)
    return RealizabilityCertificate(
        level=n,
        gap=gap,
        verdict=VERDICT_VIOLATED if violated else VERDICT_CONSISTENT,
        witness=wvec if violated else None,
        near_zero_warning=warning,
        rate_bound=bound,
    )


def hierarchy_check(state: MProductState, n: int, *, tol: Tolerances = TOL,
                    budget: Budgets = BUDGET) -> RealizabilityCertificate:
    """Level-n realizability check for a candidate marginal tuple.

    Computes the smallest eigenvalue of the traced symmetrizer minus the
    tuple's n-th tensor power.  A gap below -tol.psd is a sound certificate
    that no joint pure state has these marginals; a non-negative gap only
    rules nothing out at this level.  Kept dimensions up to 1024 solve
    densely, one LAPACK block per sector of the per-context swap of copies 1
    and 2 (four blocks of 100, 60, 60 and 36 on the AB, BC chain at n = 2),
    with the tensor power's blocks built from per-context two-copy factors;
    larger ones run Lanczos.
    """
    if n < 1:
        raise ValueError(f"level n must be >= 1, got {n}")
    scen = state.scenario
    ws = _scenario_sum(scen, n, budget)
    gap, wvec = _min_gap(ws, [rho.mat for rho in state.marginals], n, budget=budget)
    return _certificate(gap, wvec, n, scen, tol)


def ortho_bound_check(state: MProductState, v: int, n: int, *, tol: Tolerances = TOL,
                      budget: Budgets = BUDGET) -> RealizabilityCertificate:
    """Necessary condition for v mutually orthogonal joint states to share
    the candidate marginal tuple.

    Checks v^{nm} * tuple^{x n} against the sum of traced isotypic projectors
    over shapes with at most v rows; v = 1 reduces to hierarchy_check.  A
    violation rules out v orthogonal solutions (it does not rule out fewer).
    """
    if n < 1:
        raise ValueError(f"level n must be >= 1, got {n}")
    scen = state.scenario
    if not (1 <= v <= scen.d_joint):
        raise ValueError(f"orthogonal-solution count v={v} must be in 1..{scen.d_joint}")
    ws = _scenario_sum(scen, n, budget, v)
    gap, wvec = _min_gap(ws, [rho.mat for rho in state.marginals], n, budget=budget,
                         lhs_scale=float(v) ** (n * scen.m))
    return _certificate(gap, wvec, n, scen, tol)


def subspace_hierarchy_check(state: MProductState, p_v: Operator, n: int, *,
                             tol: Tolerances = TOL, budget: Budgets = BUDGET
                             ) -> RealizabilityCertificate:
    """Realizability check with the joint state confined to a subspace.

    ``p_v`` must be an orthogonal projector on the joint register; the
    symmetrizer is replaced by the projector onto the symmetric power of its
    range (the two projectors commute, so the product is that projector).
    Covers fermionic/bosonic joint spaces and rank-limited joint supports.
    """
    if n < 1:
        raise ValueError(f"level n must be >= 1, got {n}")
    scen = state.scenario
    if p_v.space.dims != scen.joint.dims:
        raise ValueError("projector must act on the scenario's joint register")
    if not p_v.is_hermitian(1e-8):
        raise ValueError("p_v is not Hermitian")
    if np.max(np.abs(p_v.mat @ p_v.mat - p_v.mat)) > 1e-8:
        raise ValueError("p_v is not idempotent")
    nm = n * scen.m
    # sym_projector checks dense_dim before _kron_power allocates the same size
    s = sym_projector(scen.d_joint, nm, budget).mat @ _kron_power(p_v.mat, nm)
    big_space = power_space(scen.joint, nm)
    # wires: slot-major, joint label order inside each slot
    nlab = scen.joint.nslots
    drop = []
    for slot in range(nm):
        ctx = scen.contexts[slot % scen.m]
        for j, x in enumerate(scen.joint.names):
            if x not in ctx:
                drop.append(slot * nlab + j)
    ctx_dims = tuple(scen.context_space(i).total_dim for i in range(scen.m))
    rhs = _swap_blocks(partial_trace(Operator(big_space, s), drop).mat, ctx_dims, n)
    lhs = _power_blocks([rho.mat for rho in state.marginals], ctx_dims, n)
    gap, wvec = _sector_min_eig([r - p for r, p in zip(rhs, lhs)], ctx_dims, n)
    return _certificate(gap, wvec, n, scen, tol)


# ---------------------------------------------------------------------------
# Three-qubit overlap witness


_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
_SINGLET_PROJ = np.outer(_SINGLET, _SINGLET)


def three_qubit_witness(rho_ab, rho_ac, rho_bc) -> float:
    """Overlap of a pairwise-marginal triple with the three-singlet direction.

    Contracts rho_AB x rho_AC x rho_BC against singlet projectors that pair
    the two A legs, the two B legs, and the two C legs across contexts.  Any
    triple arising from one joint three-qubit pure state gives exactly 0, so
    a nonzero value certifies that no such joint state exists.
    """
    mats = [as_matrix(r) for r in (rho_ab, rho_ac, rho_bc)]
    for mat in mats:
        if mat.shape != (4, 4):
            raise ValueError(f"expected a two-qubit operator, got shape {mat.shape}")
    x = np.kron(np.kron(mats[0], mats[1]), mats[2])
    # x axes: [A1, B1, A2, C2, B3, C3]; singlet pairs (A1,A2), (B1,B3), (C2,C3)
    w = np.kron(np.kron(_SINGLET_PROJ, _SINGLET_PROJ), _SINGLET_PROJ)
    # w axes: [A1, A2, B1, B3, C2, C3] -> reorder to x's axes
    axes = [0, 2, 1, 4, 3, 5]
    w = w.reshape((2,) * 12).transpose(axes + [6 + a for a in axes]).reshape(64, 64)
    val = complex(np.trace(x @ w))
    if abs(val.imag) > 1e-10:
        raise ArithmeticError(f"witness value has imaginary part {val.imag}")
    return float(val.real)


# ---------------------------------------------------------------------------
# Bipartite scenario: exact spectral solution


@dataclass(frozen=True)
class BipartiteResult:
    realizable: bool
    rate: float               # infimum of KL(s_A || r) + KL(s_B || r)
    pinsker_bound: float      # ||s_A - s_B||_1^2 / 6
    spectrum_a: tuple[float, ...]
    spectrum_b: tuple[float, ...]
    minimizer: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "realizable": self.realizable,
            "rate": self.rate if math.isfinite(self.rate) else None,
            "pinsker_bound": self.pinsker_bound,
            "spectrum_a": list(self.spectrum_a),
            "spectrum_b": list(self.spectrum_b),
            "minimizer": list(self.minimizer),
        }


def bipartite_check(rho_a: DensityOperator, rho_b: DensityOperator,
                    tol: float = 1e-8) -> BipartiteResult:
    """Exact solution of the two-context scenario with full joint overlap.

    The pair is realizable by a joint pure state exactly when the two spectra
    agree after padding to the smaller dimension — spectral weight beyond the
    smaller rank can never be matched.  The returned rate is the divergence
    infimum over common candidate spectra; its minimizer is the midpoint,
    which makes the rate twice the Jensen-Shannon divergence of the spectra.
    """
    sa = rho_a.spectrum()
    sb = rho_b.spectrum()
    ell = min(len(sa), len(sb))
    tail = max([0.0] + [float(x) for x in np.concatenate([sa[ell:], sb[ell:]])])
    pa, pb = sa[:ell].copy(), sb[:ell].copy()
    diff = float(np.abs(pa - pb).sum()) + 2 * (float(sa[ell:].sum()) + float(sb[ell:].sum()))
    pinsker = diff ** 2 / 6.0
    if tail > tol:
        return BipartiteResult(False, math.inf, pinsker,
                               tuple(map(float, sa)), tuple(map(float, sb)),
                               tuple((pa + pb) / 2.0))
    r = (pa + pb) / 2.0
    rate = kl_divergence(pa, r) + kl_divergence(pb, r)
    realizable = bool(np.max(np.abs(pa - pb)) <= tol)
    assert rate + 1e-12 >= pinsker - 1e-9, "divergence fell below its norm bound"
    return BipartiteResult(realizable, float(rate), pinsker,
                           tuple(map(float, sa)), tuple(map(float, sb)),
                           tuple(map(float, r)))


@dataclass(frozen=True)
class LRRow:
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    lhs: float
    rhs: float
    ok: bool


def lr_inequality_check(rho_a: DensityOperator, rho_b: DensityOperator,
                        n: int) -> list[LRRow]:
    """Symmetric-function constraints implied by level-n bipartite consistency.

    For each pair of shapes of size n the Schur values of the two spectra are
    compared against a multiplicity-weighted dimension sum over shapes of
    size 2n with at most min(a, b) rows.  Realizable pairs satisfy every row.
    """
    a = rho_a.space.total_dim
    b = rho_b.space.total_dim
    ra = rho_a.spectrum()
    rb = rho_b.spectrum()
    ell = min(a, b)
    lams = partitions_of(2 * n, ell)
    rows = []
    for alpha in partitions_of(n, a):
        sa = schur_polynomial(alpha, ra)
        for beta in partitions_of(n, b):
            sb = schur_polynomial(beta, rb)
            rhs = 0.0
            for lam in lams:
                c = littlewood_richardson(alpha, beta, lam)
                if c:
                    rhs += c * weyl_dim(lam, a) * weyl_dim(lam, b) / specht_dim(lam)
            lhs = sa * sb
            rows.append(LRRow(alpha.parts, beta.parts, lhs, rhs, lhs <= rhs + 1e-9))
    return rows


# ---------------------------------------------------------------------------
# k-uniformity


def is_k_uniform(psi: PureState, keep: Sequence[str], tol: Tolerances = TOL
                 ) -> tuple[bool, float]:
    """Whether the reduced state on the named subsystems is maximally mixed.

    Returns (flag, Frobenius deviation from identity/dim).
    """
    rho = psi.reduced(keep)
    d = rho.space.total_dim
    dev = float(np.linalg.norm(rho.mat - np.eye(d) / d, "fro"))
    return dev < tol.uniform, dev
