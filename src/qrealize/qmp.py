"""Marginal scenarios and realizability certification.

A marginal scenario fixes a joint register J and an ordered tuple of
contexts (sublists of J).  A candidate assignment of density operators to
the contexts is packaged as one product operator; the check at level n asks
whether its n-th tensor power stays below the partial trace of the
symmetric-subspace projector on n*m joint copies.  Failure at any level is a
certificate of unrealizability; success at every tested level is only
consistency.

The special-case solvers (three-qubit overlap witness, bipartite spectra,
orthogonal-solution counting, joint-subspace restriction) live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .config import BUDGET, TOL, Budgets, Tolerances
from .partitions import littlewood_richardson, partitions_of, \
    schur_polynomial, specht_dim, weyl_dim
from .symmetrizer import WiringSum, _sym_isometry, isotypic_band_weight, \
    scenario_layout, traced_permutation_sum
from .tensor import DensityOperator, LabeledSpace, Operator, PureState, \
    _kron, _kron_power, as_matrix, lanczos_min_eig

VERDICT_CONSISTENT = "CONSISTENT_AT_LEVEL"
VERDICT_VIOLATED = "VIOLATED"
_BIPARTITE_TOL = 1e-8  # bipartite_check: spectra equal within this are realizable


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
    def kept_dim(self) -> int:
        """Dimension of one copy of the kept space: the product of the
        context dimensions."""
        return math.prod(self.joint.dim_of(x) for ctx in self.contexts for x in ctx)

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
        return reduce(_kron, [rho.mat for rho in self.marginals])


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


def _apply_product_power(mat: np.ndarray, n: int, vec: np.ndarray) -> np.ndarray:
    """(mat^{tensor n}) @ vec without forming the big matrix, in the dtype
    numpy promotes ``mat`` and ``vec`` to: a real matrix on a real vector
    stays in real arithmetic."""
    d = mat.shape[0]
    v = np.asarray(vec).reshape(d, -1)
    for _ in range(n):
        # act on the leading copy, then rotate it to the back; after n steps
        # every copy has been hit once and the axes are in order again
        v = (mat @ v).T.reshape(d, -1)
    return v.reshape(-1)


@lru_cache(maxsize=32)
def _swap_order(ctx_dims: tuple[int, ...], n: int
                ) -> tuple[np.ndarray, tuple, tuple, np.ndarray, np.ndarray]:
    """(order, pairs, sectors, inverse, scale) splitting the kept space of n
    copies of the contexts by the swap of copies 1 and 2 inside each context.

    The kept index is slot-major over slots t*m + i of dimension
    ``ctx_dims[i]``; context i's two copy digits are those of slots i and
    m + i.  ``order`` gathers the kept indices context by context: context
    i's digit pairs run (a, a), then (a, b) for a < b, then (b, a) in the
    same order, and copies 3..n come last; ``inverse`` is the position of
    each kept index in ``order``.  ``pairs[i]`` is (d, d(d+1)/2) for
    context i: once ``_pair_butterfly`` has taken (e_ab, e_ba) to
    (e_ab + e_ba, e_ba - e_ab)/sqrt2, the first d(d+1)/2 pairs span the
    swap's +1 eigenspace and the rest its -1 eigenspace.  ``sectors`` lists,
    all-symmetric first, each sector's per-context choice (0 symmetric, 1
    antisymmetric) and its range of pairs in every context, so a sector
    block is a product of contiguous ranges.  ``scale[c]`` is sqrt(|O_c|),
    |O_c| = 2^(number of contexts whose digit pair at position c is
    off-diagonal): the column scale of ``_split_sectors``.  At n = 1 there
    is one sector, and ``order`` and ``inverse`` are the identity."""
    m = len(ctx_dims)
    big = math.prod(ctx_dims) ** n
    if n == 1:
        order, scale = np.arange(big), np.ones(big)
        for a in (order, scale):
            a.setflags(write=False)
        return order, (), (((), ()),), order, scale
    slot_dims = ctx_dims * n
    pairs = tuple((d, d * (d + 1) // 2) for d in ctx_dims)
    order = np.arange(big // math.prod(ctx_dims) ** 2)  # copies 3..n
    off = np.zeros(order.size, dtype=np.int64)  # off-diagonal pairs per position
    for i in reversed(range(m)):
        d = ctx_dims[i]
        a, b = np.triu_indices(d, 1)
        first = np.concatenate([np.arange(d), a, b])
        second = np.concatenate([np.arange(d), b, a])
        index = (first * math.prod(slot_dims[i + 1:])
                 + second * math.prod(slot_dims[m + i + 1:]))
        order = (index[:, None] + order[None, :]).reshape(-1)
        off = ((first != second)[:, None] + off[None, :]).reshape(-1)
    sectors = []
    for s in range(1 << m):
        choice = tuple((s >> i) & 1 for i in range(m))
        if all(d > 1 or not c for d, c in zip(ctx_dims, choice)):
            sectors.append((choice, tuple(slice(k, d * d) if c else slice(0, k)
                                          for (d, k), c in zip(pairs, choice))))
    inverse = np.empty_like(order)
    inverse[order] = np.arange(big)
    # sqrt of an exact power of two: sqrt2 * sqrt2 would round above 2
    scale = np.sqrt(np.ldexp(1.0, off))
    for a in (order, inverse, scale):
        a.setflags(write=False)
    return order, pairs, tuple(sectors), inverse, scale


def _sector_shape(pairs, big: int) -> tuple[int, ...]:
    """The kept space (dimension ``big``) in the order of ``_swap_order`` as
    a tensor: one axis of d*d digit pairs per context, then copies 3..n."""
    shape = tuple(d * d for d, _ in pairs)
    return shape + (big // math.prod(shape),)


def _pair_butterfly(x: np.ndarray, pairs, back: bool = False) -> None:
    """In place along the leading axis of a C-contiguous ``x`` in the order
    of ``_swap_order``: for each context and pair a < b,
    (x_ab, x_ba) <- (x_ab + x_ba, x_ba - x_ab)/sqrt2, or the transpose of
    that map when ``back``."""
    pre = 1
    for d, k in pairs:
        x3 = x.reshape(pre, d * d, -1)
        u, v = x3[:, d:k], x3[:, k:]
        if back:
            u, v = v, u
        v -= u
        u *= 2
        u += v
        x3[:, d:] *= math.sqrt(0.5)
        pre *= d * d


def _split_sectors(x: np.ndarray, ctx_dims: tuple[int, ...], n: int) -> list[np.ndarray]:
    """The diagonal blocks P h P^T of a Hermitian ``h`` on the kept space of
    n copies, one per sector and Hermitian-averaged, from the C-contiguous
    ``x = h[np.ix_(order, order)]`` in the order of ``_swap_order`` (which
    ``WiringSum.to_matrix(budget, order)`` scatters directly).  ``x`` is
    overwritten.  P is the orthogonal change of basis of ``_swap_order`` and
    ``_pair_butterfly``.

    Precondition: h commutes with the swap of copies 1 and 2 of every
    context, as every RHS and product power of the hierarchy does; that is
    also why the blocks off the diagonal are dropped.  Only the rows are
    butterflied: g = P h with its columns in ``order`` then satisfies
    g[r, swap(c)] = +-g[r, c], the sign of r's sector, so on a diagonal
    block the column butterfly just multiplies column c by
    sqrt(|O_c|) (``scale``): (P h P^T)[r, c] = sqrt(|O_c|) g[r, c]."""
    _, pairs, sectors, _, scale = _swap_order(ctx_dims, n)
    if len(sectors) == 1:
        return [(x + x.conj().T) / 2]
    _pair_butterfly(x, pairs)
    shape = _sector_shape(pairs, x.shape[0])
    x = x.reshape(shape + shape)
    scale = scale.reshape(shape)
    blocks = []
    for _, slices in sectors:
        blk = x[slices + (slice(None),) + slices] * scale[slices]
        blk = blk.reshape(math.prod(blk.shape[:len(shape)]), -1)
        blocks.append((blk + blk.conj().T) / 2)
    return blocks


def _swap_blocks(h: np.ndarray, ctx_dims: tuple[int, ...], n: int) -> list[np.ndarray]:
    """``_split_sectors`` of an already formed Hermitian ``h`` that commutes
    with the per-context swaps, after one ``np.ix_`` gather into the order
    of ``_swap_order``; ``h`` is left as it is."""
    order = _swap_order(ctx_dims, n)[0]
    return _split_sectors(h[np.ix_(order, order)], ctx_dims, n)


def _hermitian_real(a: np.ndarray) -> np.ndarray:
    """The Hermitian average of a marginal's matrix, as a real array when
    its imaginary part vanishes: the one rule by which both solver paths
    tell a real marginal from a complex one."""
    a = (a + a.conj().T) / 2
    return a if a.imag.any() else a.real


def _power_blocks(mats: Sequence[np.ndarray], ctx_dims: tuple[int, ...], n: int
                  ) -> list[np.ndarray]:
    """The blocks ``_swap_blocks`` takes from rho^{x n}, rho = mats[0] x ...
    x mats[m-1], built without forming rho^{x n}.

    The swap of copies 1 and 2 of context i acts on rho_i x rho_i only, and
    ``_swap_order`` lists the kept space context by context, so each sector
    block is the Kronecker product of one two-copy block per context
    (``_swap_blocks`` of rho_i x rho_i) with rho^{x (n-2)} for copies 3..n.
    Each factor is Hermitian-averaged, so every block is exactly Hermitian;
    real marginals give real blocks."""
    mats = [_hermitian_real(a) for a in mats]
    if n == 1:
        return [reduce(_kron, mats)]
    two = [_swap_blocks(_kron(a, a), (d,), 2) for a, d in zip(mats, ctx_dims)]
    rest = [_kron_power(reduce(_kron, mats), n - 2)] if n > 2 else []
    return [reduce(_kron, [blks[c] for blks, c in zip(two, choice)] + rest)
            for choice, _ in _swap_order(ctx_dims, n)[2]]


def _above(b: np.ndarray, lam: float) -> bool:
    """Whether the Cholesky factorisation of the Hermitian b - lam*I
    succeeds, which proves every eigenvalue of b exceeds lam (up to the
    factorisation's backward error)."""
    try:
        np.linalg.cholesky(b - lam * np.eye(b.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def _sector_min_eig(blocks: Sequence[np.ndarray], ctx_dims: tuple[int, ...], n: int
                    ) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a Hermitian operator on the kept space of n
    copies, given as its sector blocks (``_swap_blocks``, ``_power_blocks``).

    The smallest block (the all-antisymmetric sector when every context has
    dimension > 1) goes to ``eigh``, and its bottom eigenvalue is the best
    lam so far.  Every other block B is screened by a Cholesky factorisation
    of B - lam*I.  If it succeeds, B - lam*I is positive definite, so B
    holds no eigenvalue at or below lam and is skipped without a solve.  The
    guarantee holds up to Cholesky's backward error (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 10): a skipped block's minimum
    may lie below lam by at most about dim^2 * eps * ||B - lam*I||, the
    order of ``eigh``'s own rounding.  A block whose factorisation fails
    goes to ``eigh`` and replaces the best only when its bottom eigenvalue
    is strictly smaller.  The winning block's bottom eigenvector y is
    mapped back as P^T y.  With one sector (n = 1) this is plain ``eigh``."""
    order, pairs, sectors, inverse, _ = _swap_order(ctx_dims, n)
    k = first = min(range(len(blocks)), key=lambda i: blocks[i].shape[0])
    w, v = np.linalg.eigh(blocks[first])
    lam, y = w[0], v[:, 0]
    for i, b in enumerate(blocks):
        if i == first or _above(b, lam):
            continue
        w, v = np.linalg.eigh(b)
        if w[0] < lam:
            k, lam, y = i, w[0], v[:, 0]
    vec = np.zeros(order.size, dtype=np.complex128)
    part = vec.reshape(_sector_shape(pairs, order.size))[sectors[k][1]]
    part[...] = y.reshape(part.shape)
    _pair_butterfly(vec, pairs, back=True)
    return float(lam), vec[inverse]


def _dense_gap(rhs_blocks: Sequence[np.ndarray], mats: Sequence[np.ndarray], n: int,
               lhs_scale: float) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of rhs - lhs_scale * rho^{x n}, rho = mats[0] x ...
    x mats[m-1], solved sector by sector.

    ``rhs_blocks`` are the sector blocks of the RHS on the kept space of n
    copies (real for a wiring sum or a real subspace projector), which
    commutes with every per-context swap of copies 1 and 2: ``_split_sectors``
    splits them from its matrix formed in the order of ``_swap_order``.  The
    product power's blocks are Kronecker products of per-context two-copy
    blocks (``_power_blocks``), and each difference r - lhs_scale * p is
    formed out of place, so either dtype serves; rho^{x n} is never formed.
    The differences go to ``_sector_min_eig``; the context dimensions are
    those of ``mats``."""
    ctx_dims = tuple(a.shape[0] for a in mats)
    blocks = [r - lhs_scale * p for r, p in zip(rhs_blocks,
                                                  _power_blocks(mats, ctx_dims, n))]
    return _sector_min_eig(blocks, ctx_dims, n)


_DENSE_EIG_FAST = 1024  # LAPACK up to this kept dimension, Lanczos above


def _min_gap(ws: WiringSum, mats: Sequence[np.ndarray], n: int, *,
             budget: Budgets = BUDGET, lhs_scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue (and eigenvector) of RHS - lhs_scale * rho^{x n},
    rho = mats[0] x ... x mats[m-1], one matrix per context.

    ``ws`` is a scenario sum (slot t*m + i keeps context i), whose kept
    dimension alone picks the solver.  Up to ``_DENSE_EIG_FAST`` its real
    matrix is scattered straight into the order of ``_swap_order``, split in
    place by ``_split_sectors`` (the sum commutes with the per-context swap
    of copies 1 and 2) and solved by ``_dense_gap``, at most one LAPACK
    solve per sector.  Above that, Lanczos runs on the full kept space with
    rho built from the Hermitian-averaged marginals (``_hermitian_real``), in
    float64 when every one is real and in complex128 otherwise.
    For real marginals the operator is real symmetric, and its minimum is
    reached at a real vector, so a real Krylov space loses nothing.  A
    non-finite Lanczos result raises ``ArithmeticError``."""
    big = ws.layout.out_dim
    if big <= _DENSE_EIG_FAST:
        ctx_dims = tuple(a.shape[0] for a in mats)
        order = _swap_order(ctx_dims, n)[0]
        # the matrix is freed once split: only its blocks reach the solve
        blocks = _split_sectors(ws.to_matrix(budget, order), ctx_dims, n)
        return _dense_gap(blocks, mats, n, lhs_scale)

    rho_m = reduce(_kron, [_hermitian_real(a) for a in mats])
    real = not np.iscomplexobj(rho_m)

    def matvec(v):
        out = ws.apply(v)
        out -= lhs_scale * _apply_product_power(rho_m, n, v)
        return out

    lam, vec = lanczos_min_eig(matvec, big, budget=budget,
                               dtype=np.float64 if real else np.complex128)
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
    budget.check_perms(n * scen.m)
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


def _check_args(n: int, tol: Tolerances) -> None:
    if n < 1:
        raise ValueError(f"level n must be >= 1, got {n}")
    if not 0 <= tol.psd < math.inf:  # a negative tol.psd would certify a gap of 0
        raise ValueError(f"tol.psd must be finite and >= 0, got {tol.psd}")


def _check(state: MProductState, v: int, n: int, tol: Tolerances, budget: Budgets
           ) -> RealizabilityCertificate:
    """The level-n check of v^{nm} * tuple^{x n} against the traced sum of
    isotypic projectors over shapes with at most v rows; ``hierarchy_check``
    is v = 1.  The level and tol.psd are checked before v, then the cached
    sum is solved and certified."""
    _check_args(n, tol)
    scen = state.scenario
    if not (1 <= v <= scen.d_joint):
        raise ValueError(f"orthogonal-solution count v={v} must be in 1..{scen.d_joint}")
    ws = _scenario_sum(scen, n, budget, v)
    gap, wvec = _min_gap(ws, [rho.mat for rho in state.marginals], n, budget=budget,
                         lhs_scale=float(v) ** (n * scen.m))
    return _certificate(gap, wvec, n, scen, tol)


def hierarchy_check(state: MProductState, n: int, *, tol: Tolerances = TOL,
                    budget: Budgets = BUDGET) -> RealizabilityCertificate:
    """Level-n realizability check for a candidate marginal tuple.

    Computes the smallest eigenvalue of the traced symmetrizer minus the
    tuple's n-th tensor power.  A gap below -tol.psd is a sound certificate
    that no joint pure state has these marginals; a non-negative gap only
    rules nothing out at this level.  Kept dimensions up to 1024 solve
    densely, one block per sector of the per-context swap of copies 1 and 2
    (``_min_gap``, ``_split_sectors``, ``_sector_min_eig``); larger ones run
    Lanczos.  Real marginals (real after the Hermitian average) run in real
    arithmetic on both paths, so a Lanczos witness has zero imaginary part.
    """
    return _check(state, 1, n, tol, budget)


def ortho_bound_check(state: MProductState, v: int, n: int, *, tol: Tolerances = TOL,
                      budget: Budgets = BUDGET) -> RealizabilityCertificate:
    """Necessary condition for v mutually orthogonal joint states to share
    the candidate marginal tuple.

    Checks v^{nm} * tuple^{x n} against the sum of traced isotypic projectors
    over shapes with at most v rows; v = 1 reduces to hierarchy_check.  A
    violation rules out v orthogonal solutions (it does not rule out fewer).
    """
    return _check(state, v, n, tol, budget)


def _subspace_rhs(scen: MarginalScenario, p_v: Operator, n: int, budget: Budgets
                  ) -> np.ndarray:
    """The factor A whose Gram product A A^H is the RHS of
    ``subspace_hierarchy_check``: the projector V^{x nm} S S^T V^{H x nm}
    onto the symmetric power of the range V of ``p_v`` (real for a real
    projector) on n*m joint slots, partial-traced to the kept space of n
    copies, so it commutes with every per-context swap of copies 1 and 2.
    A is V^{x nm} S with its wires reordered to (kept | dropped, type); V
    acts on one slot at a time, so no intermediate exceeds A."""
    nm = n * scen.m
    budget.check_dense(scen.kept_dim ** n, "subspace RHS")
    w, u = np.linalg.eigh(_hermitian_real(p_v.mat))
    v = u[:, w > 0.5]
    r = v.shape[1]
    types = math.comb(nm + r - 1, nm)
    budget.check_entries(scen.d_joint ** nm * types, "subspace RHS factor")
    a = _sym_isometry(r, nm).reshape((r,) * nm + (types,))
    for _ in range(nm):  # V on the leading slot, rotated to the back
        a = np.tensordot(a, v, axes=(0, 1))
    # axes: the type, then the wires slot-major; kept wires first, in order
    wires = scen.joint.names * nm
    kept = [x in scen.contexts[w // scen.joint.nslots % scen.m] for w, x in enumerate(wires)]
    axes = sorted(range(1, len(wires) + 1), key=lambda ax: not kept[ax - 1]) + [0]
    a = a.reshape((types,) + scen.joint.dims * nm).transpose(axes)
    return a.reshape(scen.kept_dim ** n, -1)


def subspace_hierarchy_check(state: MProductState, p_v: Operator, n: int, *,
                             tol: Tolerances = TOL, budget: Budgets = BUDGET
                             ) -> RealizabilityCertificate:
    """Realizability check with the joint state confined to a subspace.

    ``p_v`` must be an orthogonal projector on the joint register; the
    symmetrizer is replaced by the projector onto the symmetric power of its
    range (the two projectors commute, so the product is that projector).
    Covers fermionic/bosonic joint spaces and rank-limited joint supports.
    ``p_v`` must carry the joint register's labels in its order, as
    ``marginals_of`` requires of a state.  The RHS A A^H is formed with the
    rows of ``_subspace_rhs``'s factor A in the copy-swap order, then split
    and solved like ``hierarchy_check``'s dense path.  ``dense_dim`` caps the
    kept dimension, and ``dense_dim**2`` the entries of A.
    """
    _check_args(n, tol)
    scen = state.scenario
    if p_v.space.dims != scen.joint.dims or p_v.space.names != scen.joint.names:
        raise ValueError(
            f"projector must act on the scenario's joint register in its label order: "
            f"projector labels {p_v.space.labels}, joint register {scen.joint.labels}")
    if not p_v.is_hermitian(1e-8):
        raise ValueError("p_v is not Hermitian")
    if np.max(np.abs(p_v.mat @ p_v.mat - p_v.mat)) > 1e-8:
        raise ValueError("p_v is not idempotent")
    mats = [rho.mat for rho in state.marginals]
    ctx_dims = tuple(a.shape[0] for a in mats)
    a = _subspace_rhs(scen, p_v, n, budget)[_swap_order(ctx_dims, n)[0]]
    rhs_blocks = _split_sectors(a @ a.conj().T, ctx_dims, n)
    gap, wvec = _dense_gap(rhs_blocks, mats, n, 1.0)
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
    x = reduce(_kron, mats)
    # x axes: [A1, B1, A2, C2, B3, C3]; singlet pairs (A1,A2), (B1,B3), (C2,C3)
    w = _kron_power(_SINGLET_PROJ, 3)
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


def bipartite_check(rho_a: DensityOperator, rho_b: DensityOperator) -> BipartiteResult:
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
    if tail > _BIPARTITE_TOL:
        return BipartiteResult(False, math.inf, pinsker,
                               tuple(map(float, sa)), tuple(map(float, sb)),
                               tuple((pa + pb) / 2.0))
    from .divergence import kl_divergence

    r = (pa + pb) / 2.0
    rate = kl_divergence(pa, r) + kl_divergence(pb, r)
    realizable = bool(np.max(np.abs(pa - pb)) <= _BIPARTITE_TOL)
    if not rate + 1e-12 >= pinsker - 1e-9:   # also catches a NaN rate
        raise ArithmeticError("divergence fell below its norm bound")
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
