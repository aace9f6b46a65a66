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
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import BUDGET, TOL, Budgets, ResourceBudgetError, Tolerances
from .divergence import kl_divergence
from .partitions import littlewood_richardson, partitions_of, \
    schur_polynomial, specht_dim, weyl_dim
from .symmetrizer import WiringSum, check_perms_budget, isotypic_band_weight, \
    scenario_layout, sym_projector, traced_permutation_sum
from .tensor import DensityOperator, LabeledSpace, Operator, PureState, \
    lanczos_min_eig, min_eigenvalue_matrix_free, partial_trace, power_space

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
            out["witness_re"] = [float(x) for x in self.witness.real]
            out["witness_im"] = [float(x) for x in self.witness.imag]
        return out


# ---------------------------------------------------------------------------
# Shared eigen-gap machinery


def _kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    out = mat
    for _ in range(n - 1):
        out = np.kron(out, mat)
    return out


def _apply_product_power(mat: np.ndarray, n: int, vec: np.ndarray) -> np.ndarray:
    """(mat^{tensor n}) @ vec without forming the big matrix."""
    d = mat.shape[0]
    v = np.asarray(vec, dtype=np.complex128).reshape((d,) * n)
    for i in range(n):
        v = np.moveaxis(np.tensordot(mat, v, axes=([1], [i])), 0, i)
    return v.reshape(-1)


_DENSE_EIG_FAST = 1024  # prefer LAPACK below this, Lanczos above


def _min_gap(ws: WiringSum, rho_m: np.ndarray, n: int, *, method: str = "auto",
             budget: Budgets = BUDGET, lhs_scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue (and eigenvector) of RHS - lhs_scale * rho_m^{x n}."""
    big = ws.layout.out_dim
    if rho_m.shape[0] ** n != big:
        raise ValueError("product state dimension does not match the layout")
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    use_dense = method == "dense" or (method == "auto" and big <= _DENSE_EIG_FAST)
    if use_dense:
        if big > budget.dense_eig_dim:
            raise ResourceBudgetError(f"dense eigensolve dimension {big} exceeds cap")
        h = ws.to_matrix(budget) - lhs_scale * _kron_power(rho_m, n)
        h = (h + h.conj().T) / 2
        w, v = np.linalg.eigh(h)
        return float(w[0]), v[:, 0]

    def matvec(v):
        return ws.apply(v) - lhs_scale * _apply_product_power(rho_m, n, v)

    lam, vec = lanczos_min_eig(matvec, big, budget=budget)
    if not math.isfinite(lam):
        shift = sum(abs(c) for c in ws.terms.values()) + abs(lhs_scale) + 0.5
        lam, vec = min_eigenvalue_matrix_free(matvec, big, shift=shift, budget=budget)
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
    warning = (not violated) and gap < 0
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
                    budget: Budgets = BUDGET, method: str = "auto") -> RealizabilityCertificate:
    """Level-n realizability check for a candidate marginal tuple.

    Computes the smallest eigenvalue of the traced symmetrizer minus the
    tuple's n-th tensor power.  A gap below -tol.psd is a sound certificate
    that no joint pure state has these marginals; a non-negative gap only
    rules nothing out at this level.
    """
    scen = state.scenario
    ws = _scenario_sum(scen, n, budget)
    gap, wvec = _min_gap(ws, state.product_matrix(), n, method=method, budget=budget)
    return _certificate(gap, wvec, n, scen, tol)


def ortho_bound_check(state: MProductState, v: int, n: int, *, tol: Tolerances = TOL,
                      budget: Budgets = BUDGET, method: str = "auto") -> RealizabilityCertificate:
    """Necessary condition for v mutually orthogonal joint states to share
    the candidate marginal tuple.

    Checks v^{nm} * tuple^{x n} against the sum of traced isotypic projectors
    over shapes with at most v rows; v = 1 reduces to hierarchy_check.  A
    violation rules out v orthogonal solutions (it does not rule out fewer).
    """
    scen = state.scenario
    if not (1 <= v <= scen.d_joint):
        raise ValueError(f"orthogonal-solution count v={v} must be in 1..{scen.d_joint}")
    ws = _scenario_sum(scen, n, budget, v)
    gap, wvec = _min_gap(ws, state.product_matrix(), n, method=method, budget=budget,
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
    scen = state.scenario
    if p_v.space.dims != scen.joint.dims:
        raise ValueError("projector must act on the scenario's joint register")
    if not p_v.is_hermitian(1e-8):
        raise ValueError("p_v is not Hermitian")
    if np.max(np.abs(p_v.mat @ p_v.mat - p_v.mat)) > 1e-8:
        raise ValueError("p_v is not idempotent")
    nm = n * scen.m
    d_j = scen.d_joint
    if d_j ** nm > budget.dense_dim:
        raise ResourceBudgetError(
            f"joint power dimension {d_j ** nm} exceeds dense cap")
    pi = sym_projector(d_j, nm, budget).dense
    if pi is None:
        raise ResourceBudgetError("subspace check requires the dense symmetrizer")
    p_big = _kron_power(p_v.mat, nm)
    s = pi.mat @ p_big
    s = (s + s.conj().T) / 2
    big_space = power_space(scen.joint, nm)
    # wires: slot-major, joint label order inside each slot
    nlab = scen.joint.nslots
    drop = []
    for slot in range(nm):
        ctx = scen.contexts[slot % scen.m]
        for j, x in enumerate(scen.joint.names):
            if x not in ctx:
                drop.append(slot * nlab + j)
    rhs = partial_trace(Operator(big_space, s), drop).mat
    lhs = _kron_power(state.product_matrix(), n)
    h = (rhs + rhs.conj().T) / 2 - lhs
    w, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    return _certificate(float(w[0]), vecs[:, 0], n, scen, tol)


# ---------------------------------------------------------------------------
# Three-qubit overlap witness


_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
_SINGLET_PROJ = np.outer(_SINGLET, _SINGLET)


def _as_two_qubit(x) -> np.ndarray:
    mat = x.mat if hasattr(x, "mat") else np.asarray(x, dtype=np.complex128)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a two-qubit operator, got shape {mat.shape}")
    return mat


def three_qubit_witness(rho_ab, rho_ac, rho_bc) -> float:
    """Overlap of a pairwise-marginal triple with the three-singlet direction.

    Contracts rho_AB x rho_AC x rho_BC against singlet projectors that pair
    the two A legs, the two B legs, and the two C legs across contexts.  Any
    triple arising from one joint three-qubit pure state gives exactly 0, so
    a nonzero value certifies that no such joint state exists.
    """
    x = np.kron(np.kron(_as_two_qubit(rho_ab), _as_two_qubit(rho_ac)),
                _as_two_qubit(rho_bc))
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
