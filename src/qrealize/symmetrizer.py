"""Tensor-permutation machinery on labeled slot systems.

Three layers live here:

* dense projectors onto the symmetric / antisymmetric / general isotypic
  subspaces of (C^d)^{otimes k}, built as character-weighted permutation sums;

* a wiring engine that partial-traces a permutation operator over any subset
  of (slot, label) wires without materializing the big space — each traced
  permutation collapses to (product of loop dimension factors) x (a
  permutation of the kept wires).  A ``WiringSum`` merges such terms with
  real coefficients.  Each term keeps the level histogram of every orbit of
  the kept axes, so the sum is block diagonal over those sectors; it is
  compiled once into stacked dense real blocks, one array per block size, so
  each matvec is one gather, a few batched real matmuls and one scatter;

* the biriffle evaluation of Tr(symmetric-average (X_1 x ... x X_k)) as a sum
  over double cosets of S_n^k in S_{nk}, with a full-permutation-sum oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .config import BUDGET, Budgets, ResourceBudgetError
from .partitions import (Partition, all_cycle_types, cycle_type, double_cosets,
                         mn_character, partitions_of, specht_dim, weyl_dim)
from .tensor import (DensityOperator, LabeledSpace, Operator, apply_slot_permutation,
                     as_matrix, trace_with_permutation)

# ---------------------------------------------------------------------------
# Dense permutation-sum projectors on k equal slots


def _accumulate_axis_perm(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int],
                          coeff: complex, col_multi: np.ndarray) -> None:
    """mat[r, c] += coeff over the entries of the axis-permutation operator.

    ``col_multi`` is the (k, D) table of column multi-indices (precomputed by
    the caller); row multi-index r satisfies r_{perm[a]} = c_a.
    """
    if not perm:
        mat[0, 0] += coeff
        return
    k = len(perm)
    inv = [0] * k
    for a, b in enumerate(perm):
        inv[b] = a
    rows = np.ravel_multi_index([col_multi[inv[b]] for b in range(k)], tuple(dims))
    mat[rows, np.arange(mat.shape[1])] += coeff


def _permutation_sum(d: int, k: int, weight: Callable[[tuple[int, ...]], complex],
                     budget: Budgets = BUDGET) -> np.ndarray:
    """Sum over all of S_k of weight(perm) T(perm) on (C^d)^{otimes k}, dense."""
    big = d ** k
    budget.check_dense(big, f"dense permutation sum on {k} slots of C^{d}")
    if math.factorial(k) > budget.perms_dense:
        raise ResourceBudgetError(f"dense permutation sum on {k} slots: {k}! permutations "
                                  f"exceed cap perms_dense={budget.perms_dense}")
    dims = (d,) * k
    col_multi = np.array(np.unravel_index(np.arange(big), dims))
    out = np.zeros((big, big), dtype=np.complex128)
    for perm in itertools.permutations(range(k)):
        w = weight(perm)
        if w != 0:
            _accumulate_axis_perm(out, dims, perm, w, col_multi)
    return out


def _slot_space(d: int, k: int) -> LabeledSpace:
    return LabeledSpace(tuple((f"s{t}", d) for t in range(k)))


def sym_projector(d: int, k: int, budget: Budgets = BUDGET) -> Operator:
    """Orthogonal projector onto the symmetric subspace of k slots of C^d."""
    mat = _permutation_sum(d, k, lambda p: 1.0 / math.factorial(k), budget)
    return Operator(_slot_space(d, k), mat)


def antisym_projector(d: int, k: int, budget: Budgets = BUDGET) -> Operator:
    """Orthogonal projector onto the antisymmetric subspace; zero for k > d."""
    def sgn(perm):
        return (-1.0) ** (len(perm) - len(set_cycles(perm))) / math.factorial(k)
    mat = _permutation_sum(d, k, sgn, budget)
    return Operator(_slot_space(d, k), mat)


def set_cycles(perm: Sequence[int]) -> list[list[int]]:
    """Cycle decomposition; each cycle listed in iteration order from its
    smallest unvisited element."""
    seen = [False] * len(perm)
    cycles = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        cyc = []
        t = s
        while not seen[t]:
            seen[t] = True
            cyc.append(t)
            t = perm[t]
        cycles.append(cyc)
    return cycles


def uniform_sym_state(d: int, k: int, budget: Budgets = BUDGET) -> DensityOperator:
    """The maximally mixed state on the symmetric subspace,
    projector / binom(k+d-1, k)."""
    return DensityOperator(sym_projector(d, k, budget) * (1.0 / math.comb(k + d - 1, k)))


def isotypic_projector(lam: Partition, d: int, n: int, budget: Budgets = BUDGET) -> Operator:
    """Projector onto the lam-isotypic component of S_n acting on n slots of C^d.

    Built as (specht_dim(lam)/n!) sum_pi character(cycle type of pi) T(pi);
    the projectors over all lam of size n resolve the identity.
    """
    if lam.size != n:
        raise ValueError(f"partition size {lam.size} != number of slots {n}")
    f = specht_dim(lam)
    chars = {t.parts: mn_character(lam, t) for t in all_cycle_types(n)}

    def weight(perm):
        return f * chars[cycle_type(perm).parts] / math.factorial(n)

    mat = _permutation_sum(d, n, weight, budget)
    return Operator(_slot_space(d, n), mat)


# ---------------------------------------------------------------------------
# Wiring: partial traces of permutation operators


@dataclass(frozen=True)
class SlotLayout:
    """N slots, each carrying one wire per label; a wire is kept or dropped.

    ``kept[x]`` lists the slots whose label-x wire survives the partial
    trace.  The surviving wires are ordered slot-major (all kept wires of
    slot 0, then slot 1, ...), with labels in their listed order inside a
    slot; that ordering defines the axis layout of every traced operator.
    """

    nslots: int
    labels: tuple[tuple[str, int], ...]
    kept: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        names = [n for n, _ in self.labels]
        for x, slots in self.kept:
            if x not in names:
                raise ValueError(f"kept entry for unknown label {x!r}")
            if any(not (0 <= s < self.nslots) for s in slots):
                raise ValueError(f"kept slot out of range for label {x!r}")

    @property
    def dim_by_label(self) -> dict[str, int]:
        return dict(self.labels)

    @property
    def kept_by_label(self) -> dict[str, frozenset]:
        return {x: frozenset(slots) for x, slots in self.kept}

    @cached_property
    def axes(self) -> list[tuple[int, str]]:
        """Kept wires as (slot, label), slot-major.  Computed once, as are
        ``axis_dims`` and ``out_dim``; treat the list as read-only."""
        per_slot: dict[int, list[str]] = {s: [] for s in range(self.nslots)}
        for x, slots in self.kept:
            for s in slots:
                per_slot[s].append(x)
        order = {n: i for i, (n, _) in enumerate(self.labels)}
        out = []
        for s in range(self.nslots):
            for x in sorted(per_slot[s], key=order.__getitem__):
                out.append((s, x))
        return out

    @cached_property
    def axis_dims(self) -> tuple[int, ...]:
        dd = self.dim_by_label
        return tuple(dd[x] for _, x in self.axes)

    @cached_property
    def out_dim(self) -> int:
        return math.prod(self.axis_dims)

    def space(self) -> LabeledSpace:
        dd = self.dim_by_label
        return LabeledSpace(tuple((f"{x}#{s}", dd[x]) for s, x in self.axes))


def scenario_layout(labels: Sequence[tuple[str, int]],
                    contexts: Sequence[Sequence[str]], n: int) -> SlotLayout:
    """Layout for n copies of m contexts: slot t*m + i keeps exactly the
    labels of context i."""
    m = len(contexts)
    kept = []
    for x, _ in labels:
        slots = tuple(t * m + i for t in range(n) for i in range(m) if x in contexts[i])
        kept.append((x, slots))
    return SlotLayout(n * m, tuple((x, d) for x, d in labels), tuple(kept))


@dataclass(frozen=True)
class WiringOperator:
    """scalar x (permutation of the kept wires): the partial trace of a
    tensor-permutation operator.  ``perm[a]`` is the destination axis of the
    content of kept axis a."""

    scalar: float
    perm: tuple[int, ...]
    dims: tuple[int, ...]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.scalar * apply_slot_permutation(vec, self.dims, self.perm)

    def to_matrix(self) -> np.ndarray:
        big = math.prod(self.dims)
        out = np.zeros((big, big), dtype=np.complex128)
        col_multi = np.array(np.unravel_index(np.arange(big), self.dims)) \
            if self.dims else np.zeros((0, 1), dtype=int)
        _accumulate_axis_perm(out, self.dims, self.perm, self.scalar, col_multi)
        return out


def traced_permutation(layout: SlotLayout, perm: Sequence[int]) -> WiringOperator:
    """Partial trace of the slot permutation over all dropped wires.

    Cycles of the permutation that never touch a kept wire of a label close
    into loops worth a factor of that label's dimension; on kept wires each
    slot forwards to the next kept slot encountered along its cycle.
    """
    if len(perm) != layout.nslots:
        raise ValueError("permutation length != slot count")
    kept = layout.kept_by_label
    dims = layout.dim_by_label
    cycles = set_cycles(list(perm))
    scalar = 1.0
    forward: dict[tuple[int, str], tuple[int, str]] = {}
    for x, _ in layout.labels:
        kx = kept.get(x, frozenset())
        if not kx:
            # every cycle is a closed loop for this label
            scalar *= dims[x] ** len(cycles)
            continue
        for cyc in cycles:
            members = [s for s in cyc if s in kx]
            if not members:
                scalar *= dims[x]
                continue
            for a, s in enumerate(members):
                forward[(s, x)] = (members[(a + 1) % len(members)], x)
    axes = layout.axes
    pos = {ax: i for i, ax in enumerate(axes)}
    sigma = tuple(pos[forward[ax]] for ax in axes)
    return WiringOperator(scalar, sigma, layout.axis_dims)


_COMPILE_ROWS = 64          # rows per chunk while filling the sector blocks


def _axis_orbits(nax: int, perms) -> list[list[int]]:
    """Orbits of the axes 0..nax-1 under the group generated by ``perms``."""
    root = list(range(nax))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for perm in perms:
        for a, b in enumerate(perm):
            root[find(a)] = find(b)
    orbits: dict[int, list[int]] = {}
    for a in range(nax):
        orbits.setdefault(find(a), []).append(a)
    return list(orbits.values())


class WiringSum:
    """A real-linear combination of wiring operators on a common layout.

    ``terms`` maps each kept-wire axis permutation to its real coefficient;
    ``add`` merges repeats.  Every term permutes the axes inside each orbit
    of the axes under all the terms, so it keeps the level histogram of each
    orbit (how many of its axes sit at each level).  A sector is one choice
    of those histograms, and the sum is exactly block diagonal over sectors.
    On the first ``apply`` or ``to_matrix`` the terms are compiled once into
    that block form: a permutation ``order`` of the kept-space indices that
    groups them by block size, then by sector, and one stacked
    ``(count, k, k)`` float64 array per block size k.  A matvec is then one
    gather, one real matmul per block size and one scatter.  ``to_matrix``
    returns the sum as a float64 matrix: every coefficient and every entry
    of a permutation is real.  ``add`` drops the compiled form; mutate the
    sum through ``add`` only.
    """

    def __init__(self, layout: SlotLayout):
        self.layout = layout
        self.terms: dict[tuple[int, ...], float] = {}
        self._blocks: tuple[np.ndarray, list[np.ndarray]] | None = None

    def add(self, wiring: WiringOperator, coeff: float = 1.0) -> None:
        dims = self.layout.axis_dims
        if wiring.dims != dims:
            raise ValueError("wiring axis dimensions do not match the layout")
        if any(dims[b] != dims[a] for a, b in enumerate(wiring.perm)):
            raise ValueError("wiring permutes axes of different dimensions")
        c = complex(coeff)
        if c.imag != 0:
            raise ValueError(f"wiring coefficients must be real, got {coeff!r}")
        key = wiring.perm
        self.terms[key] = self.terms.get(key, 0.0) + c.real * wiring.scalar
        self._blocks = None

    def _compiled(self) -> tuple[np.ndarray, list[np.ndarray]]:
        if self._blocks is None:
            self._blocks = self._compile()
        return self._blocks

    def _compile(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(order, blocks) of the merged sum.

        An index's sector is named by its multi-index with the levels inside
        each orbit sorted.  Row r of the permutation with content-of-axis-a
        -> axis perm[a] reads source index sum_a strides[inv(perm)[a]] * r_a;
        that entry lands in the block of r's sector, at the positions of r
        and of the source inside the sector.  Each block size is filled by
        ``np.bincount`` over row chunks, so transients stay chunk-sized.
        """
        dims = self.layout.axis_dims
        big = self.layout.out_dim
        strides = np.array([math.prod(dims[a + 1:]) for a in range(len(dims))],
                           dtype=np.int64)
        radix = np.array(dims, dtype=np.int64)

        def levels(idx: np.ndarray, axes) -> np.ndarray:  # (axes, indices)
            return idx // strides[axes, None] % radix[axes, None]

        index = np.arange(big)
        key = np.zeros(big, dtype=np.int64)
        for orbit in _axis_orbits(len(dims), self.terms):
            key += strides[orbit] @ np.sort(levels(index, orbit), axis=0)
        _, sector, size = np.unique(key, return_inverse=True, return_counts=True)
        size = size[sector]
        order = np.lexsort((key, size))
        first = np.ones(big, dtype=bool)
        first[1:] = key[order[1:]] != key[order[:-1]]
        pos = np.empty(big, dtype=np.int64)
        pos[order] = index - np.maximum.accumulate(np.where(first, index, 0))

        coeffs = np.fromiter(self.terms.values(), dtype=np.float64, count=len(self.terms))
        q = np.array([strides[np.argsort(p)] for p in self.terms],
                     dtype=np.int64).reshape(len(self.terms), len(dims))
        sizes, lows = np.unique(size[order], return_index=True)
        blocks = []
        for k, lo, hi in zip(sizes, lows, np.append(lows[1:], big)):
            flat = np.empty((hi - lo) * k)
            for r0 in range(lo, hi, _COMPILE_ROWS):
                r1 = min(r0 + _COMPILE_ROWS, hi)
                src = (q @ levels(order[r0:r1], slice(None))).T    # (rows, terms)
                cell = np.arange(r1 - r0)[:, None] * k + pos[src]
                flat[(r0 - lo) * k:(r1 - lo) * k] = np.bincount(
                    cell.ravel(), np.broadcast_to(coeffs, src.shape).ravel(),
                    minlength=(r1 - r0) * k)
            blocks.append(flat.reshape(-1, k, k))
        return order, blocks

    def apply(self, vec: np.ndarray) -> np.ndarray:
        order, blocks = self._compiled()
        big = self.layout.out_dim
        v = np.asarray(vec, dtype=np.complex128).reshape(-1)
        if v.shape[0] != big:
            raise ValueError(f"vector length {v.shape[0]} != layout dimension {big}")
        # real blocks act on the (re, im) pairs of the gathered vector
        g = v[order].view(np.float64).reshape(big, 2)
        h = np.empty_like(g)
        lo = 0
        for b in blocks:
            count, k, _ = b.shape
            hi = lo + count * k
            np.matmul(b, g[lo:hi].reshape(count, k, 2), out=h[lo:hi].reshape(count, k, 2))
            lo = hi
        out = np.empty(big, dtype=np.complex128)
        out[order] = h.view(np.complex128).reshape(-1)
        return out

    def to_matrix(self, budget: Budgets = BUDGET) -> np.ndarray:
        big = self.layout.out_dim
        budget.check_dense(big, "dense wiring sum")
        order, blocks = self._compiled()
        out = np.zeros((big, big))
        lo = 0
        for b in blocks:
            count, k, _ = b.shape
            idx = order[lo:lo + count * k].reshape(count, k)
            out[idx[:, :, None], idx[:, None, :]] = b
            lo += count * k
        return out


def check_perms_budget(nslots: int, budget: Budgets = BUDGET) -> None:
    """Raise ResourceBudgetError when a sum over all nslots! slot
    permutations exceeds the budget's matrix-free cap."""
    if math.factorial(nslots) > budget.perms_matrix_free:
        raise ResourceBudgetError(
            f"{nslots}! permutation terms exceed cap {budget.perms_matrix_free}")


def traced_permutation_sum(layout: SlotLayout,
                           weight_of_type: Callable[[Partition], float],
                           budget: Budgets = BUDGET) -> WiringSum:
    """Sum over all slot permutations of weight(cycle type) x traced wiring."""
    n = layout.nslots
    check_perms_budget(n, budget)
    weights: dict[tuple[int, ...], float] = {}
    for t in all_cycle_types(n):
        weights[t.parts] = weight_of_type(t)
    out = WiringSum(layout)
    for perm in itertools.permutations(range(n)):
        w = weights[cycle_type(perm).parts]
        if w != 0:
            out.add(traced_permutation(layout, perm), w)
    return out


def traced_symmetrizer(labels: Sequence[tuple[str, int]],
                       contexts: Sequence[Sequence[str]], n: int,
                       budget: Budgets = BUDGET) -> WiringSum:
    """Partial trace of the full symmetrizer on n*m slots over all wires not
    kept by their slot's context.

    The result dominates every n-fold tensor power of a realizable marginal
    tuple; it is Hermitian by construction (the permutation sum is closed
    under inverses).
    """
    layout = scenario_layout(labels, contexts, n)
    nm = layout.nslots
    return traced_permutation_sum(layout, lambda t: 1.0 / math.factorial(nm), budget)


def isotypic_band_weight(nslots: int, max_len: int) -> Callable[[Partition], float]:
    """Weight function whose permutation sum is sum of isotypic projectors
    over partitions with at most max_len rows."""
    lams = [lam for lam in partitions_of(nslots, nslots) if lam.length <= max_len]
    table: dict[tuple[int, ...], float] = {}
    for t in all_cycle_types(nslots):
        table[t.parts] = sum(specht_dim(lam) * mn_character(lam, t) for lam in lams) \
            / math.factorial(nslots)
    return lambda t: table[t.parts]


# ---------------------------------------------------------------------------
# Biriffle sums


def _check_biriffle_inputs(xs, d: int) -> tuple[list[np.ndarray], int]:
    mats = [as_matrix(x) for x in xs]
    if not mats:
        raise ValueError("need at least one operator")
    size = mats[0].shape[0]
    n = round(math.log(size, d)) if d > 1 else 1
    if d ** n != size:
        raise ValueError(f"operator size {size} is not a power of local dimension {d}")
    for m in mats:
        if m.shape != (size, size):
            raise ValueError("all operators must share one shape")
    return mats, n


def symmetrize_operator(x, d: int, budget: Budgets = BUDGET) -> np.ndarray:
    """Compress x to the symmetric subspace: projector @ x @ projector."""
    mats, n = _check_biriffle_inputs([x], d)
    p = sym_projector(d, n, budget).mat
    return p @ mats[0] @ p


def biriffle_value(xs: Sequence, d: int, *, symmetrize: bool = False,
                   budget: Budgets = BUDGET) -> float:
    """Tr(uniform-symmetric-state average of X_1 x ... x X_k) via double cosets.

    Each X_i acts on n slots of C^d and must be fixed by slot permutations
    (pass symmetrize=True to compress first).  The sum runs over k x k
    non-negative integer matrices with margins n; each contributes its coset
    cardinality times a single traced-permutation coupling.  Couplings may be
    complex individually; the total is checked real.
    """
    mats, n = _check_biriffle_inputs(xs, d)
    k = len(mats)
    if symmetrize:
        p = sym_projector(d, n, budget).mat
        mats = [p @ m @ p for m in mats]
    total = 0.0 + 0.0j
    for _, card, rep in double_cosets(n, k):
        total += card * trace_with_permutation(mats, [n] * k, rep, d)
    norm = math.factorial(d - 1) / math.factorial(n * k + d - 1)
    val = total * norm
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"biriffle sum has non-real value {val}")
    return float(val.real)


def biriffle_bruteforce(xs: Sequence, d: int, budget: Budgets = BUDGET) -> float:
    """Reference value: average Tr(T(pi)(X_1 x ... x X_k)) over all of S_{nk},
    normalized by the symmetric-subspace dimension."""
    mats, n = _check_biriffle_inputs(xs, d)
    k = len(mats)
    nk = n * k
    if math.factorial(nk) > budget.bruteforce_perms:
        raise ResourceBudgetError(f"{nk}! exceeds brute-force budget")
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(nk)):
        total += trace_with_permutation(mats, [n] * k, perm, d)
    val = total / (math.factorial(nk) * math.comb(nk + d - 1, nk))
    return float(val.real)


def bibiriffle_lower_bound(x1, x2, d: int) -> tuple[float, float]:
    """(p_n(X1, X2), Tr(uniform-symmetric-state X1 X2) / (2n)^(d-1)).

    For permutation-fixed positive semidefinite inputs the first entry
    dominates the second.
    """
    mats, n = _check_biriffle_inputs([x1, x2], d)
    p = biriffle_value(mats, d)
    sbar = uniform_sym_state(d, n)
    rhs = float(np.real(np.trace(sbar.mat @ mats[0] @ mats[1]))) / (2 * n) ** (d - 1)
    return p, rhs
