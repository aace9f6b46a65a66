"""Realizability checks: hierarchy levels, witnesses, bipartite exact case."""
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag

from qrealize import divergence as divergence_mod
from qrealize import qmp as qmp_mod
from qrealize.capacity import fixed_subspace_projector, torus_rep
from qrealize.config import BUDGET, TOL, ResourceBudgetError
from qrealize.qmp import (
    VERDICT_CONSISTENT,
    VERDICT_VIOLATED,
    MProductState,
    bipartite_check,
    hierarchy_check,
    lr_inequality_check,
    marginals_of,
    ortho_bound_check,
    scenario,
    subspace_hierarchy_check,
    three_qubit_witness,
)
from qrealize.qmp import _apply_product_power, _kron_power
from qrealize.symmetrizer import sym_projector, traced_symmetrizer
from qrealize.tensor import (
    DensityOperator,
    Operator,
    PureState,
    haar_random_density,
    haar_random_pure_on,
    identity,
    lanczos_min_eig,
    qubits,
    space,
)

from reference import lanczos_basis_overlap

SINGLET = np.array([0, 1, -1, 0]) / np.sqrt(2)
SINGLET_RHO = np.outer(SINGLET, SINGLET)
ANTICORR = np.diag([0.0, 0.5, 0.5, 0.0])
TRIPLE = scenario((("A", 2), ("B", 2), ("C", 2)), ("AB", "AC", "BC"))


def pair_state(names, mat):
    sp = space((names[0], 2), (names[1], 2))
    return DensityOperator(Operator(sp, mat))


def triple_product(mat):
    return MProductState(TRIPLE, (pair_state("AB", mat), pair_state("AC", mat),
                                  pair_state("BC", mat)))


def test_scenario_normalizes_context_order():
    scen = scenario((("A", 2), ("B", 2), ("C", 2)), ("BA", "CB"))
    assert scen.contexts == (("A", "B"), ("B", "C"))
    assert scen.kept_dim == 16


def test_scenario_rejects_unknown_labels():
    with pytest.raises(ValueError):
        scenario((("A", 2),), ("AB",))


def test_mproduct_state_validates_dims():
    scen = scenario((("A", 2), ("B", 3)), ("A", "B"))
    rho_a = DensityOperator(Operator(space(("A", 2)), np.eye(2) / 2))
    with pytest.raises(ValueError):
        MProductState(scen, (rho_a, rho_a))  # second context wants dim 3


def test_marginals_of_matches_reduced_states():
    scen = TRIPLE
    psi = haar_random_pure_on(scen.joint, 2)
    st = marginals_of(psi, scen)
    for i, ctx in enumerate(scen.contexts):
        assert np.allclose(st.marginals[i].mat, psi.reduced(ctx).mat)


def test_product_power_matvec_matches_kron():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v = rng.normal(size=27) + 1j * rng.normal(size=27)
    assert np.allclose(_apply_product_power(m, 3, v), _kron_power(m, 3) @ v)


@pytest.mark.parametrize("d,n", [(2, 1), (4, 2), (2, 4), (3, 4)])
def test_product_power_matvec_matches_kron_at_each_power(d, n):
    rng = np.random.default_rng(d * 10 + n)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v = rng.normal(size=d ** n) + 1j * rng.normal(size=d ** n)
    assert np.allclose(_apply_product_power(m, n, v), _kron_power(m, n) @ v,
                       rtol=1e-13, atol=1e-13)


def test_hierarchy_consistent_on_realizable_triples():
    psi = haar_random_pure_on(TRIPLE.joint, 31)
    st = marginals_of(psi, TRIPLE)
    for n in (1, 2):
        cert = hierarchy_check(st, n)
        assert cert.verdict == VERDICT_CONSISTENT
        assert cert.gap >= -TOL.psd
        assert cert.witness is None


def test_hierarchy_detects_singlet_triple():
    st = triple_product(SINGLET_RHO)
    cert = hierarchy_check(st, 1)
    assert cert.verdict == VERDICT_VIOLATED
    assert cert.violated
    # the three-singlet direction certifies at least the witness overlap
    assert cert.gap <= -(2.0 ** -4) + 1e-9
    assert cert.witness is not None
    # the witness really is a descent direction of the constraint operator
    assert np.linalg.norm(cert.witness) == pytest.approx(1.0, abs=1e-8)


def test_hierarchy_detects_anticorrelated_and_mixed_triples():
    for mat, overlap in [(ANTICORR, 2.0 ** -5), (np.eye(4) / 4, 2.0 ** -6)]:
        cert = hierarchy_check(triple_product(mat), 1)
        assert cert.verdict == VERDICT_VIOLATED
        assert cert.gap <= -overlap + 1e-9


def test_hierarchy_violation_persists_at_level_two():
    cert = hierarchy_check(triple_product(SINGLET_RHO), 2)
    assert cert.verdict == VERDICT_VIOLATED
    assert cert.gap < -1e-3


def _lanczos_gap(st, n, v=1):
    """Lanczos in complex arithmetic on the matvec ``_min_gap`` builds for
    ``ortho_bound_check(st, v, n)`` (``hierarchy_check`` at v = 1)."""
    return _complex_lanczos(st, n, v)[0]


def _complex_lanczos(st, n, v=1):
    """(gap, witness, matvec) of the complex-arithmetic Lanczos solve that
    ``_min_gap`` runs for complex marginals: the reference the real solve
    of real marginals is checked against."""
    ws = qmp_mod._scenario_sum(st.scenario, n, BUDGET, v)
    rho = st.product_matrix()
    scale = float(v) ** (n * st.scenario.m)

    def matvec(x):
        out = ws.apply(x)
        out -= scale * _apply_product_power(rho, n, x)
        return out

    lam, vec = lanczos_min_eig(matvec, st.scenario.kept_dim ** n)
    return lam, vec, matvec


def test_hierarchy_methods_agree():
    psi = haar_random_pure_on(TRIPLE.joint, 8)
    st = marginals_of(psi, TRIPLE)
    assert _lanczos_gap(st, 1) == pytest.approx(hierarchy_check(st, 1).gap, abs=1e-7)


CHAIN = scenario((("A", 2), ("B", 2), ("C", 2)), ("AB", "BC"))
QUTRIT = scenario((("A", 3), ("B", 2)), ("AB", "A"))
PAIR = scenario((("A", 2), ("B", 2)), ("A", "B"))


def _dense_h(scen, st, n, v=1):
    """RHS - v^{nm} rho^{x n} as one dense Hermitian matrix."""
    ws = qmp_mod._scenario_sum(scen, n, BUDGET, v)
    h = ws.to_matrix() - float(v) ** (n * scen.m) * _kron_power(st.product_matrix(), n)
    return (h + h.conj().T) / 2


def _copy_swap(scen, n, i):
    """Kept-index permutation that swaps copies 1 and 2 of context i."""
    m = scen.m
    dims = tuple(scen.context_space(c).total_dim for c in range(m)) * n
    axes = list(range(n * m))
    axes[i], axes[m + i] = m + i, i
    return np.arange(math.prod(dims)).reshape(dims).transpose(axes).ravel()


SCENARIOS = {"chain": CHAIN, "qutrit": QUTRIT, "triangle": TRIPLE, "pair": PAIR}


@pytest.mark.parametrize("name,v", [("chain", 1), ("chain", 2), ("qutrit", 1), ("qutrit", 2)])
def test_h_commutes_with_each_per_context_copy_swap(name, v):
    scen = SCENARIOS[name]
    st = marginals_of(haar_random_pure_on(scen.joint, 3), scen)
    h = _dense_h(scen, st, 2, v)
    for i in range(scen.m):
        swap = _copy_swap(scen, 2, i)
        assert np.abs(h[np.ix_(swap, swap)] - h).max() <= 1e-13


def _planted_chain(p):
    """p * singlet + (1 - p) * I/4 on both chain contexts."""
    mix = p * SINGLET_RHO + (1 - p) * np.eye(4) / 4
    return MProductState(CHAIN, (DensityOperator(Operator(qubits("A", "B"), mix)),
                                 DensityOperator(Operator(qubits("B", "C"), mix))))


def _sector_input(name, source):
    """Haar marginals for an int seed; the planted chain for a float p."""
    if isinstance(source, float):
        return _planted_chain(source)
    scen = SCENARIOS[name]
    return marginals_of(haar_random_pure_on(scen.joint, source), scen)


_HAAR_SECTOR_CASES = [
    ("chain", 1, 1), ("chain", 2, 1), ("chain", 2, 2), ("qutrit", 1, 1), ("qutrit", 2, 1),
    ("qutrit", 2, 2), ("triangle", 1, 1), ("pair", 3, 1), ("pair", 3, 2),
]


@pytest.mark.parametrize("source,name,n,v", [
    (seed, *case) for seed in (3, 11) for case in _HAAR_SECTOR_CASES
] + [(0.7, "chain", 2, 1), (0.7, "chain", 2, 2)])
def test_sector_split_gap_and_witness_match_full_eigh(source, name, n, v):
    scen = SCENARIOS[name]
    st = _sector_input(name, source)
    h = _dense_h(scen, st, n, v)
    norm = np.linalg.norm(h, 2)
    want = np.linalg.eigh(h)[0][0]
    ws = qmp_mod._scenario_sum(scen, n, BUDGET, v)
    gap, vec = qmp_mod._min_gap(ws, [rho.mat for rho in st.marginals], n,
                                lhs_scale=float(v) ** (n * scen.m))
    assert abs(gap - want) <= 1e-12 * norm
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(vec, h @ vec).real - gap) <= 1e-12 * norm


def test_sector_split_witness_on_a_planted_chain_violation():
    st = _planted_chain(0.7)
    cert = hierarchy_check(st, 2)
    assert cert.verdict == VERDICT_VIOLATED
    h = _dense_h(CHAIN, st, 2)
    assert cert.gap == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
    assert np.vdot(cert.witness, h @ cert.witness).real == pytest.approx(cert.gap, abs=1e-12)


def _sector_parts(ctx_dims, n):
    """(order, pairs, [(slices, part shape), ...]) of the copy-swap sectors."""
    order, pairs, sectors = qmp_mod._swap_order(ctx_dims, n)[:3]
    shape = qmp_mod._sector_shape(pairs, order.size)
    probe = np.zeros(shape)
    return order, pairs, [(slices, probe[slices].shape) for _, slices in sectors]


def test_sector_count_and_sizes_on_the_chain():
    order, _, parts = _sector_parts((4, 4), 2)
    assert [math.prod(part) for _, part in parts] == [100, 60, 60, 36]
    assert sorted(order) == list(range(256))
    assert len(qmp_mod._swap_order((4, 4), 1)[2]) == 1


def _sector_basis(ctx_dims, n):
    """P^T as a matrix: every unit vector of every sector, mapped back."""
    order, pairs, parts = _sector_parts(ctx_dims, n)
    shape = qmp_mod._sector_shape(pairs, order.size)
    cols = []
    for slices, part in parts:
        for j in range(math.prod(part)):
            unit = np.zeros(math.prod(part))
            unit[j] = 1.0
            vec = np.zeros(order.size)
            vec.reshape(shape)[slices] = unit.reshape(part)
            qmp_mod._pair_butterfly(vec, pairs, back=True)
            out = np.empty_like(vec)
            out[order] = vec
            cols.append(out)
    return np.array(cols).T


@pytest.mark.parametrize("ctx_dims,n", [((4, 4), 2), ((2, 2), 3)], ids=["chain-2", "pair-3"])
def test_sector_change_of_basis_is_orthogonal(ctx_dims, n):
    basis = _sector_basis(ctx_dims, n)
    assert basis.shape == (math.prod(ctx_dims) ** n,) * 2
    assert np.abs(basis.T @ basis - np.eye(basis.shape[0])).max() <= 1e-14


def test_sector_split_takes_a_non_contiguous_matrix():
    st = marginals_of(haar_random_pure_on(CHAIN.joint, 4), CHAIN)
    h = _dense_h(CHAIN, st, 2, v=2)
    blocks = qmp_mod._swap_blocks(np.asfortranarray(h), (4, 4), 2)
    gap, vec = qmp_mod._sector_min_eig(blocks, (4, 4), 2)
    assert gap == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
    assert np.linalg.norm(h @ vec - gap * vec) < 1e-12


def _random_blocks(ctx_dims, n, dtype, seed):
    """Random Hermitian blocks with spectra in [1, 2], one per sector."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _, part in _sector_parts(ctx_dims, n)[2]:
        k = math.prod(part)
        g = rng.standard_normal((k, k))
        if dtype == np.complex128:
            g = g + 1j * rng.standard_normal((k, k))
        q = np.linalg.qr(g)[0]
        b = (q * rng.uniform(1.0, 2.0, k)) @ q.conj().T
        blocks.append((b + b.conj().T) / 2)
    return blocks


def _check_sector_min(blocks, ctx_dims, n):
    """``_sector_min_eig`` against eigvalsh of the block-diagonal matrix, and
    the witness against the full operator P^T diag(blocks) P."""
    gap, vec = qmp_mod._sector_min_eig(blocks, ctx_dims, n)
    diag = block_diag(*blocks)
    assert abs(gap - np.linalg.eigvalsh(diag)[0]) <= 1e-12
    basis = _sector_basis(ctx_dims, n)
    h = basis @ diag @ basis.T
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(h @ vec - gap * vec) <= 1e-10
    return gap, vec


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
@pytest.mark.parametrize("ctx_dims,n", [((4, 4), 2), ((2, 2), 3)], ids=["chain-2", "pair-3"])
def test_sector_min_eig_finds_a_minimum_planted_in_any_sector(monkeypatch, ctx_dims, n, dtype):
    """The smallest (last) block is solved first; a minimum planted in
    another block makes that block's shifted Cholesky fail, so it alone is
    solved as well."""
    eigh = _count_calls(monkeypatch, "eigh", np.linalg)
    last = len(qmp_mod._swap_order(ctx_dims, n)[2]) - 1
    for k in range(last + 1):
        blocks = _random_blocks(ctx_dims, n, dtype, seed=k)
        # spectra: the last block in [0.5, 1], the others in [1, 2], and the
        # planted one shifted down by 2 below them all
        blocks[last] -= 0.5 * np.eye(blocks[last].shape[0])
        blocks[k] -= 2.0 * np.eye(blocks[k].shape[0])
        eigh.clear()
        gap, _ = _check_sector_min(blocks, ctx_dims, n)
        assert len(eigh) == (1 if k == last else 2)
        assert gap == pytest.approx(np.linalg.eigvalsh(blocks[k])[0], abs=1e-12)
        assert gap < 0


@pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
def test_sector_min_eig_with_two_blocks_sharing_their_minimum(rotate):
    ctx_dims, n = (4, 4), 2
    blocks = _random_blocks(ctx_dims, n, np.complex128, seed=5)
    for k in (0, 3):  # the 100 block and the 36 block, which is solved first
        size = blocks[k].shape[0]
        eigs = np.concatenate([[-1.0], np.linspace(0.5, 1.0, size - 1)])
        q = np.linalg.qr(np.random.default_rng(k).standard_normal((size, size)))[0] \
            if rotate else np.eye(size)
        b = (q * eigs) @ q.T
        blocks[k] = (b + b.T) / 2
    gap, vec = _check_sector_min(blocks, ctx_dims, n)
    if not rotate:
        # a tie does not replace the block solved first: the witness lies
        # in the 36 sector, the last 36 columns of the sector basis
        assert gap == -1.0
        assert np.abs(_sector_basis(ctx_dims, n)[:, :-36].T @ vec).max() <= 1e-14


def test_sector_min_eig_at_level_one_is_plain_eigh(monkeypatch):
    h = _random_blocks((2, 3), 1, np.complex128, seed=2)[0]
    h -= 3.0 * np.outer(h[:, 0], h[:, 0].conj())
    h = (h + h.conj().T) / 2
    eigh = _count_calls(monkeypatch, "eigh", np.linalg)
    cholesky = _count_calls(monkeypatch, "cholesky", np.linalg)
    _check_sector_min([h], (2, 3), 1)
    assert (len(eigh), len(cholesky)) == (1, 0)


def test_planted_chain_check_solves_one_block_and_no_eigvalsh(monkeypatch):
    st = _planted_chain(0.8)
    want = hierarchy_check(st, 2)  # fills the wiring-sum cache
    eigvalsh = _count_calls(monkeypatch, "eigvalsh", np.linalg)
    eigh = _count_calls(monkeypatch, "eigh", np.linalg)
    cert = hierarchy_check(st, 2)
    assert (len(eigvalsh), len(eigh)) == (0, 1)
    assert cert.verdict == VERDICT_VIOLATED and cert.gap == want.gap


@pytest.mark.parametrize("source", [7, 10, 3, 0.7, 0.8])
@pytest.mark.parametrize("v", [1, 2])
def test_chain_gap_matches_eigvalsh_of_the_full_operator(source, v):
    """Haar seeds 7 and 10 at v = 2 (and the planted p = 0.8 at v = 2) put
    the minimum in the 100-dimensional all-symmetric sector."""
    st = _sector_input("chain", source)
    h = _dense_h(CHAIN, st, 2, v)
    want = np.linalg.eigvalsh(h)[0]
    if v == 2 and source in (7, 10, 0.8):
        mins = [np.linalg.eigvalsh(b)[0] for b in qmp_mod._swap_blocks(h, (4, 4), 2)]
        assert int(np.argmin(mins)) == 0
    cert = ortho_bound_check(st, v, 2) if v > 1 else hierarchy_check(st, 2)
    assert abs(cert.gap - want) <= 1e-12
    assert cert.violated == (want < -TOL.psd)


@pytest.mark.parametrize("source,name,n", [
    (5, "chain", 2), (5, "qutrit", 2), (5, "pair", 3), (5, "triangle", 1), (0.7, "chain", 2),
], ids=["chain-2", "qutrit-2", "pair-3", "triangle-1", "planted-chain-2"])
def test_power_blocks_match_the_split_of_the_formed_power(source, name, n):
    scen = SCENARIOS[name]
    st = _sector_input(name, source)
    ctx_dims = tuple(scen.context_space(i).total_dim for i in range(scen.m))
    want = qmp_mod._swap_blocks(_kron_power(st.product_matrix(), n), ctx_dims, n)
    got = qmp_mod._power_blocks([rho.mat for rho in st.marginals], ctx_dims, n)
    assert [b.shape for b in got] == [b.shape for b in want]
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-14
        assert np.array_equal(g, g.conj().T)
        # real marginals (the planted chain) give real blocks
        assert g.dtype == (np.float64 if isinstance(source, float) else np.complex128)


def _split_input(case):
    """(input of ``_split_sectors`` in the copy-swap order, the formed h,
    ctx_dims, n) for one named RHS or product power."""
    if case in ("chain-v1", "chain-v2", "qutrit-2", "pair-3"):
        name, n, v = {"chain-v1": ("chain", 2, 1), "chain-v2": ("chain", 2, 2),
                      "qutrit-2": ("qutrit", 2, 1), "pair-3": ("pair", 3, 1)}[case]
        scen = SCENARIOS[name]
        ctx_dims = tuple(scen.context_space(i).total_dim for i in range(scen.m))
        ws = qmp_mod._scenario_sum(scen, n, BUDGET, v)
        order = qmp_mod._swap_order(ctx_dims, n)[0]
        return ws.to_matrix(BUDGET, order), ws.to_matrix(), ctx_dims, n
    if case == "subspace-identity":
        h, ctx_dims, n = qmp_mod._subspace_rhs(PAIR, identity(PAIR.joint), 2, BUDGET), (2, 2), 2
    else:  # rho x rho for one complex two-qubit marginal, as _power_blocks forms it
        rho = marginals_of(haar_random_pure_on(CHAIN.joint, 6), CHAIN).marginals[0].mat
        h, ctx_dims, n = qmp_mod._kron(rho, rho), (4,), 2
    order = qmp_mod._swap_order(ctx_dims, n)[0]
    return h[np.ix_(order, order)], h, ctx_dims, n


@pytest.mark.parametrize("case", ["chain-v1", "chain-v2", "qutrit-2", "pair-3",
                                  "subspace-identity", "kron-rho-rho"])
def test_one_sided_split_matches_the_two_sided_change_of_basis(case):
    """Butterflying the rows and scaling the columns by sqrt(|O_c|) gives the
    diagonal blocks of the explicit P h P^T, each exactly Hermitian."""
    x, h, ctx_dims, n = _split_input(case)
    assert case != "subspace-identity" or h.dtype == np.complex128
    blocks = qmp_mod._split_sectors(x, ctx_dims, n)
    basis = _sector_basis(ctx_dims, n)
    want = basis.T @ h @ basis
    lo = 0
    for b in blocks:
        hi = lo + b.shape[0]
        assert np.abs(b - want[lo:hi, lo:hi]).max() <= 1e-13
        assert np.array_equal(b, b.conj().T)
        lo = hi
    assert lo == h.shape[0] and len(blocks) == len(qmp_mod._swap_order(ctx_dims, n)[2])


@pytest.mark.parametrize("v", [1, 2])
def test_warm_dense_chain_check_peaks_below_one_mib(v):
    """The RHS is scattered in the copy-swap order and split in place: one
    256 x 256 matrix, no gathered or conjugated copies of it."""
    st = marginals_of(haar_random_pure_on(CHAIN.joint, 4), CHAIN)

    def check():
        return ortho_bound_check(st, v, 2) if v > 1 else hierarchy_check(st, 2)

    want = check()  # fills the wiring-sum and swap-order caches
    tracemalloc.start()
    try:
        cert = check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.gap == want.gap
    assert peak <= 1 << 20


def _forbid_product_power(monkeypatch, st):
    """Make ``_kron_power`` raise when it is handed the product state."""
    product = st.product_matrix()
    kron_power = qmp_mod._kron_power

    def guarded(mat, n):
        if mat.shape == product.shape and np.allclose(mat, product):
            raise AssertionError("the product state's tensor power was formed")
        return kron_power(mat, n)

    monkeypatch.setattr(qmp_mod, "_kron_power", guarded)


def test_dense_checks_never_form_the_product_power(monkeypatch):
    st = marginals_of(haar_random_pure_on(CHAIN.joint, 8), CHAIN)
    want = (hierarchy_check(st, 2).gap, ortho_bound_check(st, 2, 2).gap)
    _forbid_product_power(monkeypatch, st)
    assert (hierarchy_check(st, 2).gap, ortho_bound_check(st, 2, 2).gap) == want


@pytest.mark.parametrize("name,n", [("chain", 1), ("pair", 2)])
def test_subspace_check_never_forms_the_product_power(monkeypatch, name, n):
    scen = SCENARIOS[name]
    st = marginals_of(haar_random_pure_on(scen.joint, 8), scen)
    _forbid_product_power(monkeypatch, st)
    cert = subspace_hierarchy_check(st, identity(scen.joint), n)
    assert cert.gap == pytest.approx(hierarchy_check(st, n).gap, abs=1e-12)


def test_hierarchy_methods_agree_at_level_two_on_the_chain():
    for seed in (8, 9):
        st = marginals_of(haar_random_pure_on(CHAIN.joint, seed), CHAIN)
        cert = hierarchy_check(st, 2)
        lam = _lanczos_gap(st, 2)
        assert lam == pytest.approx(cert.gap, abs=1e-7)
        assert (lam < -TOL.psd) == cert.violated


def test_non_finite_lanczos_result_raises(monkeypatch):
    monkeypatch.setattr(qmp_mod, "lanczos_min_eig",
                        lambda apply_h, dim, **kw: (math.nan, np.zeros(dim)))
    st = marginals_of(haar_random_pure_on(TRIPLE.joint, 8), TRIPLE)
    with pytest.raises(ArithmeticError):
        hierarchy_check(st, 2)


def _count_calls(monkeypatch, name, module=qmp_mod):
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kw):
        calls.append(1)
        return fn(*args, **kw)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("scen,dense", [(CHAIN, True), (TRIPLE, False)],
                         ids=["chain", "triangle"])
def test_kept_dimension_alone_picks_the_eigensolver(monkeypatch, scen, dense):
    """Kept dim 256 (chain, n = 2) solves densely; 4096 (triangle) runs Lanczos."""
    lanczos = _count_calls(monkeypatch, "lanczos_min_eig")
    sector = _count_calls(monkeypatch, "_sector_min_eig")
    st = marginals_of(haar_random_pure_on(scen.joint, 8), scen)
    hierarchy_check(st, 2)
    ortho_bound_check(st, 2, 2)
    assert (len(sector), len(lanczos)) == ((2, 0) if dense else (0, 2))


def test_dense_eigensolve_cap_raises_below_the_switch():
    st = marginals_of(haar_random_pure_on(CHAIN.joint, 8), CHAIN)
    with pytest.raises(ResourceBudgetError,
                       match="dense wiring sum: dimension 256 exceeds cap dense_dim=100"):
        hierarchy_check(st, 2, budget=BUDGET.with_(dense_dim=100))


_TINY = BUDGET.with_(dense_dim=3)


@pytest.mark.parametrize("build", [
    lambda: sym_projector(2, 2, _TINY),
    lambda: traced_symmetrizer(TRIPLE.joint.labels, TRIPLE.contexts, 1).to_matrix(_TINY),
    lambda: fixed_subspace_projector(torus_rep([(1,), (-1,)]), 2, _TINY),
    lambda: hierarchy_check(marginals_of(haar_random_pure_on(CHAIN.joint, 8), CHAIN), 2,
                            budget=_TINY),
    lambda: subspace_hierarchy_check(triple_product(np.eye(4) / 4), identity(TRIPLE.joint), 1,
                                     budget=_TINY),
], ids=["sym_projector", "to_matrix", "fixed_subspace_projector",
        "hierarchy_check-chain-n2", "subspace_hierarchy_check"])
def test_every_dense_path_checks_the_one_dense_cap(build):
    with pytest.raises(ResourceBudgetError, match="exceeds cap dense_dim=3"):
        build()


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("check", [
    lambda st, n: hierarchy_check(st, n),
    lambda st, n: ortho_bound_check(st, 2, n),
    lambda st, n: subspace_hierarchy_check(st, identity(TRIPLE.joint), n),
], ids=["hierarchy_check", "ortho_bound_check", "subspace_hierarchy_check"])
def test_level_below_one_is_rejected_at_entry(monkeypatch, check, n):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the level was checked")

    monkeypatch.setattr(qmp_mod, "_scenario_sum", no_work)
    monkeypatch.setattr(qmp_mod, "sym_projector", no_work)
    with pytest.raises(ValueError, match=f"level n must be >= 1, got {n}"):
        check(triple_product(SINGLET_RHO), n)


@pytest.mark.parametrize("p,matvecs", [(0.55, 130), (0.8, 65), (0.5, 130), (0.599, 130),
                                       (0.65, 65), (0.99, 65)])
def test_lanczos_matvec_count_on_planted_triangle(monkeypatch, p, matvecs):
    """Noisy singlets below p ~ 0.6 need a second Lanczos cycle; the count
    of matvecs per check must not move when the matvec gets faster.  The
    boundary lies in [0.6, 0.65) (between 0.635 and 0.64 with real
    arithmetic, between 0.61 and 0.615 with complex), the band the
    benchmark's planted inputs leave out."""
    calls = []
    lanczos = qmp_mod.lanczos_min_eig

    def counting(apply_h, dim, **kw):
        def matvec(v):
            calls.append(1)
            return apply_h(v)
        return lanczos(matvec, dim, **kw)

    monkeypatch.setattr(qmp_mod, "lanczos_min_eig", counting)
    cert = hierarchy_check(triple_product(p * SINGLET_RHO + (1 - p) * np.eye(4) / 4), 2)
    assert cert.verdict == VERDICT_VIOLATED
    assert len(calls) == matvecs


def _dtype_of_lanczos(monkeypatch):
    """Record the ``dtype`` keyword of every Lanczos call ``_min_gap`` makes."""
    seen = []
    lanczos = qmp_mod.lanczos_min_eig

    def recording(apply_h, dim, **kw):
        seen.append(kw.get("dtype"))
        return lanczos(apply_h, dim, **kw)

    monkeypatch.setattr(qmp_mod, "lanczos_min_eig", recording)
    return seen


@pytest.mark.parametrize("p", [0.55, 0.7, 0.9])
def test_real_marginals_run_lanczos_in_real_arithmetic(monkeypatch, p):
    """Planted triangle marginals are real: Lanczos runs in float64, and
    the gap and verdict match the complex-arithmetic solve to 1e-13.  The
    witness is real, and its Rayleigh quotient under the complex matvec
    reproduces the gap."""
    st = triple_product(p * SINGLET_RHO + (1 - p) * np.eye(4) / 4)
    seen = _dtype_of_lanczos(monkeypatch)
    cert = hierarchy_check(st, 2)
    assert seen == [np.float64]
    want, _, matvec = _complex_lanczos(st, 2)
    assert cert.gap == pytest.approx(want, abs=1e-13)
    assert cert.verdict == VERDICT_VIOLATED and want < -TOL.psd
    w = cert.witness
    assert w.dtype == np.complex128 and not w.imag.any()
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(w, matvec(w)).real == pytest.approx(cert.gap, abs=1e-13)


@pytest.mark.parametrize("seed", [8, 9])
def test_complex_marginals_keep_complex_lanczos_bit_for_bit(monkeypatch, seed):
    """Haar triangle marginals are complex: Lanczos runs in complex128 and
    the gap is bit-identical to the complex-arithmetic solve."""
    st = marginals_of(haar_random_pure_on(TRIPLE.joint, seed), TRIPLE)
    seen = _dtype_of_lanczos(monkeypatch)
    cert = hierarchy_check(st, 2)
    assert seen == [np.complex128]
    assert cert.gap == _lanczos_gap(st, 2)


@pytest.mark.parametrize("p,verdict", [(0.7, VERDICT_CONSISTENT), (0.9, VERDICT_VIOLATED)])
def test_ortho_bound_on_real_marginals_keeps_its_verdict(p, verdict):
    """The v = 2 band sum on planted triangle marginals: the real solve
    gives the complex solve's gap to 1e-12 and the same verdict."""
    st = triple_product(p * SINGLET_RHO + (1 - p) * np.eye(4) / 4)
    cert = ortho_bound_check(st, 2, 2)
    want = _lanczos_gap(st, 2, 2)
    assert cert.verdict == verdict
    assert (want < -TOL.psd) == cert.violated
    assert cert.gap == pytest.approx(want, abs=1e-12)


def _planted(p):
    return triple_product(p * SINGLET_RHO + (1 - p) * np.eye(4) / 4)


# level-2 triangle gaps (hierarchy_check, ortho_bound_check with v = 2),
# recorded when every Lanczos step ran a full Gram-Schmidt pass
_TRIANGLE_GAPS = [
    (0.55, None, -0.02510100831919313, VERDICT_VIOLATED, 6.803910467176391, VERDICT_CONSISTENT),
    (0.7, None, -0.07120986222832032, VERDICT_VIOLATED, 6.810989039507966, VERDICT_CONSISTENT),
    (0.9, None, -0.2931591114871319, VERDICT_VIOLATED, -11.14878678551856, VERDICT_VIOLATED),
    (None, 8, -1.613288244672073e-17, VERDICT_CONSISTENT, 6.816666666666665, VERDICT_CONSISTENT),
    (None, 9, -1.5777100214180628e-17, VERDICT_CONSISTENT, 6.816666666666659,
     VERDICT_CONSISTENT),
]


@pytest.mark.parametrize("p,seed,gap,verdict,ortho_gap,ortho_verdict", _TRIANGLE_GAPS,
                         ids=["planted-0.55", "planted-0.7", "planted-0.9", "haar-8", "haar-9"])
def test_level_two_triangle_gaps_are_pinned(p, seed, gap, verdict, ortho_gap, ortho_verdict):
    st = _planted(p) if seed is None else marginals_of(haar_random_pure_on(TRIPLE.joint, seed),
                                                        TRIPLE)
    cert = hierarchy_check(st, 2)
    ortho = ortho_bound_check(st, 2, 2)
    assert (cert.verdict, ortho.verdict) == (verdict, ortho_verdict)
    assert cert.gap == pytest.approx(gap, abs=1e-13)
    assert ortho.gap == pytest.approx(ortho_gap, abs=1e-13)


@pytest.mark.parametrize("make", [lambda: _planted(0.55),
                                  lambda: marginals_of(haar_random_pure_on(TRIPLE.joint, 8),
                                                       TRIPLE)],
                         ids=["planted-0.55-real", "haar-8-complex"])
def test_lanczos_basis_stays_semi_orthogonal_on_the_triangle(monkeypatch, make):
    """Every vector the level-2 solve hands its matvec is kept; each cycle's
    basis is orthogonal to 1e-6, though most steps run no Gram-Schmidt
    pass."""
    seen = []
    lanczos = qmp_mod.lanczos_min_eig

    def recording(apply_h, dim, **kw):
        def matvec(v):
            seen.append(np.array(v))
            return apply_h(v)
        return lanczos(matvec, dim, **kw)

    monkeypatch.setattr(qmp_mod, "lanczos_min_eig", recording)
    hierarchy_check(make(), 2)
    assert lanczos_basis_overlap(seen) <= 1e-6


def test_hierarchy_check_passes_its_budget_to_the_eigensolver():
    st = triple_product(SINGLET_RHO)
    with pytest.raises(ResourceBudgetError):
        hierarchy_check(st, 2, budget=BUDGET.with_(matvec_dim=1000))
    cert = hierarchy_check(st, 2, budget=BUDGET.with_(matvec_dim=4096))
    assert cert.verdict == VERDICT_VIOLATED


def test_wiring_sum_cache_ignores_unrelated_budget_fields():
    a = qmp_mod._scenario_sum(TRIPLE, 2, BUDGET.with_(matvec_dim=1000))
    assert a is qmp_mod._scenario_sum(TRIPLE, 2, BUDGET.with_(matvec_dim=4096))
    band = qmp_mod._scenario_sum(TRIPLE, 2, BUDGET.with_(matvec_dim=1000), 2)
    assert band is qmp_mod._scenario_sum(TRIPLE, 2, BUDGET, 2)
    assert band is not a


def test_cached_symmetrizer_is_the_rank_one_band():
    for contexts, n in (("AB", "AC", "BC"), 2), (("AB", "BC"), 2):
        scen = scenario((("A", 2), ("B", 2), ("C", 2)), contexts)
        want = traced_symmetrizer(scen.joint.labels, scen.contexts, n)
        assert qmp_mod._scenario_sum(scen, n, BUDGET).terms == want.terms


def test_tighter_permutation_cap_raises_after_a_cache_hit():
    st = triple_product(SINGLET_RHO)
    hierarchy_check(st, 2)                     # 6 slots: the cached sum exists
    ortho_bound_check(st, 2, 2)
    tight = BUDGET.with_(perms_matrix_free=719)
    with pytest.raises(ResourceBudgetError):
        hierarchy_check(st, 2, budget=tight)
    with pytest.raises(ResourceBudgetError):
        ortho_bound_check(st, 2, 2, budget=tight)
    assert hierarchy_check(st, 2, budget=BUDGET.with_(perms_matrix_free=720)).verdict \
        == VERDICT_VIOLATED


def test_certificate_json_round_shape():
    cert = hierarchy_check(triple_product(SINGLET_RHO), 1)
    payload = cert.to_json()
    assert payload["verdict"] == VERDICT_VIOLATED
    assert payload["level"] == 1
    assert "witness_re" in payload and len(payload["witness_re"]) == 64


@pytest.mark.parametrize("gap,verdict,warning", [
    (-2e-17, VERDICT_CONSISTENT, False),
    (2e-17, VERDICT_CONSISTENT, False),
    (-5e-10, VERDICT_CONSISTENT, True),
    (-2e-9, VERDICT_VIOLATED, False),
])
def test_near_zero_warning_ignores_rounding(gap, verdict, warning):
    """Only a gap between -tol.psd and -tol.eig is near a violation; a gap
    within the eigensolver's accuracy of 0 is rounding noise."""
    cert = qmp_mod._certificate(gap, np.zeros(64), 1, TRIPLE, TOL)
    assert (cert.verdict, cert.near_zero_warning) == (verdict, warning)


def test_haar_triangle_certificate_has_no_warning():
    st = marginals_of(haar_random_pure_on(TRIPLE.joint, 77), TRIPLE)
    cert = hierarchy_check(st, 2)
    assert cert.verdict == VERDICT_CONSISTENT
    assert abs(cert.gap) < TOL.eig
    assert cert.to_json()["near_zero_warning"] is False


def test_rate_bound_only_above_dimension_squared():
    scen = scenario((("A", 2),), ("A",))
    rho = DensityOperator(Operator(space(("A", 2)), np.eye(2) / 2))
    st = MProductState(scen, (rho,))
    low = hierarchy_check(st, 4)
    assert low.rate_bound is None  # n = d^2 not enough
    high = hierarchy_check(st, 5)
    assert high.rate_bound == pytest.approx(math.log(math.comb(6, 5)))


def test_three_qubit_witness_values():
    assert three_qubit_witness(SINGLET_RHO, SINGLET_RHO, SINGLET_RHO) == \
        pytest.approx(2.0 ** -4, abs=1e-12)
    assert three_qubit_witness(ANTICORR, ANTICORR, ANTICORR) == \
        pytest.approx(2.0 ** -5, abs=1e-12)
    m = np.eye(4) / 4
    assert three_qubit_witness(m, m, m) == pytest.approx(2.0 ** -6, abs=1e-12)


def test_three_qubit_witness_vanishes_on_realizable_triples():
    for seed in range(6):
        psi = haar_random_pure_on(TRIPLE.joint, seed)
        st = marginals_of(psi, TRIPLE)
        val = three_qubit_witness(*[rho.mat for rho in st.marginals])
        assert abs(val) < 1e-12


def test_three_qubit_witness_blind_spot():
    # contradictory classical marginals the witness cannot see
    p00 = np.diag([1.0, 0, 0, 0])
    p11 = np.diag([0, 0, 0, 1.0])
    assert three_qubit_witness(p00, p11, p00) == pytest.approx(0.0, abs=1e-14)


def test_ortho_bound_v1_reduces_to_hierarchy():
    """With v = 1 both checks run one core on one cached sum: the same
    certificate, witness included, to the bit."""
    states = [marginals_of(haar_random_pure_on(TRIPLE.joint, 13), TRIPLE),
              triple_product(0.7 * SINGLET_RHO + 0.3 * np.eye(4) / 4),
              _sector_input("chain", 13), _planted_chain(0.7)]
    for st in states:
        for n in (1, 2):
            assert ortho_bound_check(st, 1, n).to_json() == hierarchy_check(st, n).to_json()


def test_ortho_bound_rank_window_validated():
    psi = haar_random_pure_on(TRIPLE.joint, 13)
    st = marginals_of(psi, TRIPLE)
    with pytest.raises(ValueError):
        ortho_bound_check(st, 0, 1)
    with pytest.raises(ValueError):
        ortho_bound_check(st, 9, 1)


def test_ortho_bound_flags_pure_product_at_full_rank():
    """Four mutually orthogonal joint states cannot all have pure marginals
    |0><0|, |0><0| on a two-qubit register."""
    scen = scenario((("A", 2), ("B", 2)), ("A", "B"))
    ket0 = np.diag([1.0, 0.0])
    st = MProductState(scen, (
        DensityOperator(Operator(space(("A", 2)), ket0)),
        DensityOperator(Operator(space(("B", 2)), ket0)),
    ))
    cert = ortho_bound_check(st, 4, 1)
    assert cert.verdict == VERDICT_VIOLATED


def test_ortho_bound_allows_maximally_mixed_at_full_rank():
    scen = scenario((("A", 2), ("B", 2)), ("A", "B"))
    mix = np.eye(2) / 2
    st = MProductState(scen, (
        DensityOperator(Operator(space(("A", 2)), mix)),
        DensityOperator(Operator(space(("B", 2)), mix)),
    ))
    cert = ortho_bound_check(st, 4, 1)
    assert cert.verdict == VERDICT_CONSISTENT


def test_subspace_check_with_full_projector_matches_hierarchy():
    psi = haar_random_pure_on(TRIPLE.joint, 5)
    st = marginals_of(psi, TRIPLE)
    full = identity(TRIPLE.joint)
    a = hierarchy_check(st, 1)
    b = subspace_hierarchy_check(st, full, 1)
    assert b.gap == pytest.approx(a.gap, abs=1e-9)


@pytest.mark.parametrize("seed", [5, 6])
def test_subspace_check_with_full_projector_matches_hierarchy_at_level_two(seed):
    st = marginals_of(haar_random_pure_on(PAIR.joint, seed), PAIR)
    a = hierarchy_check(st, 2)
    b = subspace_hierarchy_check(st, identity(PAIR.joint), 2)
    assert b.gap == pytest.approx(a.gap, abs=1e-9)


def _chain_with_projector_on(names):
    """Haar chain marginals and |0><0| on the first label x I x I, written
    on the register with ``names``."""
    st = marginals_of(haar_random_pure_on(CHAIN.joint, 5), CHAIN)
    proj = np.kron(np.diag([1.0, 0.0]), np.eye(4))
    return st, Operator(space(*((x, 2) for x in names)), proj)


def test_subspace_check_requires_the_joint_label_order():
    st, proj = _chain_with_projector_on("ABC")
    assert math.isfinite(subspace_hierarchy_check(st, proj, 1).gap)
    for names in ("CBA", "XYZ"):
        st, proj = _chain_with_projector_on(names)
        want = (f"projector labels {proj.space.labels}, "
                f"joint register {CHAIN.joint.labels}")
        with pytest.raises(ValueError, match=re.escape(want)):
            subspace_hierarchy_check(st, proj, 1)


def test_subspace_check_restricts_support_at_level_two():
    amp = np.zeros(4)
    amp[0] = 1.0  # |00>
    proj = Operator(PAIR.joint, np.outer(amp, amp))
    ok = subspace_hierarchy_check(marginals_of(PureState(PAIR.joint, amp), PAIR), proj, 2)
    assert ok.verdict == VERDICT_CONSISTENT
    amp2 = np.zeros(4)
    amp2[3] = 1.0  # |11>: every copy of its marginals is orthogonal to span{|00>}
    bad = subspace_hierarchy_check(marginals_of(PureState(PAIR.joint, amp2), PAIR), proj, 2)
    assert bad.gap == pytest.approx(-1.0, abs=1e-12)
    assert np.linalg.norm(bad.witness) == pytest.approx(1.0, abs=1e-12)


def test_subspace_check_restricts_support():
    scen = scenario((("A", 2), ("B", 2)), ("A", "B"))
    amp = np.zeros(4)
    amp[0] = 1.0  # |00>
    phi = PureState(scen.joint, amp)
    proj = Operator(scen.joint, np.outer(amp, amp))
    ok = subspace_hierarchy_check(marginals_of(phi, scen), proj, 1)
    assert ok.verdict == VERDICT_CONSISTENT
    # marginals of |11> are unreachable inside span{|00>}
    amp2 = np.zeros(4)
    amp2[3] = 1.0
    bad = subspace_hierarchy_check(marginals_of(PureState(scen.joint, amp2), scen),
                                   proj, 1)
    assert bad.verdict == VERDICT_VIOLATED


def test_subspace_check_validates_projector():
    psi = haar_random_pure_on(TRIPLE.joint, 5)
    st = marginals_of(psi, TRIPLE)
    not_proj = Operator(TRIPLE.joint, 0.5 * np.eye(8))
    with pytest.raises(ValueError):
        subspace_hierarchy_check(st, not_proj, 1)


def grid_rate_oracle(sa, sb, steps=2001):
    """Brute-force the divergence infimum over qubit candidate spectra."""
    best = math.inf
    def kl(p, q):
        tot = 0.0
        for pi, qi in zip(p, q):
            if pi > 0:
                if qi <= 0:
                    return math.inf
                tot += pi * math.log(pi / qi)
        return tot
    for i in range(1, steps):
        t = i / steps
        r = (t, 1 - t)
        best = min(best, kl(sa, r) + kl(sb, r))
    return best


def test_bipartite_equal_spectra_realizable():
    sp = space(("A", 2), ("B", 2))
    psi = haar_random_pure_on(sp, 77)
    ra = psi.reduced(("A",))
    rb = psi.reduced(("B",))
    res = bipartite_check(ra, rb)
    assert res.realizable
    assert res.rate == pytest.approx(0.0, abs=1e-9)


def test_bipartite_rate_matches_grid_and_pinsker():
    ra = DensityOperator(Operator(space(("A", 2)), np.diag([0.8, 0.2])))
    rb = DensityOperator(Operator(space(("B", 2)), np.diag([0.6, 0.4])))
    res = bipartite_check(ra, rb)
    assert not res.realizable
    want = grid_rate_oracle((0.8, 0.2), (0.6, 0.4))
    assert res.rate == pytest.approx(want, abs=1e-4)
    assert res.rate >= res.pinsker_bound - 1e-9
    l1 = abs(0.8 - 0.6) + abs(0.2 - 0.4)
    assert res.pinsker_bound == pytest.approx(l1 ** 2 / 6)


def test_bipartite_pinsker_self_check_survives_optimisation(monkeypatch):
    """The self-check raises, not asserts, so ``python -O`` keeps it."""
    # bipartite_check imports kl_divergence from its module when it runs
    monkeypatch.setattr(divergence_mod, "kl_divergence", lambda p, q: -1.0)
    ra = DensityOperator(Operator(space(("A", 2)), np.diag([0.8, 0.2])))
    rb = DensityOperator(Operator(space(("B", 2)), np.diag([0.6, 0.4])))
    with pytest.raises(ArithmeticError, match="divergence fell below its norm bound"):
        bipartite_check(ra, rb)


def test_bipartite_rank_overflow_is_unrealizable():
    # B has full rank 3 while A lives on 2 dimensions: weight beyond the
    # smaller rank can never be matched
    ra = DensityOperator(Operator(space(("A", 2)), np.diag([0.7, 0.3])))
    rb = DensityOperator(Operator(space(("B", 3)), np.diag([0.5, 0.3, 0.2])))
    res = bipartite_check(ra, rb)
    assert not res.realizable
    assert math.isinf(res.rate)


def test_lr_inequalities_hold_for_realizable_pairs():
    sp = space(("A", 2), ("B", 3))
    for seed in (0, 1, 2):
        psi = haar_random_pure_on(sp, seed)
        ra = psi.reduced(("A",))
        rb = psi.reduced(("B",))
        for n in (1, 2, 3):
            rows = lr_inequality_check(ra, rb, n)
            assert rows, "no constraint rows generated"
            assert all(r.ok for r in rows)


def test_lr_inequalities_cover_all_shape_pairs():
    ra = haar_random_density(2, 3)
    rb = haar_random_density(3, 4)
    rows = lr_inequality_check(ra, rb, 2)
    # shapes of 2 with <= 2 rows: (2), (1,1); with <= 3 rows adds nothing new
    assert len(rows) == 2 * 2
