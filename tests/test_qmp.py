"""Realizability checks: hierarchy levels, witnesses, bipartite exact case."""
import math

import numpy as np
import pytest

from qrealize import qmp as qmp_mod
from qrealize.capacity import fixed_subspace_projector, torus_rep
from qrealize.config import BUDGET, TOL, ResourceBudgetError
from qrealize.qmp import (
    VERDICT_CONSISTENT,
    VERDICT_VIOLATED,
    MProductState,
    bipartite_check,
    hierarchy_check,
    is_k_uniform,
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
    permutation_operator,
    qubits,
    space,
)

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


def _lanczos_gap(st, n):
    """Lanczos on the matvec ``_min_gap`` builds for a hierarchy check."""
    ws = qmp_mod._scenario_sum(st.scenario, n, BUDGET)
    rho = st.product_matrix()
    lam, _ = lanczos_min_eig(lambda v: ws.apply(v) - _apply_product_power(rho, n, v),
                             st.scenario.kept_dim ** n)
    return lam


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


def test_sector_count_and_sizes_on_the_chain():
    _, sectors, scale = qmp_mod._swap_sectors((4, 4), 2)
    assert [len(s) for s in sectors] == [100, 60, 60, 36]
    assert sorted(np.concatenate(sectors)) == list(range(256))
    assert len(qmp_mod._swap_sectors((4, 4), 1)[1]) == 1
    assert set(np.round(scale ** -2, 12)) == {1.0, 2.0, 4.0}


def test_sector_split_takes_a_non_contiguous_matrix():
    st = marginals_of(haar_random_pure_on(CHAIN.joint, 4), CHAIN)
    h = _dense_h(CHAIN, st, 2, v=2)
    blocks = qmp_mod._swap_blocks(np.asfortranarray(h), (4, 4), 2)
    gap, vec = qmp_mod._sector_min_eig(blocks, (4, 4), 2)
    assert gap == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)
    assert np.linalg.norm(h @ vec - gap * vec) < 1e-12


@pytest.mark.parametrize("name,n", [("chain", 2), ("qutrit", 2), ("pair", 3), ("triangle", 1)])
def test_power_blocks_match_the_split_of_the_formed_power(name, n):
    scen = SCENARIOS[name]
    st = marginals_of(haar_random_pure_on(scen.joint, 5), scen)
    ctx_dims = tuple(scen.context_space(i).total_dim for i in range(scen.m))
    want = qmp_mod._swap_blocks(_kron_power(st.product_matrix(), n), ctx_dims, n)
    got = qmp_mod._power_blocks([rho.mat for rho in st.marginals], ctx_dims, n)
    assert [b.shape for b in got] == [b.shape for b in want]
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-14
        assert np.array_equal(g, g.conj().T)


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


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(qmp_mod, name)

    def counting(*args, **kw):
        calls.append(1)
        return fn(*args, **kw)

    monkeypatch.setattr(qmp_mod, name, counting)
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
    lambda: permutation_operator(space(("Q", 2)), (1, 0), _TINY),
    lambda: traced_symmetrizer(TRIPLE.joint.labels, TRIPLE.contexts, 1).to_matrix(_TINY),
    lambda: fixed_subspace_projector(torus_rep([(1,), (-1,)]), 2, _TINY),
    lambda: hierarchy_check(marginals_of(haar_random_pure_on(CHAIN.joint, 8), CHAIN), 2,
                            budget=_TINY),
    lambda: subspace_hierarchy_check(triple_product(np.eye(4) / 4), identity(TRIPLE.joint), 1,
                                     budget=_TINY),
], ids=["sym_projector", "permutation_operator", "to_matrix", "fixed_subspace_projector",
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


@pytest.mark.parametrize("p,matvecs", [(0.55, 130), (0.8, 65)])
def test_lanczos_matvec_count_on_planted_triangle(monkeypatch, p, matvecs):
    """Noisy singlets below p ~ 0.6 need a second Lanczos cycle; the count
    of matvecs per check must not move when the matvec gets faster."""
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
    psi = haar_random_pure_on(TRIPLE.joint, 13)
    st = marginals_of(psi, TRIPLE)
    a = hierarchy_check(st, 1)
    b = ortho_bound_check(st, 1, 1)
    assert b.gap == pytest.approx(a.gap, abs=1e-9)


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


def test_is_k_uniform():
    bell = PureState(qubits("A", "B"), np.array([1, 0, 0, 1]) / np.sqrt(2))
    flag, dev = is_k_uniform(bell, ("A",))
    assert flag and dev < 1e-12
    prod = PureState(qubits("A", "B"), np.array([1, 0, 0, 0], dtype=float))
    flag, dev = is_k_uniform(prod, ("A",))
    assert not flag and dev == pytest.approx(np.sqrt(0.5))
