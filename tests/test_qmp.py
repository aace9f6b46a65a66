"""Realizability checks: hierarchy levels, witnesses, bipartite exact case."""
import math

import numpy as np
import pytest

from qrealize import qmp as qmp_mod
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
from qrealize.symmetrizer import traced_symmetrizer
from qrealize.tensor import (
    DensityOperator,
    Operator,
    PureState,
    haar_random_density,
    haar_random_pure_on,
    identity,
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


def test_hierarchy_methods_agree():
    psi = haar_random_pure_on(TRIPLE.joint, 8)
    st = marginals_of(psi, TRIPLE)
    dense = hierarchy_check(st, 1, method="dense")
    iterative = hierarchy_check(st, 1, method="iterative")
    assert iterative.gap == pytest.approx(dense.gap, abs=1e-7)


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
    a = hierarchy_check(st, 1, method="dense")
    b = subspace_hierarchy_check(st, full, 1)
    assert b.gap == pytest.approx(a.gap, abs=1e-9)


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
