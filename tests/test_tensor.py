"""Tests for labeled spaces, operators, and the permutation machinery."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrealize import tensor as tensor_mod
from qrealize.config import BUDGET, ResourceBudgetError
from qrealize.tensor import (
    DensityOperator,
    Operator,
    PureState,
    apply_slot_permutation,
    gershgorin_upper_bound,
    haar_random_density,
    haar_random_pure,
    haar_random_pure_on,
    identity,
    kron,
    lanczos_min_eig,
    min_eigenvalue,
    min_eigenvalue_matrix_free,
    min_eigenvalue_vector,
    partial_trace,
    permutation_operator,
    power_space,
    qubits,
    space,
    trace_with_permutation,
)


def test_space_basics():
    sp = space(("A", 2), ("B", 3))
    assert sp.total_dim == 6
    assert sp.names == ("A", "B")
    assert sp.dims == (2, 3)
    assert sp.slot("B") == 1
    assert sp.dim_of("A") == 2
    with pytest.raises(KeyError):
        sp.slot("C")


def test_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        space(("A", 2), ("A", 2))


def test_qubits_helper():
    sp = qubits("A", "B", "C")
    assert sp.dims == (2, 2, 2)


def test_power_space_renames():
    sp = space(("A", 2), ("B", 2))
    sp2 = power_space(sp, 2)
    assert sp2.total_dim == 16
    assert len(sp2.labels) == 4
    # names must be distinct across copies
    assert len(set(sp2.names)) == 4


def test_operator_shape_validation():
    sp = space(("A", 2))
    with pytest.raises(ValueError):
        Operator(sp, np.zeros((3, 3)))


def test_operator_trace_and_adjoint():
    sp = space(("A", 2))
    m = np.array([[1, 2j], [0, 3]], dtype=complex)
    op = Operator(sp, m)
    assert op.trace() == pytest.approx(4)
    assert np.allclose(op.adjoint().mat, m.conj().T)
    assert not op.is_hermitian(1e-10)
    assert op.hermitian_part().is_hermitian(1e-12)


def test_operator_arithmetic():
    sp = space(("A", 2))
    a = Operator(sp, np.eye(2))
    b = Operator(sp, np.diag([1.0, -1.0]))
    assert np.allclose((a + b).mat, np.diag([2.0, 0.0]))
    assert np.allclose((a - b).mat, np.diag([0.0, 2.0]))
    assert np.allclose((a * 2.0).mat, 2 * np.eye(2))
    assert np.allclose((a @ b).mat, b.mat)


def test_operator_mat_is_readonly():
    op = identity(space(("A", 2)))
    with pytest.raises((ValueError, AttributeError)):
        op.mat[0, 0] = 5.0


def test_density_operator_checks():
    sp = space(("A", 2))
    rho = DensityOperator(Operator(sp, np.diag([0.5, 0.5])))
    assert list(rho.spectrum()) == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        DensityOperator(Operator(sp, np.diag([0.9, 0.9])))  # trace 1.8
    with pytest.raises(ValueError):
        DensityOperator(Operator(sp, np.array([[1.5, 0], [0, -0.5]])))  # not PSD


def test_pure_state_projector_and_reduction():
    sp = qubits("A", "B")
    bell = PureState(sp, np.array([1, 0, 0, 1]) / np.sqrt(2))
    rho_a = bell.reduced(("A",))
    assert np.allclose(rho_a.mat, np.eye(2) / 2)
    proj = bell.projector()
    assert proj.mat.trace() == pytest.approx(1)
    assert np.allclose(proj.mat @ proj.mat, proj.mat)


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        PureState(space(("A", 2)), np.array([1.0, 1.0]))


def test_partial_trace_agrees_with_manual_reshape():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    sp = space(("A", 2), ("B", 3))
    op = Operator(sp, m)
    got = partial_trace(op, drop=(1,))
    want = np.einsum("aibi->ab", m.reshape(2, 3, 2, 3))
    assert np.allclose(got.mat, want)
    assert got.space.names == ("A",)


def test_partial_trace_drop_all_is_trace():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 4))
    op = Operator(space(("A", 2), ("B", 2)), m)
    got = partial_trace(op, drop=(0, 1))
    assert got.space.total_dim == 1
    assert got.mat[0, 0] == pytest.approx(np.trace(m))


def test_kron_orders_labels():
    a = Operator(space(("A", 2)), np.diag([1.0, 2.0]))
    b = Operator(space(("B", 3)), np.diag([1.0, 2.0, 3.0]))
    ab = kron(a, b)
    assert ab.space.names == ("A", "B")
    assert np.allclose(ab.mat, np.kron(a.mat, b.mat))


def test_permutation_operator_swap():
    # swap on C^2 x C^2 maps |01> to |10>
    swap = permutation_operator(space(("Q", 2)), (1, 0))
    v = np.zeros(4)
    v[1] = 1.0  # |0,1>
    w = swap.mat @ v
    assert w[2] == pytest.approx(1.0)
    assert np.allclose(swap.mat @ swap.mat, np.eye(4))


def test_permutation_operator_three_cycle_convention():
    """T(pi) sends the content of slot s to slot pi(s)."""
    rng = np.random.default_rng(5)
    perm = (1, 2, 0)  # 0->1, 1->2, 2->0
    t = permutation_operator(space(("Q", 2)), perm)
    vecs = [rng.normal(size=2) for _ in range(3)]
    inp = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
    out = t.mat @ inp
    # slot 0 now holds what was in slot 2, slot 1 holds old slot 0, ...
    want = np.kron(np.kron(vecs[2], vecs[0]), vecs[1])
    assert np.allclose(out, want)


def test_permutation_operator_checks_the_callers_dense_dim(monkeypatch):
    sp = space(("Q", 2))
    with pytest.raises(ResourceBudgetError):
        permutation_operator(sp, (1, 2, 0), budget=BUDGET.with_(dense_dim=7))
    # a caller's budget above the module default is honoured
    monkeypatch.setattr(tensor_mod, "BUDGET", BUDGET.with_(dense_dim=4))
    t = permutation_operator(sp, (1, 2, 0), budget=BUDGET.with_(dense_dim=8))
    assert t.dim == 8


@given(st.permutations(list(range(4))))
@settings(max_examples=25, deadline=None)
def test_apply_slot_permutation_matches_dense(perm):
    dims = (2, 2, 2, 2)
    rng = np.random.default_rng(11)
    v = rng.normal(size=16)
    dense = permutation_operator(space(("Q", 2)), tuple(perm))
    assert np.allclose(apply_slot_permutation(v, dims, tuple(perm)), dense.mat @ v)


def test_permutation_operators_compose_as_the_group():
    sp = space(("Q", 2))
    pi = (1, 2, 0)
    sigma = (2, 1, 0)
    t_pi = permutation_operator(sp, pi)
    t_sigma = permutation_operator(sp, sigma)
    composed = tuple(sigma[pi[i]] for i in range(3))
    assert np.allclose(t_sigma.mat @ t_pi.mat, permutation_operator(sp, composed).mat)


def test_trace_with_permutation_full_trace_cycle_counts():
    """Tr T(pi) on (C^d)^3 equals d^(number of cycles)."""
    d = 3
    for perm, ncyc in [((0, 1, 2), 3), ((1, 0, 2), 2), ((1, 2, 0), 1)]:
        val = trace_with_permutation([np.eye(d)] * 3, (1, 1, 1), perm, d)
        assert val == pytest.approx(d ** ncyc)


def test_trace_with_permutation_swap_gives_purity():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(2, 2))
    rho = m @ m.T
    rho /= np.trace(rho)
    val = trace_with_permutation([rho, rho], (1, 1), (1, 0), 2)
    assert val == pytest.approx(np.trace(rho @ rho))


def test_trace_with_permutation_multi_slot_blocks():
    """A two-slot operator wired to itself across a 4-cycle reproduces the
    dense contraction."""
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    perm = (2, 3, 1, 0)
    sp = space(("Q", 2))
    dense = permutation_operator(sp, perm)
    want = np.trace(dense.mat @ np.kron(a, b))
    got = trace_with_permutation([a, b], (2, 2), perm, 2)
    assert got == pytest.approx(want)


def test_min_eigenvalue_and_vector():
    sp = space(("A", 3))
    h = Operator(sp, np.diag([3.0, -1.0, 2.0]))
    assert min_eigenvalue(h) == pytest.approx(-1.0)
    lam, vec = min_eigenvalue_vector(h)
    assert lam == pytest.approx(-1.0)
    assert abs(vec[1]) == pytest.approx(1.0)


def test_min_eigenvalue_rejects_non_hermitian():
    op = Operator(space(("A", 2)), np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        min_eigenvalue(op)


def test_gershgorin_upper_bound_dominates():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(5, 5))
    m = m + m.T
    assert gershgorin_upper_bound(m) >= np.linalg.eigvalsh(m)[-1] - 1e-12


@pytest.mark.parametrize("dim", [8, 33])
def test_matrix_free_min_eig_matches_dense(dim):
    rng = np.random.default_rng(dim)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2
    want = np.linalg.eigvalsh(h)[0]
    lam, vec = min_eigenvalue_matrix_free(lambda v: h @ v, dim,
                                          shift=gershgorin_upper_bound(h))
    assert lam == pytest.approx(want, abs=1e-5)
    assert np.linalg.norm(h @ vec - lam * vec) < 1e-2


@pytest.mark.parametrize("dim", [16, 100, 257])
def test_lanczos_min_eig_matches_dense(dim):
    rng = np.random.default_rng(dim + 1)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2
    want = np.linalg.eigvalsh(h)[0]
    lam, vec = lanczos_min_eig(lambda v: h @ v, dim)
    assert lam == pytest.approx(want, abs=1e-8)
    assert np.linalg.norm(h @ vec - lam * vec) < 1e-6


def test_lanczos_never_undershoots_on_psd():
    """Rayleigh quotients cannot drop below the true minimum, so a PSD
    operator must never produce a negative estimate beyond roundoff."""
    rng = np.random.default_rng(42)
    for trial in range(5):
        a = rng.normal(size=(60, 60))
        h = a @ a.T  # PSD, usually with a tiny bottom eigenvalue
        lam, _ = lanczos_min_eig(lambda v: h @ v, 60, seed=trial)
        assert lam >= -1e-10 * np.linalg.norm(h)


def test_haar_pure_state_is_normalized_and_seeded():
    psi1 = haar_random_pure(7, 123)
    psi2 = haar_random_pure(7, 123)
    assert np.allclose(psi1.amplitudes, psi2.amplitudes)
    assert np.linalg.norm(psi1.amplitudes) == pytest.approx(1.0)


def test_haar_density_is_a_state():
    rho = haar_random_density(4, 5, rank=2)
    assert rho.mat.trace() == pytest.approx(1.0)
    spec = rho.spectrum()
    assert all(s >= -1e-12 for s in spec)
    assert sum(1 for s in spec if s > 1e-10) == 2


def test_haar_on_labeled_space():
    sp = space(("A", 2), ("B", 3))
    psi = haar_random_pure_on(sp, 0)
    assert psi.space.labels == sp.labels


def test_haar_first_coordinate_moment():
    # mean of |<0|psi>|^2 over Haar is 1/d
    rng = np.random.default_rng(77)
    d = 5
    vals = [abs(haar_random_pure(d, rng).amplitudes[0]) ** 2 for _ in range(4000)]
    assert np.mean(vals) == pytest.approx(1 / d, abs=0.01)


def test_matvec_budget_cap():
    with pytest.raises(ResourceBudgetError):
        lanczos_min_eig(lambda v: v, 10 ** 9)


def test_eigensolvers_honour_the_callers_matvec_budget():
    small = BUDGET.with_(matvec_dim=8)
    with pytest.raises(ResourceBudgetError):
        lanczos_min_eig(lambda v: v, 16, budget=small)
    with pytest.raises(ResourceBudgetError):
        min_eigenvalue_matrix_free(lambda v: v, 16, shift=2.0, budget=small)
    # one past the default cap; the identity closes its Krylov space at once
    dim = BUDGET.matvec_dim + 1
    large = BUDGET.with_(matvec_dim=dim)
    lam, _ = lanczos_min_eig(lambda v: v, dim, block=4, cycles=1, budget=large)
    assert lam == pytest.approx(1.0)
    lam, _ = min_eigenvalue_matrix_free(lambda v: v, dim, shift=2.0, budget=large)
    assert lam == pytest.approx(1.0)
