"""Tests for labeled spaces, operators, and the permutation machinery."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrealize.config import BUDGET, ResourceBudgetError
from qrealize.tensor import (
    DensityOperator,
    Operator,
    PureState,
    apply_slot_permutation,
    as_matrix,
    haar_random_density,
    haar_random_pure,
    haar_random_pure_on,
    identity,
    kron,
    lanczos_min_eig,
    partial_trace,
    power_space,
    qubits,
    space,
    trace_with_permutation,
)

from reference import lanczos_basis_overlap, permutation_operator


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


@pytest.mark.parametrize("dim", [2.5, 2.7, np.float64(1.5), "2", None])
def test_space_rejects_a_dimension_that_is_not_an_integer(dim):
    """A fractional dimension is refused with its label named, not truncated."""
    with pytest.raises(ValueError, match=f"label 'B' has dimension {dim}, not an integer"):
        space(("A", 2), ("B", dim))


@pytest.mark.parametrize("dim", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_space_accepts_integer_valued_dimensions(dim):
    sp = space(("A", dim))
    assert sp.dims == (2,) and type(sp.dims[0]) is int


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


def test_as_matrix_keeps_real_input_real_and_rejects_non_square():
    assert as_matrix([[1, 2], [3, 4]]).dtype == np.float64
    assert as_matrix(np.eye(2, dtype=np.float32)).dtype == np.float64
    assert as_matrix([[1j, 0], [0, 1]]).dtype == np.complex128
    assert Operator(space(("A", 2)), np.eye(2)).mat.dtype == np.float64
    for bad in (np.zeros(4), np.zeros((2, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="expected a square matrix"):
            as_matrix(bad)


def test_density_operator_is_an_operator_that_keeps_its_spectrum(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    rho = DensityOperator(Operator(space(("A", 2)), np.array([[0.75, 0.25], [0.25, 0.25]])))
    assert isinstance(rho, Operator) and rho.mat.dtype == np.float64
    assert list(rho.spectrum()) == pytest.approx(eigvalsh(rho.mat)[::-1])
    rho.spectrum()
    assert len(calls) == 1
    with pytest.raises(AttributeError):
        rho.mat = np.eye(2)


def test_reduced_state_matches_the_partial_trace_of_the_projector():
    sp = space(("A", 2), ("B", 3), ("C", 2))
    psi = haar_random_pure_on(sp, 5)
    proj = psi.projector()
    for keep, drop in (((), (0, 1, 2)), (("C", "A"), (1,)), (("B",), (0, 2)),
                       (("A", "B", "C"), ())):
        rho = psi.reduced(keep)
        assert rho.space.names == tuple(n for n in sp.names if n in keep)
        assert np.max(np.abs(rho.mat - partial_trace(proj, drop).mat)) <= 1e-15


def test_reduced_state_rejects_an_unknown_label():
    bell = PureState(qubits("A", "B"), np.array([1, 0, 0, 1]) / np.sqrt(2))
    with pytest.raises(ValueError, match=r"no factor named \['Z'\]"):
        bell.reduced(["A", "Z"])


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


@given(st.permutations(list(range(4))))
@settings(max_examples=25, deadline=None)
def test_apply_slot_permutation_matches_dense(perm):
    dims = (2, 2, 2, 2)
    rng = np.random.default_rng(11)
    v = rng.normal(size=16)
    dense = permutation_operator(space(("Q", 2)), tuple(perm))
    assert np.allclose(apply_slot_permutation(v, dims, tuple(perm)), dense.mat @ v)


@pytest.mark.parametrize("dims,perm", [((2, 3), (1, 0)), ((2, 2), (0, 0)), ((2, 2), (0, 1, 2)),
                                       ((2, 3, 2), (1, 2, 0))])
def test_apply_slot_permutation_checks_its_preconditions(dims, perm):
    # without the check, (2, 3) with the swap returned [0, 3, 1, 4, 2, 5]
    with pytest.raises(ValueError):
        apply_slot_permutation(np.arange(float(np.prod(dims))), dims, perm)


def test_apply_slot_permutation_moves_equal_dimensions_across_others():
    v = np.arange(12.0)
    got = apply_slot_permutation(v, (2, 3, 2), (2, 1, 0))
    assert np.array_equal(got, v.reshape(2, 3, 2).transpose(2, 1, 0).reshape(-1))


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


@pytest.mark.parametrize("dim", [16, 100, 257])
def test_lanczos_min_eig_matches_dense(dim):
    """Every cycle's basis also stays orthogonal to 1e-6 (sqrt(eps) is
    1.5e-8), though most steps run no Gram-Schmidt pass."""
    rng = np.random.default_rng(dim + 1)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2
    want = np.linalg.eigvalsh(h)[0]
    seen = []

    def matvec(v):
        seen.append(np.array(v))
        return h @ v

    lam, vec = lanczos_min_eig(matvec, dim)
    assert lam == pytest.approx(want, abs=1e-8)
    assert np.linalg.norm(h @ vec - lam * vec) < 1e-6
    assert lanczos_basis_overlap(seen, min(64, dim)) <= 1e-6


@pytest.mark.parametrize("dim", [16, 100, 257])
def test_real_lanczos_min_eig_matches_dense(dim):
    """In float64 the start vector, basis and Ritz vector are real; the
    returned vector is complex128 with zero imaginary part."""
    rng = np.random.default_rng(dim + 2)
    m = rng.normal(size=(dim, dim))
    h = (m + m.T) / 2
    want = np.linalg.eigvalsh(h)[0]
    seen = []

    def matvec(v):
        seen.append(v.dtype)
        return h @ v

    lam, vec = lanczos_min_eig(matvec, dim, dtype=np.float64)
    assert set(seen) == {np.dtype(np.float64)}
    assert vec.dtype == np.complex128 and not vec.imag.any()
    assert lam == pytest.approx(want, abs=1e-8)
    assert np.linalg.norm(h @ vec - lam * vec) < 1e-6


def test_lanczos_never_undershoots_on_psd():
    """Rayleigh quotients cannot drop below the true minimum, so a PSD
    operator must never produce a negative estimate beyond roundoff."""
    rng = np.random.default_rng(42)
    for trial in range(5):
        a = rng.normal(size=(60, 60))
        h = a @ a.T  # PSD, usually with a tiny bottom eigenvalue
        lam, _ = lanczos_min_eig(lambda v: h @ v, 60)
        assert lam >= -1e-10 * np.linalg.norm(h)


@pytest.mark.parametrize("dim", [33, 100])
def test_lanczos_is_safe_when_the_matvec_returns_a_view(dim):
    """The exchange operator J (reversal) returns a view of its input; the
    three-term step must not write through it into the Lanczos basis."""
    lam, vec = lanczos_min_eig(lambda x: x[::-1], dim)
    assert lam == pytest.approx(-1.0, abs=1e-10)
    assert np.linalg.norm(vec[::-1] + vec) < 1e-8


def test_lanczos_second_reorthogonalization_pass_on_psd():
    """On this PSD input one Gram-Schmidt pass cancels most of a Lanczos
    vector, so the guarded second pass runs; the minimum must stay exact."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=(60, 60))
    h = a @ a.T
    lam, _ = lanczos_min_eig(lambda v: h @ v, 60)
    assert abs(lam - np.linalg.eigvalsh(h)[0]) <= 1e-10 * np.linalg.norm(h)


def test_lanczos_second_reorthogonalization_pass_on_rank_deficient_psd():
    """A rank-20 PSD operator on 60 dimensions closes its Krylov space after
    about 21 steps, and the matvec's rounding error lies in its range, which
    the basis already spans: the Gram-Schmidt pass there cancels most of the
    vector, so the guarded second pass runs; the minimum (0) must stay
    exact."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(60, 20))
    h = a @ a.T
    lam, _ = lanczos_min_eig(lambda v: h @ v, 60)
    assert abs(lam - np.linalg.eigvalsh(h)[0]) <= 1e-10 * np.linalg.norm(h)


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
    # the basis is 64 x dim entries: at dim 4096 exactly 512**2
    with pytest.raises(ResourceBudgetError, match="Lanczos basis: 262144 entries"):
        lanczos_min_eig(lambda v: v, 4096, budget=BUDGET.with_(dense_dim=511))
    # the identity closes its Krylov space at once
    lam, _ = lanczos_min_eig(lambda v: v, 4096, budget=BUDGET.with_(dense_dim=512))
    assert lam == pytest.approx(1.0)
