"""Symmetric-subspace projectors, traced permutation wirings, biriffle sums."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qrealize.config import BUDGET, ResourceBudgetError
from qrealize.partitions import Partition, double_cosets, partitions_of
from qrealize.qmp import _swap_order, _wiring_sum
from qrealize.symmetrizer import (
    SlotLayout,
    WiringOperator,
    WiringSum,
    bibiriffle_lower_bound,
    biriffle_bruteforce,
    biriffle_value,
    isotypic_band_weight,
    isotypic_projector,
    scenario_layout,
    set_cycles,
    sym_projector,
    symmetrize_operator,
    traced_permutation,
    traced_permutation_sum,
    traced_symmetrizer,
    uniform_sym_state,
)
from qrealize.partitions import cycle_type, mn_character, specht_dim, weyl_dim
from qrealize.tensor import apply_slot_permutation, partial_trace, space

from reference import permutation_operator, wiring_matrix


def antisym_projector(d, k):
    """The one-column isotypic projector: the antisymmetric subspace."""
    return isotypic_projector(Partition((1,) * k), d, k)


def test_sym_projector_is_projector_with_right_trace():
    for d, k in [(2, 2), (2, 3), (3, 2)]:
        p = sym_projector(d, k).mat
        assert np.allclose(p @ p, p)
        assert np.allclose(p, p.conj().T)
        assert np.trace(p).real == pytest.approx(math.comb(k + d - 1, k))


def test_sym_projector_fixes_symmetric_vectors():
    p = sym_projector(2, 3)
    v = np.zeros(8)
    v[0] = 1.0  # |000>
    assert np.allclose(p.mat @ v, v)
    w = np.zeros(8)
    w[1] = 1.0  # |001>: projects onto the uniform weight-1 combination
    pw = p.mat @ w
    assert pw[1] == pytest.approx(1 / 3)
    assert pw[2] == pytest.approx(1 / 3)
    assert pw[4] == pytest.approx(1 / 3)


def test_antisym_projector_traces_and_orthogonality():
    for d, k in [(2, 2), (3, 2), (3, 3)]:
        a = antisym_projector(d, k).mat
        assert np.allclose(a @ a, a)
        assert np.trace(a).real == pytest.approx(math.comb(d, k))
        s = sym_projector(d, k).mat
        if k > 1:
            assert np.allclose(s @ a, 0)
    # more slots than local dimension: nothing antisymmetric survives
    assert np.allclose(antisym_projector(2, 3).mat, 0)


def test_uniform_sym_state_normalization():
    rho = uniform_sym_state(2, 3)
    assert np.trace(rho.mat).real == pytest.approx(1.0)
    evals = np.linalg.eigvalsh(rho.mat)
    # flat on the symmetric subspace
    top = evals[evals > 1e-12]
    assert np.allclose(top, 1 / math.comb(3 + 2 - 1, 3))


def test_isotypic_projectors_resolve_identity():
    for d, n in [(2, 2), (2, 3), (3, 2)]:
        total = np.zeros((d ** n, d ** n), dtype=complex)
        for lam in partitions_of(n, n):
            p = isotypic_projector(lam, d, n).mat
            assert np.allclose(p @ p, p, atol=1e-10)
            assert np.trace(p).real == pytest.approx(specht_dim(lam) * weyl_dim(lam, d))
            total += p
        assert np.allclose(total, np.eye(d ** n))


def test_isotypic_extremes_match_sym_and_antisym():
    d, n = 2, 3
    assert np.allclose(isotypic_projector(Partition((n,)), d, n).mat,
                       sym_projector(d, n).mat)
    swap = permutation_operator(space(("Q", d)), (1, 0)).mat
    assert np.allclose(isotypic_projector(Partition((1,) * 2), d, 2).mat,
                       (np.eye(d * d) - swap) / 2)


def test_isotypic_projectors_are_mutually_orthogonal():
    d, n = 2, 3
    mats = [isotypic_projector(lam, d, n).mat for lam in partitions_of(n, n)]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.allclose(mats[i] @ mats[j], 0, atol=1e-10)


def _explicit_sum(d, k, weight):
    """sum over S_k of weight(perm) T(perm), term by term, each T(perm) from
    the dense permutation operator."""
    one = space(("Q", d))
    total = np.zeros((d ** k, d ** k), dtype=complex)
    for perm in itertools.permutations(range(k)):
        total += weight(perm) * permutation_operator(one, perm).mat
    return total


@pytest.mark.parametrize("d,k", [(2, 3), (3, 3), (2, 4)])
def test_sym_and_antisym_projectors_equal_their_explicit_sums(d, k):
    norm = math.factorial(k)
    sym = _explicit_sum(d, k, lambda perm: 1 / norm)
    sign = _explicit_sum(d, k, lambda perm: (-1) ** (k - len(set_cycles(perm))) / norm)
    assert np.max(np.abs(sym_projector(d, k).mat - sym)) <= 1e-14
    # (2, 3) and (2, 4) have more slots than the local dimension: both are 0
    assert np.max(np.abs(antisym_projector(d, k).mat - sign)) <= 1e-14


@pytest.mark.parametrize("lam", partitions_of(4, 4), ids=lambda lam: str(lam.parts))
def test_isotypic_projector_equals_its_explicit_sum(lam):
    f = specht_dim(lam)
    want = _explicit_sum(3, 4, lambda perm: f * mn_character(lam, cycle_type(perm)) / 24)
    assert np.max(np.abs(isotypic_projector(lam, 3, 4).mat - want)) <= 1e-14


def test_real_projectors_are_stored_as_float64_without_a_copy():
    # 1296 x 1296 float64 is 13.4 MB; a complex128 copy would take the peak past 40 MB
    for build in (lambda: sym_projector(6, 4),
                  lambda: isotypic_projector(Partition((2, 2)), 6, 4)):
        build()  # the type index and the wiring sum are cached
        tracemalloc.start()
        try:
            op = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.mat.dtype == np.float64
        assert peak <= 17e6, peak
        del op


def test_set_cycles():
    assert set_cycles([1, 0, 2]) == [[0, 1], [2]]
    assert set_cycles([1, 2, 0]) == [[0, 1, 2]]


def test_scenario_layout_axes_ordering():
    layout = scenario_layout((("A", 2), ("B", 3), ("C", 2)),
                             (("A", "B"), ("B", "C")), 2)
    assert layout.nslots == 4
    # slot 0 keeps A,B; slot 1 keeps B,C; repeated for the second round
    assert layout.axes == [(0, "A"), (0, "B"), (1, "B"), (1, "C"),
                           (2, "A"), (2, "B"), (3, "B"), (3, "C")]
    assert layout.axis_dims == (2, 3, 3, 2, 2, 3, 3, 2)
    assert layout.out_dim == 1296


def _dense_traced_perm(labels, contexts, n, perm):
    """Oracle: build the slot permutation densely on the full joint power
    and partial-trace the wires each slot's context drops."""
    sp_joint = space(*labels)
    big = permutation_operator(sp_joint, perm)
    m = len(contexts)
    names = [x for x, _ in labels]
    drop = []
    for idx, (nm, _) in enumerate(big.space.labels):
        base, slot_s = nm.split("#")
        i = int(slot_s) % m
        if base not in contexts[i]:
            drop.append(idx)
    return partial_trace(big, drop).mat


@pytest.mark.parametrize("labels,contexts,n", [
    ((("A", 2), ("B", 2), ("C", 2)), (("A", "B"), ("A", "C"), ("B", "C")), 1),
    ((("A", 2), ("B", 3)), (("A",), ("B",)), 2),
    ((("A", 2), ("B", 2), ("C", 2)), (("A", "B"), ("B", "C")), 1),
])
def test_traced_permutation_matches_dense_partial_trace(labels, contexts, n):
    layout = scenario_layout(labels, contexts, n)
    for perm in itertools.permutations(range(layout.nslots)):
        got = traced_permutation(layout, perm)
        want = _dense_traced_perm(labels, contexts, n, perm)
        assert np.allclose(wiring_matrix(got), want, atol=1e-10), perm


def test_traced_permutation_apply_matches_matrix():
    layout = scenario_layout((("A", 2), ("B", 2), ("C", 2)),
                             (("A", "B"), ("A", "C"), ("B", "C")), 1)
    rng = np.random.default_rng(4)
    v = rng.normal(size=layout.out_dim) + 1j * rng.normal(size=layout.out_dim)
    for perm in [(1, 2, 0), (2, 1, 0), (0, 1, 2)]:
        w = traced_permutation(layout, perm)
        assert np.allclose(w.apply(v), wiring_matrix(w) @ v)


def test_wiring_sum_apply_matches_matrix_and_merges_terms():
    labels = (("A", 2), ("B", 2), ("C", 2))
    contexts = (("A", "B"), ("A", "C"), ("B", "C"))
    ws = traced_symmetrizer(labels, contexts, 2)
    # 6! = 720 permutations merge into far fewer distinct axis permutations
    assert 0 < len(ws.terms) < 720
    rng = np.random.default_rng(12)
    v = rng.normal(size=ws.layout.out_dim)
    assert np.allclose(ws.apply(v), ws.to_matrix() @ v)


def test_traced_symmetrizer_matches_dense_oracle():
    labels = (("A", 2), ("B", 2))
    contexts = (("A",), ("B",))
    n = 1
    ws = traced_symmetrizer(labels, contexts, n)
    layout = scenario_layout(labels, contexts, n)
    acc = np.zeros((layout.out_dim, layout.out_dim), dtype=complex)
    for perm in itertools.permutations(range(layout.nslots)):
        acc += _dense_traced_perm(labels, contexts, n, perm)
    acc /= math.factorial(layout.nslots)
    assert np.allclose(ws.to_matrix(), acc, atol=1e-12)


def test_traced_symmetrizer_disjoint_qubits_known_value():
    # two disjoint single-qubit contexts at level 1: (1 + 2*2)/2 times identity
    ws = traced_symmetrizer((("A", 2), ("B", 2)), (("A",), ("B",)), 1)
    assert np.allclose(ws.to_matrix(), 2.5 * np.eye(4), atol=1e-12)


def test_traced_symmetrizer_is_hermitian():
    ws = traced_symmetrizer((("A", 2), ("B", 2), ("C", 2)),
                            (("A", "B"), ("A", "C"), ("B", "C")), 1)
    m = ws.to_matrix()
    assert np.allclose(m, m.conj().T, atol=1e-12)


def test_isotypic_band_weight_full_band_traces_identity():
    """With every shape admitted the band sum is the traced identity, i.e.
    the product of dropped dimensions times the identity."""
    labels = (("A", 2), ("B", 2), ("C", 2))
    contexts = (("A", "B"), ("A", "C"), ("B", "C"))
    layout = scenario_layout(labels, contexts, 1)
    ws = traced_permutation_sum(layout, isotypic_band_weight(3, 3))
    assert np.allclose(ws.to_matrix(), 8 * np.eye(64), atol=1e-10)


def test_isotypic_band_weight_restricted_matches_dense_sum():
    labels = (("A", 2), ("B", 2))
    contexts = (("A", "B"),)  # keep everything: traced = plain operator
    layout = scenario_layout(labels, contexts, 2)
    ws = traced_permutation_sum(layout, isotypic_band_weight(2, 1))
    want = isotypic_projector(Partition((2,)), 4, 2).mat  # local dim 4, 2 slots
    assert np.allclose(ws.to_matrix(), want, atol=1e-10)


def random_sym_psd(rng, d, n):
    """A PSD operator supported on (and invariant under) the symmetric
    subspace of n slots of C^d."""
    size = d ** n
    m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    m = m @ m.conj().T
    return symmetrize_operator(m, d)


def test_sym_projector_follows_dense_dim():
    # two slots of C^65 span dimension 4225, above the default cap of 4096
    with pytest.raises(ResourceBudgetError, match="dimension 4225 exceeds cap dense_dim=4096"):
        sym_projector(65, 2)
    p = sym_projector(65, 2, budget=BUDGET.with_(dense_dim=65 ** 2))
    assert p.trace().real == pytest.approx(math.comb(66, 2))     # 2145


def test_ten_slot_symmetric_projector_and_symmetrize_run():
    # 10! permutations exceed the permutation cap, which no longer applies:
    # the projector and the compression come from the occupation types
    p = sym_projector(2, 10)
    assert p.trace().real == pytest.approx(11)      # binom(10 + 1, 10)
    rng = np.random.default_rng(10)
    raw = rng.normal(size=(1024, 1024))
    x = symmetrize_operator(raw, 2)
    shift = permutation_operator(space(("Q", 2)), (*range(1, 10), 0)).mat.real
    assert np.abs(shift @ x @ shift.T - x).max() <= 1e-12
    assert np.abs(p.mat @ x @ p.mat - x).max() <= 1e-12
    # biriffle_value compresses its inputs itself, on ten slots too
    assert biriffle_value([raw, raw], 2) == \
        pytest.approx(biriffle_value([x, x], 2), rel=1e-12)


def test_dense_projector_follows_the_callers_permutation_cap():
    # the isotypic projectors still sum permutations: 8! = 40320, past a cap
    # of 7!, inside the default
    sym = Partition((8,))
    with pytest.raises(ResourceBudgetError,
                       match="8! permutation terms exceed cap perms_matrix_free=5040"):
        isotypic_projector(sym, 2, 8, BUDGET.with_(perms_matrix_free=5040))
    p = isotypic_projector(sym, 2, 8)
    assert p.trace().real == pytest.approx(9)       # binom(8 + 1, 8)


@pytest.mark.parametrize("d,k", [(2, 8), (3, 7), (4, 6), (8, 4), (16, 3), (64, 2)])
def test_sym_projector_matches_the_permutation_sum(d, k):
    # d^k up to 4096: compared in row slices, to keep temporaries small
    want = isotypic_projector(Partition((k,)), d, k).mat
    got = sym_projector(d, k).mat
    for lo in range(0, d ** k, 256):
        assert np.abs(got[lo:lo + 256] - want[lo:lo + 256]).max() <= 1e-12


def test_symmetric_routes_never_sum_permutations(monkeypatch):
    import qrealize.symmetrizer as symmetrizer_mod

    def no_sum(*args, **kwargs):
        raise AssertionError("a symmetric-projector route summed permutations")

    monkeypatch.setattr(symmetrizer_mod, "traced_permutation_sum", no_sum)
    rng = np.random.default_rng(27)
    x = rng.normal(size=(27, 27))
    sym_projector(3, 3)
    uniform_sym_state(3, 3)
    y = symmetrize_operator(x @ x.T, 3)
    biriffle_value([x @ x.T, y], 3)
    bibiriffle_lower_bound(y, y, 3)


def test_biriffle_bruteforce_follows_the_permutation_cap():
    x = np.diag([0.7, 0.3])
    small = BUDGET.with_(perms_matrix_free=5)
    with pytest.raises(ResourceBudgetError,
                       match="3! permutation terms exceed cap perms_matrix_free=5"):
        biriffle_bruteforce([x, x, x], 2, small)
    assert biriffle_bruteforce([x, x, x], 2, small.with_(perms_matrix_free=6)) == \
        pytest.approx(biriffle_value([x, x, x], 2))


def test_symmetrize_operator_is_invariant():
    rng = np.random.default_rng(7)
    x = random_sym_psd(rng, 2, 2)
    swap = permutation_operator(space(("Q", 2)), (1, 0)).mat
    assert np.allclose(swap @ x @ swap, x)


@pytest.mark.parametrize("d,n,k", [(2, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 2)])
def test_biriffle_value_matches_bruteforce(d, n, k):
    rng = np.random.default_rng(100 * d + 10 * n + k)
    xs = [random_sym_psd(rng, d, n) for _ in range(k)]
    assert biriffle_value(xs, d) == pytest.approx(biriffle_bruteforce(xs, d),
                                                  abs=1e-10)


def test_biriffle_single_block_is_uniform_sym_trace():
    rng = np.random.default_rng(3)
    x = random_sym_psd(rng, 2, 3)
    sbar = uniform_sym_state(2, 3)
    want = np.trace(sbar.mat @ x).real
    assert biriffle_value([x], 2) == pytest.approx(want, abs=1e-12)


def test_biriffle_two_blocks_against_dense_uniform_state():
    rng = np.random.default_rng(9)
    x = random_sym_psd(rng, 2, 2)
    y = random_sym_psd(rng, 2, 2)
    sbar = uniform_sym_state(2, 4)
    want = np.trace(sbar.mat @ np.kron(x, y)).real
    assert biriffle_value([x, y], 2) == pytest.approx(want, abs=1e-10)


def test_biriffle_symmetrize_flag():
    # an input off the symmetric subspace is compressed first
    rng = np.random.default_rng(21)
    m = rng.normal(size=(4, 4))
    m = m @ m.T  # PSD but not swap-invariant
    direct = biriffle_value([symmetrize_operator(m, 2)] * 2, 2)
    assert biriffle_value([m, m], 2) == pytest.approx(direct, abs=1e-12)


def _random_hermitian(rng, size):
    m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return m + m.conj().T


@pytest.mark.parametrize("d,n,k", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 1), (2, 7, 1),
                                   (2, 1, 7), (3, 2, 2), (3, 3, 1), (4, 2, 1)])
def test_biriffle_value_equals_bruteforce_off_the_symmetric_subspace(d, n, k):
    rng = np.random.default_rng(1000 * d + 10 * n + k)
    xs = [_random_hermitian(rng, d ** n) for _ in range(k)]
    assert biriffle_value(xs, d) == pytest.approx(biriffle_bruteforce(xs, d), rel=1e-12)


def test_biriffle_value_equals_bruteforce_on_fixed_inputs_off_the_subspace():
    # A x A and I/8 commute with every slot permutation, yet reach outside
    # the symmetric subspace: the uncompressed coset sum read I/8 as 0.05625
    a = _random_hermitian(np.random.default_rng(5), 2)
    for x in (np.kron(a, a), np.eye(8) / 8):
        for k in (1, 2):
            assert biriffle_value([x] * k, 2) == \
                pytest.approx(biriffle_bruteforce([x] * k, 2), rel=1e-12)
    assert biriffle_value([np.eye(8) / 8] * 2, 2) == pytest.approx(1 / 64, rel=1e-12)


def test_double_coset_cardinalities_cover_symmetric_group():
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        assert sum(c for _, c, _ in double_cosets(n, k)) == math.factorial(n * k)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_bibiriffle_lower_bound_holds(d, n):
    rng = np.random.default_rng(d * 7 + n)
    for _ in range(5):
        x1 = random_sym_psd(rng, d, n)
        x2 = random_sym_psd(rng, d, n)
        p, bound = bibiriffle_lower_bound(x1, x2, d)
        assert p >= bound - 1e-10


def test_bibiriffle_lower_bound_holds_off_the_symmetric_subspace():
    # |u><u| on three qubit slots, u = |000> + 3|001> - |011> - |101>: 5/9
    # of its weight lies off the symmetric subspace, and Tr(S^T X X S) / 4 / 6
    # = 2.667 exceeded the true p_n = 2.419 before both came from S^T X S
    u = np.array([1.0, 3, 0, -1, 0, -1, 0, 0])
    pairs = [(np.outer(u, u), np.outer(u, u), 2)]
    rng = np.random.default_rng(57)
    for d, n in [(2, 2), (2, 3), (3, 2)]:
        for _ in range(3):
            x1, x2 = (m @ m.conj().T for m in (_random_hermitian(rng, d ** n) for _ in "ab"))
            pairs.append((x1, x2, d))
    for x1, x2, d in pairs:
        p, bound = bibiriffle_lower_bound(x1, x2, d)
        assert p >= bound - 1e-10
        assert p == pytest.approx(biriffle_bruteforce([x1, x2], d), rel=1e-12)


def test_wiring_sum_rejects_layout_mismatch():
    l1 = scenario_layout((("A", 2),), (("A",),), 1)
    l2 = scenario_layout((("A", 2),), (("A",),), 2)
    with pytest.raises(ValueError):
        WiringSum(l1, {traced_permutation(l2, (0, 1)).perm: 1.0})


def test_wiring_sum_rejects_permutations_across_dimensions():
    layout = scenario_layout((("A", 2), ("B", 3)), (("A", "B"),), 1)
    with pytest.raises(ValueError):
        WiringSum(layout, {(1, 0): 1.0})


TRIANGLE = ((("A", 2), ("B", 2), ("C", 2)), (("A", "B"), ("A", "C"), ("B", "C")))
CHAIN = ((("A", 2), ("B", 2), ("C", 2)), (("A", "B"), ("B", "C")))


def _term_by_term_apply(ws, v):
    out = np.zeros(ws.layout.out_dim, dtype=complex)
    for perm, c in ws.terms.items():
        out += c * apply_slot_permutation(v, ws.layout.axis_dims, perm)
    return out


def _term_by_term_matrix(ws):
    dims = ws.layout.axis_dims
    return sum(wiring_matrix(WiringOperator(c, perm, dims)) for perm, c in ws.terms.items())


def _wiring_sums(scen, n):
    """The traced symmetrizer and the mixed-sign two-row band on one layout."""
    layout = scenario_layout(*scen, n)
    nslots = layout.nslots
    return [traced_permutation_sum(layout, lambda t: 1.0 / math.factorial(nslots)),
            traced_permutation_sum(layout, isotypic_band_weight(nslots, 2))]


def test_compiled_apply_matches_term_by_term_sum_on_triangle_level_two():
    rng = np.random.default_rng(31)
    sym, band = _wiring_sums(TRIANGLE, 2)
    assert min(band.terms.values()) < 0 < max(band.terms.values())
    for ws in (sym, band):
        v = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        want = _term_by_term_apply(ws, v)
        # relative to the largest output entry (the band's reach ~1e2)
        assert np.max(np.abs(ws.apply(v) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_apply_on_a_real_vector_is_real_and_matches_the_complex_apply():
    """A real vector runs one matmul column per block and comes back
    float64, equal to the real part of the complex apply of the same vector."""
    rng = np.random.default_rng(32)
    for ws in _wiring_sums(TRIANGLE, 2):
        v = rng.normal(size=4096)
        got = ws.apply(v)
        want = ws.apply(v.astype(np.complex128))
        assert got.dtype == np.float64
        assert not want.imag.any()
        assert np.max(np.abs(got - want.real)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("scen,n", [(TRIANGLE, 1), (CHAIN, 2)])
def test_compiled_to_matrix_matches_term_by_term_sum(scen, n):
    for ws in _wiring_sums(scen, n):
        want = _term_by_term_matrix(ws)
        got = ws.to_matrix()
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


QUTRIT_CHAIN = ((("A", 3), ("B", 2)), (("A", "B"), ("A",)))


def _ordered_cases():
    """(wiring sum, [orders]): the chain at level 2 for v = 1 and v = 2 and
    the qutrit chain at level 2, each in its copy-swap order and one random
    order, and a keep-every-wire projector layout in a random order."""
    rng = np.random.default_rng(24)
    cases = []
    for (labels, contexts), v in ((CHAIN, 1), (CHAIN, 2), (QUTRIT_CHAIN, 1)):
        ws = _wiring_sum(labels, contexts, 2, v)
        ctx_dims = tuple(math.prod(dict(labels)[x] for x in ctx) for ctx in contexts)
        cases.append((ws, [_swap_order(ctx_dims, 2)[0], rng.permutation(ws.layout.out_dim)]))
    every_wire = SlotLayout(3, (("Q", 3),), (("Q", (0, 1, 2)),))
    ws = traced_permutation_sum(every_wire, isotypic_band_weight(3, 2))
    cases.append((ws, [rng.permutation(27)]))
    return cases


@pytest.mark.parametrize("case", range(4), ids=["chain-v1", "chain-v2", "qutrit-chain",
                                                 "every-wire"])
def test_to_matrix_in_order_equals_the_gathered_matrix_bit_for_bit(case):
    ws, orders = _ordered_cases()[case]
    full = ws.to_matrix()
    for order in orders:
        got = ws.to_matrix(BUDGET, order)
        want = full[np.ix_(order, order)]
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_to_matrix_rejects_an_order_that_is_not_a_permutation():
    ws = _wiring_sum(*CHAIN, 1, 1)
    for order in (np.arange(15), np.r_[0, np.arange(15)], np.arange(16)[::-1] + 1):
        with pytest.raises((ValueError, IndexError)):
            ws.to_matrix(BUDGET, order)


def test_to_matrix_in_order_checks_the_dense_cap_before_allocating():
    ws = _wiring_sum(*CHAIN, 2, 1)
    budget = BUDGET.with_(dense_dim=100)
    bad_order = np.zeros(3, dtype=np.int64)  # not even valid: the cap comes first
    tracemalloc.start()
    try:
        ws.to_matrix(budget, bad_order)
    except ResourceBudgetError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert str(error) == "dense wiring sum: dimension 256 exceeds cap dense_dim=100"
    # less than the 256 int64 positions, let alone the 256 x 256 matrix
    assert peak < 256 * 8


def test_wiring_sum_terms_are_read_only():
    layout = scenario_layout(*CHAIN, 1)
    ws = WiringSum(layout, {(0, 1, 2, 3): 0.5})
    with pytest.raises(TypeError):
        ws.terms[(1, 0, 2, 3)] = 0.5
    with pytest.raises(TypeError):
        ws.terms[(0, 1, 2, 3)] = 1.0
    assert dict(ws.terms) == {(0, 1, 2, 3): 0.5}


def test_empty_wiring_sum_is_zero():
    ws = WiringSum(scenario_layout(*CHAIN, 1), {})
    assert np.array_equal(ws.apply(np.ones(16)), np.zeros(16))
    assert np.array_equal(ws.to_matrix(), np.zeros((16, 16)))


def test_wiring_sum_without_kept_wires_is_a_scalar():
    layout = SlotLayout(2, (("A", 2),), ())
    one, two = (traced_permutation(layout, p) for p in ((1, 0), (0, 1)))
    assert one.perm == two.perm == ()
    ws = WiringSum(layout, {(): 0.25 * one.scalar + 0.25 * two.scalar})
    # one loop (d = 2) plus two loops (d^2 = 4)
    assert ws.apply(np.ones(1)) == pytest.approx(1.5)
    assert ws.to_matrix() == pytest.approx(np.array([[1.5]]))


def test_wiring_sum_coefficients_are_real():
    layout = scenario_layout(*CHAIN, 1)
    wiring = traced_permutation(layout, (1, 0))
    with pytest.raises(ValueError):
        WiringSum(layout, {wiring.perm: 0.5j})
    ws = WiringSum(layout, {wiring.perm: 0.5 + 0j})
    assert all(type(c) is float for c in ws.terms.values())


def _assert_compiled_matches_terms(ws, rng):
    """Compiled apply and to_matrix against the term-by-term sums, at 1e-12
    relative to the largest output entry."""
    dim = ws.layout.out_dim
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    want = _term_by_term_apply(ws, v)
    assert np.max(np.abs(ws.apply(v) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    want_m = _term_by_term_matrix(ws)
    got_m = ws.to_matrix()
    assert np.max(np.abs(got_m - want_m)) <= 1e-12 * max(1.0, np.max(np.abs(want_m)))


def test_compiled_blocks_follow_orbits_that_mix_labels():
    """A term that swaps an A axis with a B axis joins them into one orbit;
    sectors keyed per label would split its blocks and drop entries."""
    layout = scenario_layout(*TRIANGLE, 1)
    assert layout.axes == [(0, "A"), (0, "B"), (1, "A"), (1, "C"), (2, "B"), (2, "C")]
    assert layout.axis_dims == (2,) * 6
    ws = WiringSum(layout, {
        (0, 1, 2, 3, 4, 5): 0.5,
        (2, 1, 0, 3, 4, 5): -1.25,      # A#0 <-> A#1
        (1, 0, 2, 3, 4, 5): 2.0 * 0.75,  # A#0 <-> B#0
        (0, 1, 2, 5, 4, 3): 2.0,        # C#1 <-> C#2
    })
    _assert_compiled_matches_terms(ws, np.random.default_rng(41))


@pytest.mark.parametrize("rank", [None, 2])
def test_compiled_blocks_with_a_qutrit_label(rank):
    """Levels 0..2 on the qutrit orbit: the sector key is a full histogram,
    not a count of one level."""
    layout = scenario_layout((("A", 3), ("B", 2)), (("A", "B"), ("A",)), 2)
    nslots = layout.nslots
    weight = (isotypic_band_weight(nslots, rank) if rank
              else (lambda t: 1.0 / math.factorial(nslots)))
    ws = traced_permutation_sum(layout, weight)
    _assert_compiled_matches_terms(ws, np.random.default_rng(43))


@pytest.mark.parametrize("scen,v,entries", [(TRIANGLE, 1, 148_877), (TRIANGLE, 2, 148_877),
                                            (CHAIN, 1, 1_325)])
def test_compiled_blocks_store_one_block_per_relabeling_class(scen, v, entries):
    """Sectors that a level permutation on every axis of an orbit carries
    onto one another share one stored block: on the level-2 triangle the
    125 weight sectors (343,000 entries) fall into 27 classes."""
    layout = scenario_layout(*scen, 2)
    ws = traced_permutation_sum(layout, isotypic_band_weight(layout.nslots, v))
    assert sum(b.size for b in ws._blocks) == entries


def test_compiled_arrays_are_read_only():
    """A cached sum cannot change after it is compiled: its gather order
    and its blocks refuse in-place writes."""
    ws = _wiring_sum(*CHAIN, 2, 1)
    assert not ws._order.flags.writeable
    with pytest.raises(ValueError):
        ws._order[0] = 0
    for b in ws._blocks:
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0, 0] += 1.0
