"""Frame divergence, Sanov-type bounds, constructive discrimination."""
import itertools
import math

import numpy as np
import pytest

from qrealize.divergence import (
    DiagonalizingFrame,
    discrimination_constant,
    discrimination_ratio_bound,
    discrimination_sequence,
    gen_power,
    keyl_divergence,
    kl_divergence,
    leading_principal_minors,
    multinomial_mass,
    quantum_relative_entropy,
    sanov_bounds_check,
    spectrum_of,
)
from qrealize.estimation import compositions
from qrealize.tensor import haar_random_density, haar_random_pure, space

from reference import permutation_operator


def random_density(rng, d, rank=None):
    return haar_random_density(d, rng, rank=rank).mat


def test_leading_principal_minors_triangle():
    m = np.array([[2.0, 5.0, 1.0], [0.0, 3.0, 7.0], [0.0, 0.0, 4.0]])
    lpm = leading_principal_minors(m)
    assert lpm == pytest.approx([2.0, 6.0, 24.0])


def test_leading_principal_minors_match_numpy():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = m @ m.conj().T
    lpm = leading_principal_minors(m)
    for i in range(4):
        assert lpm[i] == pytest.approx(np.linalg.det(m[: i + 1, : i + 1]).real)


def test_gen_power_diagonal_closed_form():
    rho = np.diag([0.5, 0.3, 0.2])
    # exponents (3,1,0): lpm = (0.5, 0.15, 0.03), deltas (2,1,0)
    val = gen_power([3, 1, 0], rho)
    assert val == pytest.approx(0.5 ** 2 * 0.15)


def test_gen_power_zero_conventions():
    rho = np.diag([0.6, 0.4, 0.0])
    assert gen_power([1, 1, 1], rho) == 0.0          # zero minor, positive exponent
    assert gen_power([2, 1, 0], rho) == pytest.approx(0.6 * 0.24)  # 0^0 skipped
    with pytest.raises(ZeroDivisionError):
        gen_power([0, 0, -1], np.diag([0.5, 0.5, 0.0]))


def test_gen_power_negative_minor_guard():
    m = np.diag([-0.5, 1.0])
    with pytest.raises(ValueError):
        gen_power([0.5, 0.0], m)
    # integer exponents on negative minors are legal
    assert gen_power([1, 0], m) == pytest.approx(-0.5)


def _canonical_hwv(lam, d):
    """Column-antisymmetrized content vector of the row-filled tableau.

    An independent tensor-algebra route to the generalized power function:
    the squared overlap of this unit vector with rho^{(x) n} equals
    gen_power(lam, rho).
    """
    n = sum(lam)
    cells = {}
    s = 0
    for i, r in enumerate(lam):
        for j in range(r):
            cells[(i, j)] = s
            s += 1
    lin = 0
    row_of = [0] * n
    for (i, _), s0 in cells.items():
        row_of[s0] = i
    for s0 in range(n):
        lin = lin * d + row_of[s0]
    v = np.zeros(d ** n, dtype=complex)
    v[lin] = 1.0
    sp = space(("Q", d))
    w = v
    for j in range(lam[0]):
        col = [cells[(i, j)] for i in range(len(lam)) if j < lam[i]]
        acc = np.zeros_like(w)
        for q in itertools.permutations(col):
            perm = list(range(n))
            for a, s0 in enumerate(col):
                perm[s0] = q[a]
            qq = [col.index(x) for x in q]
            inversions = sum(1 for a in range(len(qq)) for b in range(a + 1, len(qq))
                             if qq[a] > qq[b])
            acc += (-1.0) ** inversions * (permutation_operator(sp, tuple(perm)).mat @ w)
        w = acc
    return w / np.linalg.norm(w)


@pytest.mark.parametrize("lam", [(2,), (1, 1), (2, 1), (3, 1), (2, 2)])
def test_gen_power_matches_highest_weight_overlap(lam):
    rng = np.random.default_rng(sum(lam) * 7 + len(lam))
    d = 2
    n = sum(lam)
    v = _canonical_hwv(lam, d)
    rho = random_density(rng, d)
    big = rho
    for _ in range(n - 1):
        big = np.kron(big, rho)
    overlap = float(np.real(v.conj() @ big @ v))
    assert gen_power(list(lam) + [0] * (d - len(lam)), rho) == \
        pytest.approx(overlap, rel=1e-10)


def test_diagonalizing_frame_reconstructs_and_is_deterministic():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    f1 = DiagonalizingFrame.of(rho)
    f2 = DiagonalizingFrame.of(rho)
    assert np.allclose(f1.u, f2.u)
    assert np.all(np.diff(f1.spectrum) <= 1e-12)
    assert np.allclose(f1.u @ np.diag(f1.spectrum) @ f1.u.conj().T, rho, atol=1e-9)
    # conjugation puts rho itself into diagonal form
    assert np.allclose(f1.conjugated(rho), np.diag(f1.spectrum), atol=1e-9)


def test_kl_divergence_basics():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))
    assert math.isinf(kl_divergence([0.5, 0.5], [1.0, 0.0]))
    assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2))


def test_keyl_divergence_commuting_equals_kl():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        s = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        t = rng.dirichlet(np.ones(d))
        rho = u @ np.diag(s) @ u.conj().T
        sigma = u @ np.diag(t) @ u.conj().T
        got = keyl_divergence(rho, sigma)
        want = kl_divergence(s, t)  # aligned to rho's eigenvalue order
        assert got == pytest.approx(want, abs=1e-10)


def test_keyl_divergence_self_is_zero():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        rho = random_density(rng, d)
        assert keyl_divergence(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_keyl_divergence_never_exceeds_quantum_relative_entropy():
    rng = np.random.default_rng(29)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        k = keyl_divergence(rho, sigma)
        q = quantum_relative_entropy(rho, sigma)
        assert k <= q + 1e-9


def test_keyl_divergence_support_leak_is_infinite():
    rho = np.diag([0.5, 0.5])
    sigma = np.diag([1.0, 0.0])
    assert math.isinf(keyl_divergence(rho, sigma))


def test_quantum_relative_entropy_known_values():
    rho = np.diag([0.75, 0.25])
    sigma = np.diag([0.5, 0.5])
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert quantum_relative_entropy(rho, sigma) == pytest.approx(want)
    e0 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    assert math.isinf(quantum_relative_entropy(e0, e1))


def test_multinomial_masses_sum_to_one():
    rng = np.random.default_rng(1)
    for d, n in [(2, 6), (3, 5), (4, 4)]:
        q = rng.dirichlet(np.ones(d))
        total = sum(multinomial_mass(q, lam) for lam in compositions(n, d))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_multinomial_mass_past_float_range_is_infinite():
    assert multinomial_mass([1e300, 1.0], [2, 0]) == math.inf


def test_sanov_bounds_hold_on_every_type():
    rng = np.random.default_rng(2)
    for d, n in [(2, 8), (3, 6)]:
        q = rng.dirichlet(np.ones(d))
        for lam in compositions(n, d):
            chk = sanov_bounds_check(q, lam, n)
            assert chk.ok
            assert chk.lower <= chk.value <= chk.upper * (1 + 1e-12)


def test_sanov_check_validates_input():
    with pytest.raises(ValueError):
        sanov_bounds_check([0.5, 0.5], [1, 2], 4)
    # q must be a distribution
    for q, message in (([-0.5, 1.5], "below 0"), ([math.nan, 1.0], "below 0 or NaN"),
                       ([0.5, 0.7], "sums to 1.2, not 1"),
                       ([1e300, 1.0], r"sums to 1e\+300, not 1")):
        with pytest.raises(ValueError, match=message):
            sanov_bounds_check(q, [1, 1], 2)


def test_sanov_off_support_type():
    chk = sanov_bounds_check([1.0, 0.0], [1, 3], 4)
    assert chk.value == 0.0 and chk.ok


def test_discrimination_sequence_sizes():
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        s = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        n = int(rng.integers(1, 40))
        lam = discrimination_sequence(list(s), n)
        assert lam.size == n
        assert lam.length <= d


def test_discrimination_sequence_tracks_spectrum():
    s = [0.6, 0.3, 0.1]
    lam = discrimination_sequence(s, 1000)
    frac = np.array(lam.padded(3)) / 1000
    assert np.abs(frac - s).sum() < 0.02


def test_discrimination_constant_hand_value():
    # d=2, s=(1/2,1/2): (1/2)^(1-3) * (prod run)^(-ceil(delta))
    # deltas (0, 1/2): only i=2 contributes with run = 1/4, exponent -1
    assert discrimination_constant([0.5, 0.5]) == pytest.approx(16.0)


def test_discrimination_ratio_bound_random_pairs():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(60):
        d = int(rng.integers(2, 4))
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        n = int(rng.integers(1, 25))
        rb = discrimination_ratio_bound(rho, sigma, n)
        assert rb.ok
        checked += 1
    assert checked == 60


def test_discrimination_ratio_exact_for_rational_spectra():
    """With spectrum q*s integral and n a multiple of q the projector ratio
    collapses to exp(-n K) with no polynomial slack."""
    rng = np.random.default_rng(23)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    rho = u @ np.diag([0.75, 0.25]) @ u.conj().T  # q = 4
    sigma = random_density(rng, 2)
    k = keyl_divergence(rho, sigma)
    for n in (4, 8, 16):
        rb = discrimination_ratio_bound(rho, sigma, n)
        assert rb.ratio == pytest.approx(math.exp(-n * k), rel=1e-8)


def test_spectrum_of_orders_and_clips():
    rho = np.diag([0.1, 0.9, 0.0])
    s = spectrum_of(rho)
    assert list(s) == pytest.approx([0.9, 0.1, 0.0])
