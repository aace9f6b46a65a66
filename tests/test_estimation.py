"""Type distributions, spectrum estimation, expectation densities, toy scheme."""
import math
from fractions import Fraction

import numpy as np
import pytest

from qrealize.estimation import (
    DensityCurve,
    TypeDistribution,
    born_ratio,
    compositions,
    density_curve,
    density_degenerate,
    density_nondegenerate,
    density_qubit_pair,
    multinomial_type_dist,
    spectral_dist,
    toy_xz_exact_bounds,
    toy_xz_exact_fractions,
    toy_xz_simulate,
)
from qrealize.divergence import multinomial_mass, spectrum_of
from qrealize.partitions import Partition, partitions_of, specht_dim, weyl_dim
from qrealize.symmetrizer import isotypic_projector, sym_projector
from qrealize.tensor import DensityOperator, Operator, haar_random_density, space

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_compositions_count_and_sums():
    for n, d in [(4, 2), (5, 3), (3, 4)]:
        rows = list(compositions(n, d))
        assert len(rows) == math.comb(n + d - 1, d - 1)
        assert all(sum(r) == n for r in rows)
        assert len(set(rows)) == len(rows)
    assert next(compositions(5, 3)) == (5, 0, 0)


def test_type_distribution_validates_mass():
    with pytest.raises(ValueError):
        TypeDistribution((((1, 0), 0.4), ((0, 1), 0.4)), 1, 2)
    dist = TypeDistribution((((1, 0), 0.25), ((0, 1), 0.75)), 1, 2)
    assert dist.prob((0, 1)) == 0.75
    assert dist.prob((2, 0)) == 0.0
    assert dist.argmax() == (0, 1)
    assert dist.mass(lambda t: t[0] > 0) == 0.25


def test_multinomial_type_dist_matches_masses():
    q = [0.5, 0.3, 0.2]
    dist = multinomial_type_dist(q, 4)
    for t, p in dist.support:
        assert p == pytest.approx(multinomial_mass(q, t))
    assert dist.mass(lambda t: True) == pytest.approx(1.0)


@pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (3, 2), (3, 3)])
def test_spectral_dist_matches_isotypic_projector_trace(d, n):
    """Independent route: p(lambda) = Tr(P_lambda rho^(x) n) with the dense
    group-averaged projector."""
    rho = haar_random_density(d, 10 * d + n)
    dist = spectral_dist(rho, n)
    big = rho.mat
    for _ in range(n - 1):
        big = np.kron(big, rho.mat)
    for lam in partitions_of(n, d):
        p_lam = isotypic_projector(lam, d, n).mat
        want = float(np.real(np.trace(p_lam @ big)))
        assert dist.prob(lam.padded(d)) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [13, 20, 30])
def test_spectral_dist_of_the_maximally_mixed_state(d, n):
    """At rho = 1/d, p(lambda) = f_lambda m_lambda(d) / d^n exactly; the
    shapes past 12 boxes and the repeated eigenvalues are where a
    Vandermonde-ratio evaluation loses the mass."""
    dist = spectral_dist([1 / d] * d, n)
    assert sum(p for _, p in dist.support) == pytest.approx(1.0, abs=1e-12)
    for lam in partitions_of(n, d):
        want = specht_dim(lam) * weyl_dim(lam, d) / d ** n
        assert dist.prob(lam.padded(d)) == pytest.approx(want, rel=1e-14)


def test_spectral_dist_of_an_operator_reads_its_hermitian_part():
    """Like every other spectrum in the package, an Operator's goes through
    its Hermitian part; its lower triangle alone would give p(4, 0) = 0.3376."""
    rho = Operator(space(("A", 2)), np.array([[0.6, 0.1], [0.0, 0.4]]))
    dist = spectral_dist(rho, 4)
    assert dist.support == spectral_dist(list(spectrum_of(rho)), 4).support
    assert dist.prob((4, 0)) == pytest.approx(0.34391, abs=1e-5)


def test_spectral_dist_accepts_spectrum_list():
    dist = spectral_dist([0.7, 0.3], 5)
    assert dist.mass(lambda t: True) == pytest.approx(1.0, abs=1e-9)
    # most likely shape leans toward the spectrum profile
    top = dist.argmax()
    assert top[0] >= top[1]


def test_spectral_dist_pure_state_concentrates_on_one_row():
    dist = spectral_dist([1.0, 0.0], 6)
    assert dist.prob((6, 0)) == pytest.approx(1.0)


def haar_expectation_samples(lam, trials, seed):
    rng = np.random.default_rng(seed)
    d = len(lam)
    z = rng.normal(size=(trials, d)) + 1j * rng.normal(size=(trials, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return (np.abs(z) ** 2) @ np.asarray(lam)


def ks_statistic(samples, cdf_grid, cdf_vals):
    samples = np.sort(samples)
    n = len(samples)
    model = np.interp(samples, cdf_grid, cdf_vals)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    return max(np.max(np.abs(emp_hi - model)), np.max(np.abs(model - emp_lo)))


def test_density_nondegenerate_qubit_is_uniform():
    # d = 2: the expectation value is uniform between the two eigenvalues
    f = density_nondegenerate([0.2, 0.8], 0.5)
    assert f == pytest.approx(1.0 / 0.6)
    assert density_nondegenerate([0.2, 0.8], 0.9) == 0.0
    assert density_nondegenerate([0.2, 0.8], 0.1) == 0.0


def test_density_nondegenerate_matches_monte_carlo():
    lam = [0.5, 0.3, 0.2]
    grid = np.linspace(0.2, 0.5, 1500)
    pdf = density_nondegenerate(lam, grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    samples = haar_expectation_samples(lam, 30_000, 4)
    assert ks_statistic(samples, grid, cdf) < 0.015


def test_density_degenerate_reduces_to_nondegenerate():
    lam = [0.5, 0.3, 0.2]
    xs = np.linspace(0.21, 0.49, 41)
    a = density_nondegenerate(lam, xs)
    b = density_degenerate([(v, 1) for v in lam], xs)
    assert np.allclose(a, b, atol=1e-9)


def test_density_degenerate_matches_monte_carlo():
    eigs = [(0.4, 2), (0.1, 2)]  # spectrum (0.4, 0.4, 0.1, 0.1)
    grid = np.linspace(0.1, 0.4, 1500)
    pdf = density_degenerate(eigs, grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    samples = haar_expectation_samples([0.4, 0.4, 0.1, 0.1], 30_000, 9)
    assert ks_statistic(samples, grid, cdf) < 0.015


def test_density_degenerate_input_validation():
    with pytest.raises(ValueError):
        density_degenerate([(0.5, 1), (0.5, 2)], 0.4)  # repeated value
    with pytest.raises(ValueError):
        density_degenerate([(1.0, 3)], 0.5)  # point mass


@pytest.mark.parametrize("lam", [[0.6, 0.4], [0.5, 0.3, 0.2],
                                 [0.4, 0.3, 0.2, 0.1], [0.30, 0.25, 0.20, 0.15, 0.10]])
def test_density_nondegenerate_normalization(lam):
    curve = density_curve(lambda t: density_nondegenerate(lam, t),
                          min(lam), max(lam))
    assert curve.total == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("eigs", [[(0.7, 1), (0.1, 3)], [(0.35, 2), (0.15, 2)],
                                  [(0.5, 2), (0.25, 1), (0.0, 1)]])
def test_density_degenerate_normalization(eigs):
    vals = [v for v, _ in eigs]
    curve = density_curve(lambda t: density_degenerate(eigs, t),
                          min(vals), max(vals))
    assert curve.total == pytest.approx(1.0, abs=1e-5)


def test_density_curve_rejects_bad_mass():
    with pytest.raises(ValueError):
        density_curve(lambda t: 1.0, 0.0, 2.0)  # integrates to 2


def test_density_qubit_pair_orthogonal_closed_form():
    # X and Z: Gram is the identity, so f = 1/(2 pi sqrt(1 - a^2 - b^2))
    for a, b in [(0.0, 0.0), (0.3, 0.4), (-0.5, 0.2)]:
        want = 1.0 / (2 * math.pi * math.sqrt(1 - a * a - b * b))
        assert density_qubit_pair(PAULI_X, PAULI_Z, (a, b)) == pytest.approx(want)
    assert density_qubit_pair(PAULI_X, PAULI_Z, (0.8, 0.7)) == 0.0


def test_density_qubit_pair_skew_pair_normalizes():
    """Non-orthogonal observables: mass still integrates to one over the
    support ellipse."""
    b_op = (PAULI_X + PAULI_Z) / math.sqrt(2)
    npts = 240
    xs = np.linspace(-1.6, 1.6, npts)
    total = 0.0
    step = xs[1] - xs[0]
    for a in xs:
        row = sum(density_qubit_pair(PAULI_X, b_op, (a, b)) for b in xs)
        total += row * step * step
    assert total == pytest.approx(1.0, abs=0.02)


def test_density_qubit_pair_validates_inputs():
    with pytest.raises(ValueError):
        density_qubit_pair(PAULI_X, PAULI_X, (0.1, 0.1))  # dependent
    with pytest.raises(ValueError):
        density_qubit_pair(np.eye(2), PAULI_Z, (0.0, 0.0))  # not traceless


def sym_ratio_oracle(pmat, qmat, n):
    """Born ratio through normalized symmetrizer traces."""
    d = pmat.shape[0]

    def avg_trace(ops):
        k = len(ops)
        pi = sym_projector(d, k).mat
        big = ops[0]
        for o in ops[1:]:
            big = np.kron(big, o)
        return np.real(np.trace(pi @ big)) / math.comb(k + d - 1, k)

    num = avg_trace([pmat] * n + [qmat]) if n else avg_trace([qmat])
    den = avg_trace([pmat] * n) if n else 1.0
    return num / den


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_born_ratio_matches_symmetrizer_oracle(d, n):
    rng = np.random.default_rng(d * 100 + n)
    rank = int(rng.integers(1, d + 1))
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    pmat = u[:, :rank] @ u[:, :rank].conj().T
    q = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    qmat = q + q.conj().T
    got = born_ratio(pmat, qmat, n)
    assert got == pytest.approx(sym_ratio_oracle(pmat, qmat, n), abs=1e-10)


def test_born_ratio_endpoints():
    p = np.diag([1.0, 1.0, 0.0])
    q_id = np.eye(3)
    assert born_ratio(p, q_id, 7) == pytest.approx(1.0)
    assert born_ratio(p, np.diag([1.0, 0.0, 0.0]), 0) == pytest.approx(1.0 / 3)
    # rank-one outcome orthogonal to the observed support: floor 1/(d+n)
    q_orth = np.diag([0.0, 0.0, 1.0])
    for n in (1, 5, 20):
        assert born_ratio(p, q_orth, n) == pytest.approx(1.0 / (3 + n))


def test_born_ratio_validates_projector():
    with pytest.raises(ValueError):
        born_ratio(np.diag([0.5, 0.5]), np.eye(2), 1)
    with pytest.raises(ValueError):
        born_ratio(np.zeros((2, 2)), np.eye(2), 1)


def test_toy_xz_simulate_shape_and_determinism():
    a = toy_xz_simulate(8, 500, seed=3)
    b = toy_xz_simulate(8, 500, seed=3)
    assert a.shape == (500, 2)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0 + 1e-12)
    # isotropy: both estimator coordinates are centered
    assert abs(a[:, 0].mean()) < 0.1
    assert abs(a[:, 1].mean()) < 0.1


def test_toy_xz_simulate_concentrates_with_many_shots():
    small = toy_xz_simulate(4, 2000, seed=1)
    large = toy_xz_simulate(400, 2000, seed=1)
    # estimator second moment approaches the sphere moment 1/3 from above
    assert large[:, 0].var() < small[:, 0].var()
    assert large[:, 0].var() == pytest.approx(1 / 3, abs=0.03)


def test_toy_xz_exact_bounds_m2_closed_forms():
    res = toy_xz_exact_bounds(2)
    # sphere moments: E z^2 = 1/3, E x^2 z^2 = 1/15
    assert res.corner_prob == pytest.approx(13.0 / 120.0, abs=1e-9)
    assert res.balanced_prob == pytest.approx(0.1, abs=1e-9)
    assert res.balanced_bound == pytest.approx(0.25)


def _toy_xz_by_quadrature(m):
    """Corner and balanced averages by Gauss-Legendre in z (m+1 nodes) times
    an equally spaced azimuth grid (2m+1 points): exact for these integrands,
    which are polynomials of degree 2m in z and of degree m in cos(phi)."""
    z, w = np.polynomial.legendre.leggauss(m + 1)
    phi = 2 * np.pi * np.arange(2 * m + 1) / (2 * m + 1)
    x = np.sqrt(1 - z * z)[:, None] * np.cos(phi)[None, :]
    zz = z[:, None]
    corner = (((1 + zz) / 2) ** m * ((1 + x) / 2) ** m).mean(axis=1) @ w / 2
    if m % 2:
        return corner, 0.0
    h = m // 2
    balanced = (((1 - zz * zz) / 4) ** h * ((1 - x * x) / 4) ** h).mean(axis=1) @ w / 2
    return corner, math.comb(m, h) ** 2 * balanced


def test_toy_xz_exact_bounds_match_exact_quadrature():
    for m in range(1, 31):
        res = toy_xz_exact_bounds(m)
        corner, balanced = _toy_xz_by_quadrature(m)
        assert res.corner_prob == pytest.approx(corner, rel=1e-12, abs=0.0), m
        assert res.balanced_prob == pytest.approx(balanced, rel=1e-12, abs=0.0), m


def test_toy_xz_exact_fractions_are_the_reported_values():
    assert toy_xz_exact_fractions(2) == (Fraction(13, 120), Fraction(1, 10))
    corner, balanced = toy_xz_exact_fractions(20)
    res = toy_xz_exact_bounds(20)
    assert (res.corner_prob, res.balanced_prob) == (float(corner), float(balanced))
    assert f"{res.balanced_prob:.5g}" == "0.0015161"


def test_toy_xz_corner_bound_holds():
    for m in range(1, 9):
        res = toy_xz_exact_bounds(m)
        assert res.corner_prob <= res.corner_bound + 1e-12
        assert res.corner_prob > 0.0


def test_toy_xz_odd_m_has_no_balanced_entry():
    res = toy_xz_exact_bounds(3)
    assert res.balanced_prob == 0.0 and res.balanced_bound == 0.0
