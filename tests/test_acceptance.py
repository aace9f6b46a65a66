"""Acceptance gate: one test per release criterion, stated tolerances inline.

Each test is numbered so `pytest -v` reports one pass/fail line per
criterion.  All randomness is seeded; runtime ceilings are asserted where a
criterion states one.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats

from qrealize import (
    DensityOperator,
    MProductState,
    Operator,
    approx_partition,
    bibiriffle_lower_bound,
    bipartite_check,
    biriffle_bruteforce,
    biriffle_value,
    capacity,
    compositions,
    density_degenerate,
    density_nondegenerate,
    density_qubit_pair,
    discrimination_ratio_bound,
    double_cosets,
    hierarchy_check,
    haar_random_density,
    haar_random_pure_on,
    keyl_divergence,
    kl_divergence,
    lr_inequality_check,
    marginals_of,
    born_ratio,
    occasionality_probe,
    quantum_relative_entropy,
    sanov_bounds_check,
    scenario,
    space,
    spectral_dist,
    sym_projector,
    symmetrize_operator,
    three_qubit_witness,
    torus_rep,
    toy_xz_exact_bounds,
    toy_xz_exact_fractions,
    traced_symmetrizer,
)
from qrealize.estimation import density_curve


def two_qubit(mat) -> DensityOperator:
    return DensityOperator(Operator(space(("L", 2), ("R", 2)), np.asarray(mat, dtype=complex)))


SINGLET = two_qubit([[0, 0, 0, 0], [0, .5, -.5, 0], [0, -.5, .5, 0], [0, 0, 0, 0]])
ANTICORR = two_qubit(np.diag([0.0, 0.5, 0.5, 0.0]))
MIXED2 = two_qubit(np.eye(4) / 4)
P00 = two_qubit(np.diag([1.0, 0.0, 0.0, 0.0]))
P11 = two_qubit(np.diag([0.0, 0.0, 0.0, 1.0]))


def random_sym_psd(rng, d, n):
    dim = d ** n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return symmetrize_operator(m @ m.conj().T, d)


def test_c01_three_qubit_witness_exact_values():
    start = time.time()
    cases = [
        ((SINGLET, SINGLET, SINGLET), 2.0 ** -4),
        ((ANTICORR, ANTICORR, ANTICORR), 2.0 ** -5),
        ((MIXED2, MIXED2, MIXED2), 2.0 ** -6),
        ((P00, P11, P00), 0.0),
    ]
    for rhos, want in cases:
        assert three_qubit_witness(*rhos) == pytest.approx(want, abs=1e-10)
    assert time.time() - start < 1.0


def test_c02_disjoint_level1_symmetrizer_value_and_domination():
    ws = traced_symmetrizer((("A", 2), ("B", 2)), (("A",), ("B",)), 1)
    mat = ws.to_matrix()
    assert np.max(np.abs(mat - 2.5 * np.eye(4))) < 1e-10
    assert float(np.linalg.eigvalsh((mat + mat.conj().T) / 2 - np.eye(4))[0]) >= -1e-10


def test_c03_hierarchy_soundness_on_haar_joints():
    start = time.time()
    scenarios = [
        scenario((("A", 2), ("B", 2)), ("A", "B")),
        scenario((("A", 2), ("B", 3)), ("A", "B")),
        scenario((("A", 2), ("B", 2), ("C", 2)), ("AB", "BC")),
        scenario((("A", 2), ("B", 2), ("C", 2)), ("AB", "AC", "BC")),
    ]
    violations = []
    for si, scen in enumerate(scenarios):
        for i in range(200):
            psi = haar_random_pure_on(scen.joint, 1000 * si + i)
            state = marginals_of(psi, scen)
            for n in (1, 2):
                cert = hierarchy_check(state, n)
                if cert.violated:
                    violations.append((repr(scen), i, n, cert.gap))
    assert violations == []
    assert time.time() - start < 600.0


def test_c04_hierarchy_detects_singlet_triple():
    start = time.time()
    scen = scenario((("A", 2), ("B", 2), ("C", 2)), ("AB", "AC", "BC"))
    rho = DensityOperator(Operator(space(("A", 2), ("B", 2)), SINGLET.mat))

    def pair(a, b):
        return DensityOperator(Operator(space((a, 2), (b, 2)), SINGLET.mat))

    state = MProductState(scen, (pair("A", "B"), pair("A", "C"), pair("B", "C")))
    cert = hierarchy_check(state, 1)
    assert cert.violated
    assert cert.gap <= -1e-3
    assert cert.witness is not None
    assert time.time() - start < 10.0


def test_c05_biriffle_matches_bruteforce_and_coset_counts():
    start = time.time()
    rng = np.random.default_rng(101)
    combos = [(d, n, k) for d in (1, 2) for n in (1, 2) for k in (1, 2, 3)]
    for i in range(20):
        d, n, k = combos[i % len(combos)]
        xs = [random_sym_psd(rng, d, n) for _ in range(k)]
        assert biriffle_value(xs, d) == pytest.approx(
            biriffle_bruteforce(xs, d), abs=1e-10)
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            assert sum(card for _, card, _ in double_cosets(n, k)) \
                == math.factorial(n * k)
    assert time.time() - start < 60.0


def test_c06_bibiriffle_lower_bound_holds():
    start = time.time()
    rng = np.random.default_rng(77)
    combos = [(d, n) for d in (2, 3) for n in (1, 2, 3)]
    for i in range(100):
        d, n = combos[i % len(combos)]
        p_n, bound = bibiriffle_lower_bound(
            random_sym_psd(rng, d, n), random_sym_psd(rng, d, n), d)
        assert p_n >= bound - 1e-12
    assert time.time() - start < 60.0


def test_c07_sanov_envelope_every_type():
    start = time.time()
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 21))
        q = rng.dirichlet(np.ones(d))
        for t in compositions(n, d):
            assert sanov_bounds_check(q, t, n).ok
    assert time.time() - start < 60.0


def test_c08_keyl_divergence_suite():
    start = time.time()
    rng = np.random.default_rng(55)

    def haar_unitary(d):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    # commuting case reduces to KL on the rho-ordered spectra
    for _ in range(20):
        d = int(rng.integers(2, 5))
        u = haar_unitary(d)
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        rho = u @ np.diag(p) @ u.conj().T
        sig = u @ np.diag(q) @ u.conj().T
        order = np.argsort(-p)
        assert keyl_divergence(rho, sig) == pytest.approx(
            kl_divergence(p[order], q[order]), abs=1e-10)

    for d in (2, 3, 4):
        rho = haar_random_density(d, 900 + d).mat
        assert abs(keyl_divergence(rho, rho)) < 1e-10

    # dominated by the quantum relative entropy
    count = 0
    while count < 500:
        d = 2 + count % 3
        rho = haar_random_density(d, rng).mat
        sig = haar_random_density(d, rng).mat
        assert keyl_divergence(rho, sig) <= quantum_relative_entropy(rho, sig) + 1e-9
        count += 1

    # finite-n discrimination ratio bound
    for i in range(100):
        d = 2 + i % 2
        rho = haar_random_density(d, rng).mat
        sig = haar_random_density(d, rng).mat
        n = 1 + int(rng.integers(0, 30))
        assert discrimination_ratio_bound(rho, sig, n).ok

    # rational spectrum: the ratio collapses to exp(-n K) exactly
    u = haar_unitary(2)
    rho = u @ np.diag([0.75, 0.25]) @ u.conj().T
    sig = haar_random_density(2, rng).mat
    k = keyl_divergence(rho, sig)
    for n in (4, 8, 16):
        assert discrimination_ratio_bound(rho, sig, n).ratio == pytest.approx(
            math.exp(-n * k), rel=1e-8)
    assert time.time() - start < 120.0


def test_c09_approx_partition_size_bounds_and_tight_instance():
    start = time.time()
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 51))
        s = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        lam = approx_partition(s, n)
        size = sum(lam.parts)
        assert n <= size <= n + math.comb(d + 1, 2) - 1
    d = 4
    s = [v / math.comb(d + 1, 2) for v in range(d, 0, -1)]
    lam = approx_partition(s, 1)
    assert sum(lam.parts) == 1 + math.comb(d + 1, 2) - 1
    assert time.time() - start < 10.0


def test_c10_spectral_estimation_normalization_mode_and_concentration():
    start = time.time()
    s = (0.6, 0.3, 0.1)
    for n in range(1, 51):
        dist = spectral_dist(s, n)
        assert dist.mass(lambda t: True) == pytest.approx(1.0, abs=1e-9)
    top = spectral_dist(s, 50).argmax()
    assert sum(abs(v / 50 - w) for v, w in zip(top, s)) <= 0.1
    masses = []
    for n in (20, 50, 100):
        dist = spectral_dist(s, n)
        masses.append(dist.mass(
            lambda t: sum(abs(v / n - w) for v, w in zip(t, s)) <= 0.15))
    assert masses[0] <= masses[1] + 1e-12
    assert masses[1] <= masses[2] + 1e-12
    assert time.time() - start < 120.0


def test_c11_density_normalization_and_monte_carlo():
    start = time.time()
    rng = np.random.default_rng(0)

    # unit mass, nondegenerate spectra up to d = 5
    for d in (2, 3, 4, 5):
        lam = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        curve = density_curve(lambda t: density_nondegenerate(lam, t),
                              float(lam[-1]), float(lam[0]))
        assert abs(curve.total - 1.0) <= 1e-5

    # unit mass, degenerate spectra up to total dimension 4
    for eigs in [[(0.8, 1), (0.1, 2)], [(0.35, 2), (0.15, 2)],
                 [(0.4, 2), (0.2, 1), (0.0, 1)], [(1.0, 1), (0.0, 3)]]:
        vals = [v for v, _ in eigs]
        curve = density_curve(lambda t: density_degenerate(eigs, t),
                              min(vals), max(vals))
        assert abs(curve.total - 1.0) <= 1e-5

    # qubit density is uniform between the eigenvalues
    for x in (0.25, 0.4, 0.75):
        assert density_nondegenerate([0.8, 0.2], x) == pytest.approx(1 / 0.6)
    assert density_nondegenerate([0.8, 0.2], 0.1) == 0.0

    # rank-one projector in d = 3 against Monte Carlo, KS < 0.01 at 1e5
    eigs = [(1.0, 1), (0.0, 2)]
    grid = np.linspace(0.0, 1.0, 4001)
    pdf = density_degenerate(eigs, grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    z = rng.normal(size=(100_000, 3)) + 1j * rng.normal(size=(100_000, 3))
    samples = np.sort(np.abs(z[:, 0]) ** 2 / np.sum(np.abs(z) ** 2, axis=1))
    model = np.interp(samples, grid, cdf)
    steps = np.arange(100_000)
    ks = max(np.max((steps + 1) / 1e5 - model), np.max(model - steps / 1e5))
    assert ks < 0.01

    # X/Z joint density: code equals the closed form pointwise...
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    pauli_z = np.diag([1.0, -1.0])
    for a, b in [(0.0, 0.0), (0.3, -0.4), (-0.6, 0.5), (0.1, 0.9)]:
        want = 1.0 / (2 * math.pi * math.sqrt(1 - a * a - b * b))
        assert density_qubit_pair(pauli_x, pauli_z, (a, b)) == pytest.approx(
            want, rel=1e-12)
    # ...and the closed form matches 1e6 Haar samples on a 50x50 grid
    nb = 50
    edges = np.linspace(-1.0, 1.0, nb + 1)
    agrid = np.linspace(-1.0, 1.0, 40001)
    rad = np.sqrt(np.clip(1.0 - agrid ** 2, 0.0, None))
    cdf2 = np.zeros((nb + 1, nb + 1))
    for j, b_edge in enumerate(edges):
        ratio = np.where(rad > 0, b_edge / np.where(rad > 0, rad, 1.0),
                         np.sign(b_edge))
        integrand = (np.arcsin(np.clip(ratio, -1.0, 1.0)) + np.pi / 2) / (2 * np.pi)
        cum = np.concatenate(
            [[0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2 * np.diff(agrid))])
        cdf2[:, j] = np.interp(edges, agrid, cum)
    prob = cdf2[1:, 1:] - cdf2[:-1, 1:] - cdf2[1:, :-1] + cdf2[:-1, :-1]
    prob = np.clip(prob, 0.0, None)
    prob /= prob.sum()
    pts = np.random.default_rng(0).normal(size=(1_000_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 2], bins=[edges, edges])
    expected = 1e6 * prob
    mask = expected >= 5.0
    chi2 = float((((hist[mask] - expected[mask]) ** 2) / expected[mask]).sum())
    cells = int(mask.sum())
    rest_e = 1e6 - expected[mask].sum()
    if rest_e > 0:
        chi2 += (1e6 - hist[mask].sum() - rest_e) ** 2 / rest_e
        cells += 1
    assert stats.chi2.sf(chi2, cells - 1) > 0.01
    assert time.time() - start < 300.0


def test_c12_born_ratio_oracle_and_endpoints():
    start = time.time()
    rng = np.random.default_rng(12)

    def oracle(pmat, qmat, n):
        d = pmat.shape[0]

        def avg(ops):
            k = len(ops)
            pi = sym_projector(d, k).dense.mat
            big = ops[0]
            for o in ops[1:]:
                big = np.kron(big, o)
            return np.real(np.trace(pi @ big)) / math.comb(k + d - 1, k)

        den = avg([pmat] * n) if n else 1.0
        return avg([pmat] * n + [qmat]) / den

    for i in range(20):
        d = 2 + i % 2
        n = i % 5
        rank = 1 + i % d
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        pmat = u[:, :rank] @ u[:, :rank].conj().T
        q = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        qmat = q + q.conj().T
        assert born_ratio(pmat, qmat, n) == pytest.approx(
            oracle(pmat, qmat, n), abs=1e-10)

    q3 = np.diag([0.2, -0.7, 1.3])
    assert born_ratio(np.diag([1.0, 1.0, 0.0]), q3, 0) == pytest.approx(
        np.trace(q3) / 3, abs=1e-12)
    assert born_ratio(np.diag([1.0, 0.0]), np.eye(2), 9) == pytest.approx(1.0, abs=1e-12)
    for n in (1, 4, 11):
        assert born_ratio(np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]), n) \
            == pytest.approx(1.0 / (3 + n), abs=1e-12)
    assert time.time() - start < 60.0


def test_c13_toy_xz_corner_and_balanced_bounds():
    start = time.time()
    results = {m: toy_xz_exact_bounds(m) for m in range(1, 21)}
    for m, res in results.items():
        assert res.corner_prob <= ((3 + 2 * math.sqrt(2)) / 8) ** m + 1e-12
    for m in range(2, 21, 2):
        res = results[m]
        assert res.balanced_prob >= 1 / (2 * m), (
            f"balanced estimate probability at m={m} is {res.balanced_prob:.6g} "
            f"(exactly {toy_xz_exact_fractions(m)[1]}), "
            f"below the required floor {1 / (2 * m):.6g}")
    assert time.time() - start < 60.0


def test_c14_capacity_prototype_and_hull_dichotomy():
    start = time.time()
    rng = np.random.default_rng(14)
    rep2 = torus_rep([(1,), (-1,)])
    for _ in range(100):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        while min(abs(v)) < 1e-3:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
        res = capacity(rep2, v)
        want = math.sqrt(2 * abs(v[0]) * abs(v[1]))
        assert res.value == pytest.approx(want, rel=1e-6)
        assert np.linalg.norm(res.moment) < 1e-6

    # dichotomy on constructed instances: 25 with 0 inside the hull, 25 without
    inside = outside = 0
    while inside < 25:
        k = int(rng.integers(1, 4))
        ws = set()
        for _ in range(k):
            w = tuple(int(c) for c in rng.integers(-3, 4, size=2))
            ws.add(w)
            ws.add((-w[0], -w[1]))
        ws = sorted(ws)
        res = capacity(torus_rep(ws), np.ones(len(ws)))
        assert res.value > 0 and not res.unbounded
        inside += 1
    while outside < 25:
        k = int(rng.integers(2, 6))
        ws = {(int(rng.integers(1, 5)), int(c)) for c in rng.integers(-3, 4, size=k)}
        ws = sorted(ws)
        res = capacity(torus_rep(ws), np.ones(len(ws)))
        assert res.value == 0.0 and res.unbounded
        outside += 1
    assert time.time() - start < 60.0


def test_c15_occasionality_prototype_and_control():
    start = time.time()
    rep = torus_rep([(1,), (-1,)])
    table = occasionality_probe(rep, [1.0, 1.0], [400])
    scaled = table.rows[0][2]
    assert table.verdict == "OCCASIONAL"
    assert abs(scaled - math.sqrt(2 / math.pi)) <= 0.02 * math.sqrt(2 / math.pi)

    control = occasionality_probe(rep, [1.0, 0.0], [2, 4, 8])
    assert control.verdict == "EXPONENTIAL_DECAY"
    assert all(p == 0.0 for _, p, _ in control.rows)
    assert time.time() - start < 10.0


def test_c16_bipartite_rates_and_lr_inequalities():
    start = time.time()
    rng = np.random.default_rng(16)

    # equal-spectrum pairs: consistent at levels 1 and 2, zero rate
    scen = scenario((("A", 2), ("B", 2)), ("A", "B"))
    for i in range(10):
        psi = haar_random_pure_on(scen.joint, 400 + i)
        state = marginals_of(psi, scen)
        for n in (1, 2):
            assert not hierarchy_check(state, n).violated
        res = bipartite_check(state.marginals[0], state.marginals[1])
        assert res.realizable and res.rate == pytest.approx(0.0, abs=1e-10)

    # unequal pairs: rate matches a grid oracle and dominates Pinsker
    def grid_rate(pa, pb):
        ts = np.linspace(1e-9, 1 - 1e-9, 2001)
        best = math.inf
        for t in ts:
            r = np.array([t, 1 - t])
            best = min(best, kl_divergence(pa, r) + kl_divergence(pb, r))
        return best

    pairs = [((0.8, 0.2), (0.6, 0.4))]
    for _ in range(9):
        pairs.append((tuple(np.sort(rng.dirichlet([1, 1]))[::-1]),
                      tuple(np.sort(rng.dirichlet([1, 1]))[::-1])))
    for pa, pb in pairs:
        if max(abs(a - b) for a, b in zip(pa, pb)) < 1e-3:
            continue
        ra = DensityOperator(Operator(space(("A", 2)), np.diag(pa).astype(complex)))
        rb = DensityOperator(Operator(space(("B", 2)), np.diag(pb).astype(complex)))
        res = bipartite_check(ra, rb)
        assert not res.realizable and res.rate > 0
        assert res.rate == pytest.approx(grid_rate(np.asarray(pa), np.asarray(pb)),
                                         abs=1e-4)
        assert res.rate >= res.pinsker_bound - 1e-9

    # Littlewood-Richardson constraints hold for realizable qubit-qutrit pairs
    scen23 = scenario((("A", 2), ("B", 3)), ("A", "B"))
    for i in range(50):
        psi = haar_random_pure_on(scen23.joint, 700 + i)
        state = marginals_of(psi, scen23)
        for n in (1, 2, 3):
            rows = lr_inequality_check(state.marginals[0], state.marginals[1], n)
            assert all(row.ok for row in rows)
    assert time.time() - start < 300.0
