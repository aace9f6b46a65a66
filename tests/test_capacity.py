"""Torus capacities, weight hulls, fixed subspaces, occasionality decay."""
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qrealize.capacity import (
    capacity,
    fixed_subspace_projector,
    hull_membership,
    kempf_ness,
    moment_map,
    occasionality_probe,
    torus_rep,
)
from qrealize.config import BUDGET, ResourceBudgetError
from qrealize.divergence import multinomial_mass
from qrealize.tensor import _kron_power


def test_torus_rep_validation():
    rep = torus_rep([(1, 0), (0, 1), (-1, -1)])
    assert rep.rank == 2 and rep.dim == 3
    with pytest.raises(ValueError):
        torus_rep([(1,), (1,)])  # repeated weight
    with pytest.raises(ValueError):
        torus_rep([(1, 0), (1,)])  # ragged ranks
    with pytest.raises(ValueError):
        torus_rep([(1,)], block_sizes=[0])


def test_torus_rep_blocks_expand_coordinates():
    rep = torus_rep([(2,), (-1,)], block_sizes=[1, 3])
    assert rep.dim == 4
    assert rep.coordinate_weights().tolist() == [[2], [-1], [-1], [-1]]


def test_moment_map_closed_form():
    rep = torus_rep([(1, 0), (0, 1)])
    mu = moment_map(rep, [1.0, 2.0])
    assert mu == pytest.approx([0.2, 0.8])
    with pytest.raises(ValueError):
        moment_map(rep, [0.0, 0.0])


def test_moment_map_lies_in_weight_hull():
    rep = torus_rep([(1, 1), (1, -1), (-2, 0)])
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        mu = moment_map(rep, v)
        assert hull_membership(rep.weights, mu).inside


def test_kempf_ness_derivatives_match_finite_differences():
    rep = torus_rep([(1, 2), (-1, 0), (0, -3), (2, 1)])
    rng = np.random.default_rng(11)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    x = rng.normal(size=2) * 0.3
    value, grad, hess = kempf_ness(rep, v, x)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (kempf_ness(rep, v, x + e)[0] - kempf_ness(rep, v, x - e)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5)
        fd2 = (np.asarray(kempf_ness(rep, v, x + e)[1])
               - np.asarray(kempf_ness(rep, v, x - e)[1])) / (2 * h)
        assert hess[:, i] == pytest.approx(fd2, rel=1e-5, abs=1e-6)


def test_kempf_ness_hessian_positive_semidefinite():
    rep = torus_rep([(1, 0, 2), (0, 1, -1), (-1, -1, 0), (2, -2, 1)])
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        x = rng.normal(size=3)
        hess = kempf_ness(rep, v, x)[2]
        assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 0.5), (0.3, 1.7)])
def test_capacity_two_point_prototype(a, b):
    # g(x) = a^2 e^x + b^2 e^-x has minimum 2ab, so the capacity is sqrt(2ab)
    rep = torus_rep([(1,), (-1,)])
    res = capacity(rep, [a, b])
    assert res.value == pytest.approx(math.sqrt(2 * a * b), rel=1e-8)
    assert not res.unbounded
    assert np.linalg.norm(res.moment) <= 1e-8


def test_capacity_balanced_vector_keeps_norm():
    # moment map already zero: the infimum is attained at the identity
    rep = torus_rep([(1,), (-1,)])
    res = capacity(rep, [1.0, 1.0])
    assert res.value == pytest.approx(math.sqrt(2.0))
    assert np.linalg.norm(res.minimizer) < 1e-6


def test_capacity_invariant_under_torus_action():
    rep = torus_rep([(1, 0), (0, 1), (-1, -1), (1, -1)])
    rng = np.random.default_rng(17)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    base = capacity(rep, v).value
    wmat = np.array(rep.weights, dtype=float)
    for s in ([0.3, -0.2], [-1.0, 0.5]):
        moved = np.exp(wmat @ np.asarray(s)) * v
        assert capacity(rep, moved).value == pytest.approx(base, rel=1e-6)


def test_capacity_unbounded_with_separator():
    # all supported weights strictly positive: the orbit runs to zero
    rep = torus_rep([(1,), (2,)])
    res = capacity(rep, [1.0, 1.0])
    assert res.unbounded and res.value == 0.0 and res.minimizer is None
    sep = np.asarray(res.separator)
    assert min(float(sep @ np.array(w, dtype=float)) for w in rep.weights) > 0


def test_capacity_ignores_unsupported_weights():
    # the negative weight carries no mass, so the hull test sees only {1, 2}
    rep = torus_rep([(1,), (2,), (-5,)])
    res = capacity(rep, [1.0, 1.0, 0.0])
    assert res.unbounded and res.value == 0.0


def test_capacity_result_json_round_trip():
    import json

    rep = torus_rep([(1,), (-1,)])
    doc = capacity(rep, [1.0, 2.0]).to_json()
    assert set(doc) == {"capacity", "minimizer", "moment_map", "unbounded"}
    json.dumps(doc)
    doc0 = capacity(torus_rep([(1,)]), [1.0]).to_json()
    assert doc0["unbounded"] is True and doc0["minimizer"] is None


# ---------------------------------------------------------------------------
# Hull membership against a Caratheodory oracle


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_oracle_2d(weights, target) -> bool:
    """Exact 2-D membership: vertex, segment, or nondegenerate triangle."""
    pts = [tuple(Fraction(c) for c in w) for w in weights]
    t = tuple(Fraction(c) for c in target)
    if t in pts:
        return True
    for a, b in itertools.combinations(pts, 2):
        if (_cross(t, a, b) == 0
                and min(a[0], b[0]) <= t[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= t[1] <= max(a[1], b[1])):
            return True
    for a, b, c in itertools.combinations(pts, 3):
        if _cross(a, b, c) == 0:
            continue
        d1, d2, d3 = _cross(t, a, b), _cross(t, b, c), _cross(t, c, a)
        if not (min(d1, d2, d3) < 0 and max(d1, d2, d3) > 0):
            return True
    return False


def test_hull_membership_matches_oracle_on_random_integer_instances():
    rng = np.random.default_rng(23)
    seen_inside = seen_outside = 0
    for _ in range(40):
        k = int(rng.integers(2, 8))
        ws = list({tuple(int(c) for c in row)
                   for row in rng.integers(-4, 5, size=(k, 2))})
        tgt = tuple(int(c) for c in rng.integers(-5, 6, size=2))
        res = hull_membership(ws, tgt)
        assert res.inside == hull_oracle_2d(ws, tgt)
        if res.inside:
            seen_inside += 1
            coeffs = np.asarray(res.coefficients)
            assert np.all(coeffs >= -1e-12)
            assert coeffs.sum() == pytest.approx(1.0, abs=1e-9)
            recon = coeffs @ np.array(ws, dtype=float)
            assert recon == pytest.approx(np.array(tgt, dtype=float), abs=1e-9)
        else:
            seen_outside += 1
            sep = np.asarray(res.separator)
            assert res.margin > 0
            worst = min(float(sep @ np.array(w, dtype=float)) for w in ws)
            assert float(sep @ np.array(tgt, dtype=float)) + res.margin <= worst + 1e-9
    assert seen_inside > 5 and seen_outside > 5


def test_hull_membership_rank_one_cases():
    assert hull_membership([(2,), (4,)], (3,)).inside
    assert hull_membership([(2,), (4,)], (4,)).inside
    assert not hull_membership([(2,), (4,)], (1,)).inside
    assert not hull_membership([(2,), (4,)], (5,)).inside


def test_hull_membership_non_integral_targets_match_oracle():
    ws = [(1, 1), (3, -1), (-1, -3), (-2, 2)]
    for tgt in [(0.5, 0.5), (1.5, -0.5), (2.5, 2.5), (-1.5, 0.5)]:
        got = hull_membership(ws, tgt).inside
        want = hull_oracle_2d(ws, tgt)
        assert got == want, (tgt, got, want)


UNIT_SIMPLEX_3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_hull_membership_near_boundary_outside_target():
    # the coordinates sum to 1.00001: outside by 1e-5 / sqrt(3)
    tgt = (0.3, 0.3, 0.40001)
    res = hull_membership(UNIT_SIMPLEX_3, tgt)
    assert not res.inside and res.coefficients is None
    assert res.margin > 0
    assert res.margin == pytest.approx((sum(map(Fraction, tgt)) - 1) / math.sqrt(3), rel=1e-12)
    sep = np.asarray(res.separator)
    assert np.linalg.norm(sep) == pytest.approx(1.0)
    along = sep @ np.array(UNIT_SIMPLEX_3, dtype=float).T
    assert float(sep @ np.array(tgt)) < along.min()


def test_hull_membership_near_boundary_inside_target():
    tgt = (0.3, 0.3, 0.39999)
    res = hull_membership(UNIT_SIMPLEX_3, tgt)
    assert res.inside and res.separator is None
    coeffs = np.asarray(res.coefficients)
    assert np.all(coeffs >= 0) and coeffs.sum() == pytest.approx(1.0, abs=1e-12)
    recon = coeffs @ np.array(UNIT_SIMPLEX_3, dtype=float)
    assert recon == pytest.approx(np.array(tgt), abs=1e-12)


def test_hull_membership_float_target_is_its_dyadic_rational():
    ws = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    exact = hull_membership(ws, (Fraction(1, 5),) * 5)
    assert exact.inside and exact.coefficients == (0.2,) * 5
    # five float 0.2s sum to 1 + 5.6e-17, just off the simplex
    res = hull_membership(ws, (0.2,) * 5)
    assert not res.inside and res.margin > 0
    res = hull_membership(ws, (2, 0, 0, 0, 0))
    assert not res.inside and res.margin > 0


@pytest.mark.parametrize("weights", [[(0.5,), (0.7,)], [(0, 1), (1, 1.5)], [("a",), (1,)]])
def test_fractional_weights_are_rejected(weights):
    with pytest.raises(ValueError, match="is not an integer vector"):
        hull_membership(weights, (0,) * len(weights[0]))
    with pytest.raises(ValueError, match="is not an integer vector"):
        torus_rep(weights)


def test_integral_float_weights_are_accepted():
    assert torus_rep([(1.0,), (np.int64(-2),)]).weights == ((1,), (-2,))


@pytest.mark.parametrize("blocks,bad", [([1.7, 1], "1.7"), ([1, 1.5], "1.5"), (["2", 1], "2")])
def test_fractional_block_sizes_are_rejected(blocks, bad):
    with pytest.raises(ValueError, match=f"block size {bad} is not an integer"):
        torus_rep([(1,), (-1,)], blocks)


def test_integral_float_block_sizes_are_accepted():
    assert torus_rep([(1,), (-1,)], [2.0, np.int64(1)]).block_sizes == (2, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hull_membership_rejects_non_finite_target(bad):
    with pytest.raises(ValueError, match=f"target coordinate {bad} is not finite"):
        hull_membership([(0, 0), (1, 0), (0, 1)], (0.5, bad))


# ---------------------------------------------------------------------------
# Fixed subspaces


def test_fixed_subspace_torus_diagonal_mask():
    rep = torus_rep([(1,), (-1,)])
    proj = fixed_subspace_projector(rep, 2)
    assert proj.mat.dtype == np.float64
    assert np.array_equal(proj.mat, np.diag([0.0, 1.0, 1.0, 0.0]))
    odd = fixed_subspace_projector(rep, 3)
    assert np.max(np.abs(odd.mat)) == 0.0


def test_fixed_subspace_group_average():
    x_gate = np.array([[0.0, 1.0], [1.0, 0.0]])
    proj = fixed_subspace_projector([np.eye(2), x_gate], 1)
    assert proj.mat.dtype == np.float64
    assert np.max(np.abs(proj.mat @ proj.mat - proj.mat)) < 1e-12
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    assert proj.mat @ plus == pytest.approx(plus)
    assert np.real(np.trace(proj.mat)) == pytest.approx(1.0)


def test_fixed_subspace_group_matches_torus_sampling():
    # the diagonal weights (0,), (1,) sampled at fourth roots of unity fix
    # the same subspace as the full circle for n <= 3
    group = [np.diag([1.0, 1j ** k]) for k in range(4)]
    rep = torus_rep([(0,), (1,)])
    for n in (1, 2, 3):
        a = fixed_subspace_projector(group, n)
        b = fixed_subspace_projector(rep, n)
        assert np.max(np.abs(a.mat - b.mat)) < 1e-12


def test_fixed_subspace_rejects_unclosed_set():
    with pytest.raises(ValueError):
        fixed_subspace_projector([np.eye(2), np.diag([1.0, 1j])], 1)


def test_fixed_subspace_budget_guard():
    rep = torus_rep([(1,), (-1,)])
    with pytest.raises(ResourceBudgetError):
        fixed_subspace_projector(rep, 5, budget=BUDGET.with_(dense_dim=16))


# ---------------------------------------------------------------------------
# Occasionality probe


def test_occasionality_balanced_walk_prototype():
    rep = torus_rep([(1,), (-1,)])
    psi = [1.0, 1.0]
    table = occasionality_probe(rep, psi, [2, 4, 6, 8, 9])
    assert table.verdict == "OCCASIONAL"
    assert table.exponent == 1
    probs = dict((n, p) for n, p, _ in table.rows)
    for n in (2, 4, 6, 8):
        assert probs[n] == pytest.approx(math.comb(n, n // 2) / 2 ** n, rel=1e-12)
    assert probs[9] == 0.0


def test_occasionality_scaled_column_converges():
    rep = torus_rep([(1,), (-1,)])
    table = occasionality_probe(rep, [1.0, 1.0], [40, 100, 200])
    scaled = [s for _, _, s in table.rows]
    # sqrt(n) C(n, n/2) / 2^n increases toward sqrt(2/pi)
    assert scaled[0] < scaled[1] < scaled[2] < math.sqrt(2 / math.pi)
    assert scaled[-1] == pytest.approx(math.sqrt(2 / math.pi), abs=2e-3)


def test_occasionality_biased_walk_decays_exponentially():
    rep = torus_rep([(1,), (-1,)])
    psi = [math.sqrt(0.8), math.sqrt(0.2)]
    table = occasionality_probe(rep, psi, [4, 10, 20])
    assert table.verdict == "EXPONENTIAL_DECAY"
    # only the balanced count vector lands on weight zero
    for n, p, _ in table.rows:
        assert p == pytest.approx(multinomial_mass([0.8, 0.2], (n // 2, n // 2)),
                                  rel=1e-10)


def test_occasionality_rank_two_walk():
    rep = torus_rep([(1, 0), (-1, 0), (0, 1), (0, -1)])
    psi = [0.5, 0.5, 0.5, 0.5]
    table = occasionality_probe(rep, psi, [6])
    assert table.exponent == 2
    want = sum(math.factorial(6) / (math.factorial(a) ** 2 * math.factorial(c) ** 2)
               for a in range(4) for c in range(4) if 2 * a + 2 * c == 6) / 4 ** 6
    assert table.rows[0][1] == pytest.approx(want, rel=1e-12)


def test_occasionality_budget_guard():
    # the box of reachable sums at n = 2100 has 4201^2 > 4096^2 entries
    rep = torus_rep([(1, 0), (-1, 0), (0, 1), (0, -1)])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="dense_dim"):
            occasionality_probe(rep, [0.5, 0.5, 0.5, 0.5], [2100])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("seed", [29, 30, 31])
@pytest.mark.parametrize("weights, blocks", [([(1,), (-1,), (2,)], [2, 1, 1]),
                                             ([(1, 0), (0, 1), (-1, -1)], [2, 1, 2])])
def test_occasionality_matches_the_fixed_subspace_trace(seed, weights, blocks):
    rng = np.random.default_rng(seed)
    rep = torus_rep(weights, blocks)
    psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    psi /= np.linalg.norm(psi)
    ns = [n for n in range(1, 6) if rep.dim ** n <= 1024]
    table = occasionality_probe(rep, psi, ns)
    for n, p, _ in table.rows:
        projector = fixed_subspace_projector(rep, n).mat
        want = np.trace(_kron_power(np.outer(psi, psi.conj()), n) @ projector).real
        assert p == pytest.approx(want, rel=1e-12, abs=1e-16)


def test_occasionality_rank_two_at_four_hundred_matches_the_exact_rational():
    start = time.time()
    rep = torus_rep([(1, 0), (-1, 0), (0, 1), (0, -1)])
    table = occasionality_probe(rep, [0.5, 0.5, 0.5, 0.5], [400])
    f = math.factorial
    want = Fraction(sum(f(400) // (f(a) ** 2 * f(200 - a) ** 2) for a in range(201)), 4 ** 400)
    assert table.rows[0][1] == pytest.approx(float(want), rel=1e-12)
    assert time.time() - start < 5.0


def test_occasionality_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        occasionality_probe(torus_rep([(1,), (-1,)]), [1.0, 1.0], [2, -1])
