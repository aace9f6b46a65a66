"""Partition combinatorics, characters, Schur values, double cosets."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrealize.partitions import (
    Partition,
    all_cycle_types,
    approx_partition,
    conjugacy_class_size,
    coset_cardinality,
    coset_representative,
    cumulative,
    cycle_type,
    double_cosets,
    finite_difference,
    littlewood_richardson,
    mn_character,
    partitions_of,
    schur_polynomial,
    specht_dim,
    weyl_dim,
)

from reference import schur_ssyt


def partition_count_oracle(n):
    """p(n) by the standard DP over largest part."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[k][0] = 1
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            table[k][m] = table[k - 1][m] + (table[k][m - k] if m >= k else 0)
    return table[n][n]


def test_partition_constructor_validates():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition.of([3, 2, 0, 0]).parts == (3, 2)


def test_partition_conjugate_is_involution():
    lam = Partition((4, 2, 1))
    assert lam.conjugate().parts == (3, 2, 1, 1)
    for n in range(1, 8):
        for lam in partitions_of(n, n):
            assert lam.conjugate().conjugate() == lam


@pytest.mark.parametrize("n", [1, 4, 6, 9, 12])
def test_partitions_of_count(n):
    assert len(partitions_of(n, n)) == partition_count_oracle(n)


def test_partitions_of_order_and_bound():
    ps = partitions_of(6, 3)
    assert ps[0].parts == (6,)
    assert all(p.length <= 3 for p in ps)
    # decreasing lexicographic
    tups = [p.padded(3) for p in ps]
    assert tups == sorted(tups, reverse=True)


def test_class_equation():
    for n in range(1, 7):
        assert sum(conjugacy_class_size(t) for t in all_cycle_types(n)) == math.factorial(n)


def test_cycle_type_examples():
    assert cycle_type((1, 2, 0)).parts == (3,)
    assert cycle_type((1, 0, 2)).parts == (2, 1)
    assert cycle_type((0, 1, 2, 3)).parts == (1, 1, 1, 1)


def test_cycle_type_class_sizes_by_enumeration():
    n = 5
    counts = {}
    for perm in itertools.permutations(range(n)):
        counts[cycle_type(perm).parts] = counts.get(cycle_type(perm).parts, 0) + 1
    for t in all_cycle_types(n):
        assert counts[t.parts] == conjugacy_class_size(t)


def test_specht_dims_sum_of_squares():
    """sum over lam of f_lam^2 = n! (regular representation)."""
    for n in range(1, 9):
        assert sum(specht_dim(p) ** 2 for p in partitions_of(n, n)) == math.factorial(n)


def test_specht_dim_known_values():
    assert specht_dim(Partition((2, 1))) == 2
    assert specht_dim(Partition((3, 2, 1))) == 16
    assert specht_dim(Partition((4, 4))) == 14  # Catalan number C_4


def test_weyl_dim_rows_and_columns():
    for d in range(1, 5):
        for n in range(1, 6):
            assert weyl_dim(Partition((n,)), d) == math.comb(n + d - 1, n)
        for k in range(1, d + 1):
            assert weyl_dim(Partition((1,) * k), d) == math.comb(d, k)
    assert weyl_dim(Partition((1, 1, 1)), 2) == 0


def test_schur_weyl_dimension_count():
    """sum over lam of f_lam * m_lam(d) = d^n."""
    for d in (2, 3):
        for n in range(1, 7):
            tot = sum(specht_dim(p) * weyl_dim(p, d) for p in partitions_of(n, n))
            assert tot == d ** n


def test_character_table_s3():
    classes = {(1, 1, 1): None, (2, 1): None, (3,): None}
    table = {
        (3,): [1, 1, 1],
        (2, 1): [2, 0, -1],
        (1, 1, 1): [1, -1, 1],
    }
    for lam, want in table.items():
        got = [mn_character(Partition(lam), Partition(c)) for c in classes]
        assert got == want


def test_character_identity_column_is_dimension():
    for n in range(1, 8):
        ident = Partition((1,) * n)
        for lam in partitions_of(n, n):
            assert mn_character(lam, ident) == specht_dim(lam)


def test_character_row_orthogonality():
    for n in (4, 5, 6):
        parts = partitions_of(n, n)
        for lam in parts:
            for mu in parts:
                tot = sum(conjugacy_class_size(c)
                          * mn_character(lam, c) * mn_character(mu, c)
                          for c in all_cycle_types(n))
                assert tot == (math.factorial(n) if lam == mu else 0)


def power_sum(mu, x):
    val = 1.0
    for k in mu:
        val *= sum(v ** k for v in x)
    return val


@pytest.mark.parametrize("n,d", [(3, 3), (4, 3), (5, 4)])
def test_power_sums_expand_in_schur_basis(n, d):
    """p_mu = sum over lam of chi_lam(mu) s_lam ties the character table to
    the Schur evaluations through an independent route."""
    rng = np.random.default_rng(n * 10 + d)
    x = rng.uniform(0.2, 1.5, size=d)
    for mu in all_cycle_types(n):
        want = power_sum(mu.parts, x)
        got = sum(mn_character(lam, mu) * schur_polynomial(lam, x)
                  for lam in partitions_of(n, n))
        assert got == pytest.approx(want, rel=1e-9)


def exact_schur(lam, x):
    """The Schur value as an exact Fraction tableau sum, rounded once."""
    return float(schur_ssyt(lam, [Fraction(v) for v in x]))


SCHUR_SHAPES = [(2,), (1, 1), (2, 1), (3, 1), (2, 2), (4, 2, 1), (8, 4, 2)]


def test_schur_routes_agree():
    """schur_polynomial is the exact value rounded once, bit for bit, and
    the float tableau sum agrees with it to roundoff on positive points."""
    rng = np.random.default_rng(2)
    for parts in SCHUR_SHAPES:
        lam = Partition(parts)
        for _ in range(5):
            x = rng.uniform(0.1, 2.0, size=3)
            got = schur_polynomial(lam, x)
            assert got == exact_schur(lam, x)
            assert schur_ssyt(lam, x) == pytest.approx(got, rel=1e-13)
            y = rng.uniform(-1.0, 1.0, size=3)
            assert schur_polynomial(lam, y) == exact_schur(lam, y)


def test_schur_exact_at_near_coincident_and_negative_points():
    """Equal and near-equal coordinates, where a Vandermonde ratio divides
    by (almost) zero, and signed coordinates, where tableau terms cancel."""
    points = [[0.5, 0.5 + 1e-9, 0.25], [1 / 3] * 3, [0.25] * 4,
              [0.5, -0.5, 0.25], [0.5, -0.5], [-0.7, -0.7, 0.1], [0.6, 0.0, 0.4]]
    for x in points:
        for parts in SCHUR_SHAPES:
            lam = Partition(parts)
            want = exact_schur(lam, x)
            assert schur_polynomial(lam, x) == want
            if min(x) >= 0:
                assert schur_ssyt(lam, x) == pytest.approx(want, rel=1e-13)


def test_schur_at_all_ones_is_weyl_dim():
    for d in (2, 3, 4):
        for n in range(1, 6):
            for lam in partitions_of(n, d):
                assert schur_polynomial(lam, [1.0] * d) == weyl_dim(lam, d)


def test_schur_rejects_a_non_finite_coordinate():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="is not finite"):
            schur_polynomial(Partition((2, 1)), [0.5, bad])


def test_schur_value_past_float_range_is_infinite():
    """The exact quotient rounds to +-inf past float range, as IEEE
    division does, instead of raising OverflowError."""
    assert schur_polynomial(Partition((2,)), [1e300, 1.0]) == math.inf
    assert schur_polynomial(Partition((3,)), [-1e300, 1.0]) == -math.inf
    assert schur_polynomial(Partition((1,)), [-1e300, 1.0]) == -1e300 + 1.0


def test_schur_long_shape_vanishes():
    assert schur_polynomial(Partition((1, 1, 1)), [0.5, 0.5]) == 0.0


def test_littlewood_richardson_pieri_rule():
    """Multiplying by a one-row shape adds horizontal strips with
    multiplicity one."""
    alpha = Partition((2, 1))
    k = 2
    for lam in partitions_of(alpha.size + k, 4):
        c = littlewood_richardson(alpha, Partition((k,)), lam)
        # horizontal strip condition, on zero-padded rows
        width = max(lam.length, alpha.length)
        a = alpha.padded(width)
        l = lam.padded(width)
        strip = all(l[i] >= a[i] for i in range(width)) and all(
            a[i] >= l[i + 1] for i in range(width - 1))
        assert c == (1 if strip else 0)


def test_littlewood_richardson_symmetry():
    alpha, beta = Partition((2, 1)), Partition((2, 2))
    for lam in partitions_of(7, 5):
        assert littlewood_richardson(alpha, beta, lam) == \
            littlewood_richardson(beta, alpha, lam)


def test_littlewood_richardson_product_expansion():
    """s_alpha * s_beta = sum over lam of c^lam s_lam at random points."""
    rng = np.random.default_rng(17)
    cases = [((2, 1), (1, 1)), ((2,), (2, 2)), ((3, 1), (2, 1))]
    for pa, pb in cases:
        alpha, beta = Partition(pa), Partition(pb)
        x = rng.uniform(0.2, 1.2, size=4)
        want = schur_polynomial(alpha, x) * schur_polynomial(beta, x)
        got = sum(littlewood_richardson(alpha, beta, lam) * schur_polynomial(lam, x)
                  for lam in partitions_of(alpha.size + beta.size, len(x)))
        assert got == pytest.approx(want, rel=1e-9)


def test_littlewood_richardson_dimension_identity():
    """f_alpha f_beta binom(n, |alpha|) = sum over lam of c^lam f_lam."""
    alpha, beta = Partition((2, 1)), Partition((2, 1))
    n = alpha.size + beta.size
    lhs = specht_dim(alpha) * specht_dim(beta) * math.comb(n, alpha.size)
    rhs = sum(littlewood_richardson(alpha, beta, lam) * specht_dim(lam)
              for lam in partitions_of(n, n))
    assert lhs == rhs


def test_finite_difference_cumulative_roundtrip():
    x = [0.5, 0.3, 0.2]
    d = finite_difference(x)
    assert d == pytest.approx([0.2, 0.1, 0.2])
    assert cumulative(d) == pytest.approx(x)


def test_finite_difference_rejects_increasing():
    with pytest.raises(ValueError):
        finite_difference([0.2, 0.5])


@given(st.integers(2, 5), st.integers(1, 200), st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_approx_partition_size_bounds(d, n, seed):
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0, 1, size=d))[::-1]
    s /= s.sum()
    mu = approx_partition(list(s), n)
    assert n <= mu.size <= n + d * (d + 1) // 2 - 1


def test_approx_partition_exact_on_integer_profiles():
    # n*s already integral: the shape is exactly n*s
    mu = approx_partition([0.5, 0.3, 0.2], 10)
    assert mu.parts == (5, 3, 2)


def test_approx_partition_upper_bound_is_tight():
    """A strictly decreasing spectrum at n = 1 forces every finite
    difference to round up to 1, giving the staircase of size d(d+1)/2."""
    s = [0.4, 0.3, 0.2, 0.1]
    mu = approx_partition(s, 1)
    assert mu.parts == (4, 3, 2, 1)
    assert mu.size == 4 * 5 // 2


def test_approx_partition_keeps_flat_stretches_flat():
    mu = approx_partition([0.4, 0.4, 0.2], 7)
    assert mu[0] == mu[1]


def test_double_cosets_cardinalities_sum():
    for n, k in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        cosets = double_cosets(n, k)
        assert sum(c for _, c, _ in cosets) == math.factorial(n * k)


def test_double_cosets_matrix_count_2_2():
    # 2x2 non-negative matrices with margins (2,2): parametrized by the
    # top-left entry 0..2
    assert len(double_cosets(2, 2)) == 3


def test_double_coset_representative_recovers_margins():
    for mat, _, rep in double_cosets(2, 2):
        k = len(mat)
        n = sum(mat[0])
        got = [[0] * k for _ in range(k)]
        for s, t in enumerate(rep):
            got[s // n][t // n] += 1
        assert [tuple(r) for r in got] == [tuple(r) for r in mat]


def test_double_coset_representative_is_a_permutation():
    for _, _, rep in double_cosets(3, 2):
        assert sorted(rep) == list(range(6))
