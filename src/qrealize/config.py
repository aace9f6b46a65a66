"""Numerical tolerances and resource budgets shared across the toolkit.

``Tolerances`` is taken by ``DensityOperator``, ``PureState`` and the level-n
checks (``hierarchy_check``, ``ortho_bound_check``,
``subspace_hierarchy_check``); ``Operator.is_hermitian`` takes its ``herm``
scalar.  ``Budgets`` is taken by the level-n checks, the dense projectors
(``sym_projector``, ``uniform_sym_state``, ``isotypic_projector``,
``fixed_subspace_projector``), the wiring sums (``traced_permutation_sum``,
``traced_symmetrizer``, ``WiringSum.to_matrix``), ``biriffle_bruteforce`` and
``lanczos_min_eig``; ``occasionality_probe`` reads ``BUDGET``.  ``dense_dim``
caps a square matrix's dimension, and any other dense array's entries at
``dense_dim**2``: the Lanczos basis, the subspace factor A, the occasionality
box.  ``perms_matrix_free`` caps every enumeration of N! slot permutations
(``check_perms``), which ``biriffle_value`` never makes.  Other routines use
fixed constants of their own, among them ``capacity``,
``three_qubit_witness``, ``born_ratio``, ``density_qubit_pair``, the
projector checks of ``subspace_hierarchy_check`` and ``bipartite_check``.
The CLI and tests use the defaults below.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Tolerances(NamedTuple):
    herm: float = 1e-10      # max |H - H*| entry for "Hermitian"
    trace: float = 1e-10     # |tr - 1| for density operators, unit vectors and distributions
    psd: float = 1e-9        # eigenvalues >= -psd counts as positive semidefinite
    eig: float = 1e-10       # accuracy expected of dense eigensolves

    def with_(self, **kw) -> "Tolerances":
        return self._replace(**kw)


class Budgets(NamedTuple):
    # cap on a square matrix's dimension, and at dense_dim**2 on any other dense
    # array's entries (4096: 134 MB real, 268 MB complex)
    dense_dim: int = 4096
    perms_matrix_free: int = 500_000  # cap on every enumeration of N! slot permutations

    def with_(self, **kw) -> "Budgets":
        return self._replace(**kw)

    def check_dense(self, dim: int, what: str) -> None:
        """Raise ResourceBudgetError before a dense matrix above the cap is allocated."""
        if dim > self.dense_dim:
            raise ResourceBudgetError(
                f"{what}: dimension {dim} exceeds cap dense_dim={self.dense_dim}")

    def check_entries(self, entries: int, what: str) -> None:
        """Raise ResourceBudgetError before a dense array past dense_dim**2 entries is allocated."""
        if entries > self.dense_dim ** 2:
            raise ResourceBudgetError(
                f"{what}: {entries} entries exceed cap dense_dim**2={self.dense_dim ** 2}")

    def check_perms(self, nslots: int) -> None:
        """Raise ResourceBudgetError before enumerating nslots! > perms_matrix_free permutations."""
        if math.factorial(nslots) > self.perms_matrix_free:
            raise ResourceBudgetError(f"{nslots}! permutation terms exceed cap "
                                      f"perms_matrix_free={self.perms_matrix_free}")


TOL = Tolerances()
BUDGET = Budgets()


class ResourceBudgetError(RuntimeError):
    """Raised when a computation would exceed a configured resource budget.

    The message names the limiting factor so batch drivers can report it.
    """
