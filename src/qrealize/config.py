"""Numerical tolerances and resource budgets shared across the toolkit.

Every tolerance-sensitive routine accepts an explicit ``Tolerances`` (or the
relevant scalar) so callers can tighten or relax checks; the module-level
defaults below are what the CLI and the test-suite use.
"""

from __future__ import annotations

from typing import NamedTuple


class Tolerances(NamedTuple):
    herm: float = 1e-10      # max |H - H*| entry for "Hermitian"
    trace: float = 1e-10     # |tr - 1| for density operators, unit vectors and distributions
    psd: float = 1e-9        # eigenvalues >= -psd counts as positive semidefinite
    eig: float = 1e-10       # accuracy expected of dense eigensolves

    def with_(self, **kw) -> "Tolerances":
        return self._replace(**kw)


class Budgets(NamedTuple):
    dense_dim: int = 4096             # cap on every dense matrix's dimension (268 MB complex128)
    perms_matrix_free: int = 500_000  # cap on every enumeration of N! slot permutations
    matvec_dim: int = 300_000         # cap on a matrix-free (Lanczos) vector's dimension

    def with_(self, **kw) -> "Budgets":
        return self._replace(**kw)

    def check_dense(self, dim: int, what: str) -> None:
        """Raise ResourceBudgetError before a dense matrix above the cap is allocated."""
        if dim > self.dense_dim:
            raise ResourceBudgetError(
                f"{what}: dimension {dim} exceeds cap dense_dim={self.dense_dim}")


TOL = Tolerances()
BUDGET = Budgets()


class ResourceBudgetError(RuntimeError):
    """Raised when a computation would exceed a configured resource budget.

    The message names the limiting factor so batch drivers can report it.
    """
