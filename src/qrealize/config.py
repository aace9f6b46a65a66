"""Numerical tolerances and resource budgets shared across the toolkit.

Every tolerance-sensitive routine accepts an explicit ``Tolerances`` (or the
relevant scalar) so callers can tighten or relax checks; the module-level
defaults below are what the CLI and the test-suite use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    herm: float = 1e-10      # max |H - H*| entry for "Hermitian"
    trace: float = 1e-10     # |tr - 1| for density operators / unit vectors
    psd: float = 1e-9        # eigenvalues >= -psd counts as positive semidefinite
    eig: float = 1e-10       # accuracy expected of dense eigensolves
    uniform: float = 1e-8    # Frobenius deviation threshold for k-uniformity

    def with_(self, **kw) -> "Tolerances":
        return replace(self, **kw)


@dataclass(frozen=True)
class Budgets:
    dense_dim: int = 2 ** 18        # hard cap on dense operator dimension
    dense_eig_dim: int = 4096       # cap on dense eigensolves and sym/antisym/isotypic projectors
    perms_dense: int = 5040         # factorial cap for dense permutation sums
    perms_matrix_free: int = 500_000
    matvec_dim: int = 300_000       # practical matrix-free dimension
    bruteforce_perms: int = 100_000

    def with_(self, **kw) -> "Budgets":
        return replace(self, **kw)


TOL = Tolerances()
BUDGET = Budgets()


class ResourceBudgetError(RuntimeError):
    """Raised when a computation would exceed a configured resource budget.

    The message names the limiting factor so batch drivers can report it.
    """
