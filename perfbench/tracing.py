"""Spans around public calls into each qrealize layer.

A wrapper is installed where the caller looks the name up: ``qmp`` imports
``lanczos_min_eig`` and ``traced_permutation_sum`` by name, so those are
patched in ``qmp``; ``traced_permutation_sum`` finds ``traced_permutation``
and ``cycle_type`` in ``symmetrizer``; the CLI imports ``dumps``/``loads`` and
``capacity`` by name.  Spans live in memory as [name, start, end, parent] and
are written out when the run ends.  A hook whose target no longer exists is
listed in ``Tracer.missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name)
HOOKS = (
    ("qrealize.qmp", "hierarchy_check", "qmp.check"),
    ("qrealize.qmp", "ortho_bound_check", "qmp.check"),
    ("qrealize.qmp", "three_qubit_witness", "qmp.witness3"),
    ("qrealize.qmp", "bipartite_check", "qmp.bipartite"),
    ("qrealize.qmp", "traced_permutation_sum", "symmetrizer.build"),
    ("qrealize.qmp", "lanczos_min_eig", "tensor.lanczos"),
    ("qrealize.qmp", "min_eigenvalue_matrix_free", "tensor.nonfinite_fallback"),
    ("qrealize.symmetrizer", "WiringSum.apply", "symmetrizer.apply"),
    ("qrealize.symmetrizer", "WiringSum.to_matrix", "symmetrizer.to_matrix"),
    ("qrealize.symmetrizer", "traced_permutation", "symmetrizer.traced_permutation"),
    ("qrealize.symmetrizer", "cycle_type", "partitions.cycle_type"),
    ("qrealize.symmetrizer", "biriffle_value", "symmetrizer.biriffle"),
    ("qrealize.symmetrizer", "bibiriffle_lower_bound", "symmetrizer.biriffle"),
    ("qrealize.jsonio", "dumps", "jsonio.dumps"),
    ("qrealize.jsonio", "loads", "jsonio.loads"),
    ("qrealize.estimation", "toy_xz_exact_bounds", "estimation.toy_xz_exact"),
    ("qrealize.estimation", "spectral_dist", "estimation.spectral_dist"),
    ("qrealize.estimation", "schur_polynomial", "partitions.schur_polynomial"),
    ("qrealize.divergence", "keyl_divergence", "divergence.keyl"),
    ("qrealize.divergence", "discrimination_ratio_bound", "divergence.ratio_bound"),
    ("qrealize.cli", "dumps", "jsonio.dumps"),
    ("qrealize.cli", "loads", "jsonio.loads"),
    ("qrealize.cli", "torus_capacity", "capacity.capacity"),
)

WRAPPED = "__perfbench_wrapped__"


class Tracer:
    """In-memory span recorder plus counters, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        if self.paused:
            yield
            return
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def pause(self):
        """Run the benchmark's own checks without recording them."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def graft(self, spans: list[list]) -> None:
        """Attach spans recorded in a child process under the open span."""
        base = len(self.spans)
        top = self._stack[-1] if self._stack else -1
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, top if parent < 0 else base + parent])

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if name == "tensor.lanczos" and args:
                args = (tracer._matvec_spans(args[0]),) + args[1:]
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, out)
            return out

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _matvec_spans(self, apply_h):
        """The Lanczos matvec closure, one qmp.matvec span per call."""
        def matvec(v):
            with self.span("qmp.matvec"):
                return apply_h(v)
        return matvec

    def install(self) -> None:
        """Wrap every hook whose module is already imported."""
        self.missing = []
        for modname, attr, name in HOOKS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            *path, leaf = attr.split(".")
            owner = mod
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(fn, name))
            self._patches.append((owner, leaf, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, fn = self._patches.pop()
            setattr(owner, leaf, fn)


def _count_terms(tracer, args, out):
    terms = getattr(out, "terms", None)
    if terms is not None:
        tracer.counts["symmetrizer.terms"] += len(terms)


def _count_cert_bytes(tracer, args, out):
    if args and isinstance(args[0], dict) and "verdict" in args[0]:
        tracer.counts["jsonio.certs"] += 1
        tracer.counts["jsonio.cert_bytes"] += len(out.encode("utf-8"))


_AFTER = {"symmetrizer.build": _count_terms, "jsonio.dumps": _count_cert_bytes}


# ---------------------------------------------------------------------------
# Aggregation


def span_tables(spans: list[list], lo: int = 0, hi: int | None = None):
    """Per name over spans[lo:hi]: (total, self, calls).

    ``total`` counts only spans with no ancestor of the same name, so a call
    nested in itself is not counted twice; ``self`` is each span's duration
    minus the durations of its direct children.
    """
    hi = len(spans) if hi is None else hi
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total, selft, calls = Counter(), Counter(), Counter()
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        dur = end - start
        calls[name] += 1
        selft[name] += dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += dur
    return total, selft, calls
