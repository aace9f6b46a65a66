"""Batch command-line front-end.

One job per invocation: parse inputs, dispatch to the library, emit JSON or
CSV artifacts with 17-significant-digit numbers so outputs are byte-stable
and round-trip exactly.  Exit codes: 0 success/consistent, 1 certified
violation, 2 usage or parse error, 3 resource budget exceeded.

Each command imports only the layers it runs, inside its body: every
invocation is a fresh process, and ``toy-xz --exact`` never loads numpy.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .config import BUDGET, TOL, ResourceBudgetError
from .jsonio import dumps, format_float, loads, operator_from_json

if TYPE_CHECKING:
    from .qmp import MProductState
    from .tensor import DensityOperator, Operator

_CONTEXT = {
    "auto_envvar_prefix": "QREALIZE",
    "help_option_names": ["-h", "--help"],
}


def _read_json_file(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    try:
        return loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _load_operator(path: str) -> Operator:
    data = _read_json_file(path)
    try:
        return operator_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"{path}: not a valid operator payload: {exc}")


def _load_density(path: str) -> DensityOperator:
    from .tensor import DensityOperator

    op = _load_operator(path)
    try:
        return DensityOperator(op)
    except (ValueError, ArithmeticError) as exc:
        raise click.UsageError(f"{path}: not a density operator: {exc}")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _budget(budget_perms: int | None, budget_dim: int | None):
    kwargs = {}
    if budget_perms is not None:
        if budget_perms <= 0:
            raise click.UsageError("--budget-perms must be positive")
        kwargs["perms_matrix_free"] = budget_perms
    if budget_dim is not None:
        if budget_dim <= 0:
            raise click.UsageError("--budget-dim must be positive")
        kwargs["dense_dim"] = budget_dim
    return BUDGET.with_(**kwargs) if kwargs else BUDGET


def _tolerances(tol_psd: float | None):
    return TOL.with_(psd=tol_psd) if tol_psd is not None else TOL


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise click.UsageError(f"bad numeric list {text!r}: {exc}")


def _ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise click.UsageError(f"bad integer list {text!r}: {exc}")


def _guard(fn):
    """Map library errors to exit codes: a ``ValueError`` is a usage error
    (2); a ``ResourceBudgetError`` or a failed allocation is a budget stop (3)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ResourceBudgetError as exc:
            click.echo(f"resource budget exceeded: {exc}", err=True)
            sys.exit(3)
        except MemoryError as exc:
            detail = str(exc) or "out of memory"
            click.echo(f"resource budget exceeded: could not allocate ({detail})", err=True)
            sys.exit(3)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    return wrapper


def _config_payload() -> dict:
    return {
        "tolerances": dataclasses.asdict(TOL),
        "budgets": dataclasses.asdict(BUDGET),
        "seed": 0,
        "env_prefix": "QREALIZE",
    }


@click.group(context_settings=_CONTEXT, invoke_without_command=True)
@click.option("--show-config", is_flag=True, help="Print all defaults as JSON and exit.")
@click.pass_context
def main(ctx, show_config):
    """Certification toolkit for quantum realizability problems."""
    if show_config:
        sys.stdout.write(dumps(_config_payload(), indent=2) + "\n")
        ctx.exit(0)
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())
        ctx.exit(0)


@main.group()
def qmp():
    """Quantum marginal problem checks."""


def _scenario_from_marginals(paths) -> MProductState:
    from .qmp import MarginalScenario, MProductState
    from .tensor import LabeledSpace

    marginals = [_load_density(p) for p in paths]
    joint: list[tuple[str, int]] = []
    seen = {}
    for rho in marginals:
        for name, dim in rho.space.labels:
            if name in seen:
                if seen[name] != dim:
                    raise click.UsageError(
                        f"label {name} appears with dims {seen[name]} and {dim}")
            else:
                seen[name] = dim
                joint.append((name, dim))
    scen = MarginalScenario(
        LabeledSpace(tuple(joint)),
        tuple(tuple(r.space.names) for r in marginals))
    return MProductState(scen, tuple(marginals))


def _emit_certificate(cert, out) -> None:
    _emit(dumps(cert.to_json(), indent=2) + "\n", out)


_BUDGET_DIM_HELP = ("Cap on the dimension of every dense matrix built or diagonalised. "
                    "Sets dense_dim; matvec_dim keeps its default.")
_BUDGET_PERMS_HELP = ("Cap on the (level x contexts)! slot permutations a wiring sum "
                      "runs over. Sets perms_matrix_free.")


@qmp.command("check")
@click.argument("marginals", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--level", type=int, default=1, show_default=True, help="Hierarchy level n.")
@click.option("--tol-psd", type=float, default=None, help="Gap threshold for VIOLATED.")
@click.option("--budget-perms", type=int, default=None, help=_BUDGET_PERMS_HELP)
@click.option("--budget-dim", type=int, default=None, help=_BUDGET_DIM_HELP)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def qmp_check(marginals, level, tol_psd, budget_perms, budget_dim, out):
    """Run the level-n symmetric-subspace test on marginal operator files."""
    from .qmp import hierarchy_check

    state = _scenario_from_marginals(marginals)
    cert = hierarchy_check(
        state, level, tol=_tolerances(tol_psd), budget=_budget(budget_perms, budget_dim))
    _emit_certificate(cert, out)
    sys.exit(1 if cert.violated else 0)


@qmp.command("witness3")
@click.argument("ab", type=click.Path(exists=True, dir_okay=False))
@click.argument("ac", type=click.Path(exists=True, dir_okay=False))
@click.argument("bc", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol-psd", type=float, default=None, help="Violation threshold on the witness value.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def qmp_witness3(ab, ac, bc, tol_psd, out):
    """Three-qubit overlapping-pairs witness; nonzero certifies violation."""
    from .qmp import three_qubit_witness

    rhos = []
    for path in (ab, ac, bc):
        rho = _load_density(path)
        if rho.space.dims != (2, 2):
            raise click.UsageError(f"{path}: witness3 needs two-qubit marginals")
        rhos.append(rho)
    value = three_qubit_witness(*rhos)
    if out:
        _emit(dumps({"value": value}, indent=2) + "\n", out)
    sys.stdout.write(format_float(value) + "\n")
    sys.exit(1 if value > _tolerances(tol_psd).psd else 0)


@qmp.command("bipartite")
@click.argument("rho_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("rho_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def qmp_bipartite(rho_a, rho_b, out):
    """Pure-state bipartite compatibility: spectra match, or a rate certificate."""
    from .qmp import bipartite_check

    result = bipartite_check(_load_density(rho_a), _load_density(rho_b))
    _emit(dumps(result.to_json(), indent=2) + "\n", out)
    sys.exit(0 if result.realizable else 1)


@qmp.command("ortho")
@click.argument("marginals", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--level", type=int, default=1, show_default=True)
@click.option("--rank", type=int, required=True, help="Row bound v on the admitted shapes.")
@click.option("--tol-psd", type=float, default=None)
@click.option("--budget-perms", type=int, default=None, help=_BUDGET_PERMS_HELP)
@click.option("--budget-dim", type=int, default=None, help=_BUDGET_DIM_HELP)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def qmp_ortho(marginals, level, rank, tol_psd, budget_perms, budget_dim, out):
    """Rank-restricted isotypic-band variant of the hierarchy test."""
    from .qmp import ortho_bound_check

    state = _scenario_from_marginals(marginals)
    cert = ortho_bound_check(
        state, rank, level, tol=_tolerances(tol_psd),
        budget=_budget(budget_perms, budget_dim))
    _emit_certificate(cert, out)
    sys.exit(1 if cert.violated else 0)


@qmp.command("subspace")
@click.argument("marginals", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--projector", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Operator JSON for the joint-space subspace projector.")
@click.option("--level", type=int, default=1, show_default=True)
@click.option("--tol-psd", type=float, default=None)
@click.option("--budget-dim", type=int, default=None, help=_BUDGET_DIM_HELP)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def qmp_subspace(marginals, projector, level, tol_psd, budget_dim, out):
    """Hierarchy test restricted to a joint subspace (e.g. an exclusion model)."""
    from .qmp import subspace_hierarchy_check

    state = _scenario_from_marginals(marginals)
    proj = _load_operator(projector)
    cert = subspace_hierarchy_check(
        state, proj, level, tol=_tolerances(tol_psd), budget=_budget(None, budget_dim))
    _emit_certificate(cert, out)
    sys.exit(1 if cert.violated else 0)


@main.command("keyl")
@click.argument("rho", type=click.Path(exists=True, dir_okay=False))
@click.argument("sigma", type=click.Path(exists=True, dir_okay=False))
@click.option("--copies", type=int, default=None,
              help="Also evaluate the n-copy discrimination ratio and bound.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def keyl_cmd(rho, sigma, copies, out):
    """Keyl divergence K(rho || sigma), optionally with the ratio bound."""
    from .divergence import discrimination_ratio_bound, keyl_divergence

    def finite(x: float) -> float | None:
        # JSON has no infinity: a non-finite value is written as null
        return x if math.isfinite(x) else None

    r = _load_density(rho)
    s = _load_density(sigma)
    payload = {"keyl": finite(keyl_divergence(r.mat, s.mat))}
    if copies is not None:
        ratio, bound, ok = discrimination_ratio_bound(r.mat, s.mat, copies)
        payload.update({"copies": copies, "ratio": finite(ratio), "bound": finite(bound),
                        "ok": ok})
    _emit(dumps(payload, indent=2) + "\n", out)


@main.command("sanov")
@click.option("--q", "q_text", required=True, help="Comma-separated source distribution.")
@click.option("--type", "type_text", required=True, help="Comma-separated count vector.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def sanov_cmd(q_text, type_text, out):
    """Multinomial mass of one type against its large-deviation envelope."""
    from .divergence import sanov_bounds_check

    q = _floats(q_text)
    lam = _ints(type_text)
    if len(q) != len(lam):
        raise click.UsageError("--q and --type must have equal length")
    check = sanov_bounds_check(q, lam, sum(lam))
    _emit(dumps({"lower": check.lower, "value": check.value,
                 "upper": check.upper, "ok": check.ok}, indent=2) + "\n", out)


@main.command("spectral-dist")
@click.option("--spec", "spec_text", required=True, help="Comma-separated spectrum.")
@click.option("--copies", "-n", "copies", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def spectral_dist_cmd(spec_text, copies, out):
    """CSV distribution of the estimated spectrum shape at n copies."""
    from .estimation import spectral_dist

    spec = _floats(spec_text)
    dist = spectral_dist(spec, copies)
    header = ",".join(f"l{i + 1}" for i in range(dist.d)) + ",prob"
    lines = [header]
    for t, p in dist.support:
        lines.append(",".join(str(v) for v in t) + "," + format_float(p))
    _emit("\n".join(lines) + "\n", out)


@main.command("density")
@click.option("--eigs", "eigs_text", default=None, help="Comma-separated eigenvalues.")
@click.option("--mults", "mults_text", default=None,
              help="Comma-separated multiplicities (degenerate case).")
@click.option("--pair-a", type=click.Path(exists=True, dir_okay=False), default=None,
              help="First qubit observable (joint-density mode).")
@click.option("--pair-b", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--at", "at_text", default=None, help="Evaluation point a,b for the joint mode.")
@click.option("--points", type=int, default=2000, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def density_cmd(eigs_text, mults_text, pair_a, pair_b, at_text, points, out):
    """Expectation-value density: CSV curve, or one joint-density value."""
    from .estimation import (density_curve, density_degenerate, density_nondegenerate,
                             density_qubit_pair)

    if pair_a or pair_b:
        if not (pair_a and pair_b and at_text):
            raise click.UsageError("joint mode needs --pair-a, --pair-b and --at")
        point = _floats(at_text)
        if len(point) != 2:
            raise click.UsageError("--at must be two numbers")
        value = density_qubit_pair(
            _load_operator(pair_a), _load_operator(pair_b), point)
        _emit(dumps({"value": value}, indent=2) + "\n", out)
        return
    if not eigs_text:
        raise click.UsageError("provide --eigs or the --pair-a/--pair-b mode")
    eigs = _floats(eigs_text)
    if mults_text:
        mults = _ints(mults_text)
        if len(mults) != len(eigs):
            raise click.UsageError("--mults must match --eigs in length")
        pairs = list(zip(eigs, mults))
        fun = lambda x: density_degenerate(pairs, x)
    else:
        fun = lambda x: density_nondegenerate(eigs, x)
    curve = density_curve(fun, min(eigs), max(eigs), points)
    lines = ["x,f"]
    for x, f in curve.rows():
        lines.append(format_float(x) + "," + format_float(f))
    _emit("\n".join(lines) + "\n", out)


@main.command("toy-xz")
@click.option("-m", "--shots", "shots", type=int, required=True, help="Shots per basis.")
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bins", type=int, default=50, show_default=True)
@click.option("--exact", is_flag=True, help="Print corner/balanced bounds instead of sampling.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def toy_xz_cmd(shots, trials, seed, bins, exact, out):
    """Two-basis X/Z estimate histogram, or its exact corner/balanced bounds."""
    if exact:
        from .toy_xz import toy_xz_exact_bounds

        res = toy_xz_exact_bounds(shots)
        _emit(dumps({"corner_prob": res.corner_prob, "corner_bound": res.corner_bound,
                     "balanced_prob": res.balanced_prob,
                     "balanced_bound": res.balanced_bound}, indent=2) + "\n", out)
        return
    import numpy as np

    from .estimation import toy_xz_simulate

    samples = toy_xz_simulate(shots, trials, seed)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    hist, _, _ = np.histogram2d(samples[:, 0], samples[:, 1], bins=[edges, edges])
    lines = ["x_lo,x_hi,z_lo,z_hi,count"]
    for i in range(bins):
        for j in range(bins):
            count = int(hist[i, j])
            if count:
                lines.append(",".join([
                    format_float(edges[i]), format_float(edges[i + 1]),
                    format_float(edges[j]), format_float(edges[j + 1]), str(count)]))
    _emit("\n".join(lines) + "\n", out)


@main.command("born-ratio")
@click.argument("projector", type=click.Path(exists=True, dir_okay=False))
@click.argument("observable", type=click.Path(exists=True, dir_okay=False))
@click.option("--copies", "-n", "copies", type=int, required=True)
@_guard
def born_ratio_cmd(projector, observable, copies):
    """Outcome probability after n repeated projective observations."""
    from .estimation import born_ratio

    value = born_ratio(
        _load_operator(projector), _load_operator(observable), copies)
    sys.stdout.write(format_float(value) + "\n")


@main.command("biriffle")
@click.argument("operators", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dim", "-d", type=int, required=True, help="Local dimension d.")
@click.option("--symmetrize", is_flag=True, help="Project the inputs onto the symmetric subspace first.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def biriffle_cmd(operators, dim, symmetrize, out):
    """Averaged interleaving sum of k tensor-power operators."""
    from .symmetrizer import bibiriffle_lower_bound, biriffle_value

    xs = [_load_operator(p).mat for p in operators]
    value = biriffle_value(xs, dim, symmetrize=symmetrize)
    payload = {"value": value}
    if len(xs) == 2:
        p_n, bound = bibiriffle_lower_bound(xs[0], xs[1], dim)
        payload["bibiriffle_bound"] = bound
        payload["bound_ok"] = bool(p_n >= bound - 1e-12)
    _emit(dumps(payload, indent=2) + "\n", out)


@main.command("capacity")
@click.argument("rep", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def capacity_cmd(rep, out):
    """Torus capacity of a weight vector: {weights, amplitudes, blocks} JSON in."""
    import numpy as np

    from .capacity import capacity as torus_capacity
    from .capacity import torus_rep

    data = _read_json_file(rep)
    try:
        weights = data["weights"]
        amps = data["amplitudes"]
        blocks = data.get("blocks")
        re = np.asarray(amps["re"], dtype=float)
        im = np.asarray(amps.get("im", np.zeros_like(re)), dtype=float)
    except (KeyError, TypeError) as exc:
        raise click.UsageError(f"{rep}: not a valid torus payload: {exc}")
    trep = torus_rep(weights, blocks)
    result = torus_capacity(trep, re + 1j * im)
    _emit(dumps(result.to_json(), indent=2) + "\n", out)


if __name__ == "__main__":
    main()
