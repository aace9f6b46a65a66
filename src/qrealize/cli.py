"""Batch command-line front-end.

One job per invocation: parse inputs, dispatch to the library, emit JSON or
CSV artifacts with 17-significant-digit numbers so outputs are byte-stable
and round-trip exactly.  Exit codes: 0 success/consistent, 1 certified
violation, 2 usage, parse or arithmetic error, 3 resource budget exceeded.

Each command imports only the layers it runs, inside its body: every
invocation is a fresh process, and ``toy-xz --exact`` never loads numpy.
The parser is the standard library's ``argparse``.  It only splits the
command line into strings; each parameter's converter checks its value,
whether it came from the command line or from the environment variable
``QREALIZE_<COMMAND PATH>_<PARAMETER>`` (upper-cased, hyphens and spaces as
underscores, e.g. ``QREALIZE_QMP_CHECK_LEVEL``), which a flag overrides.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from .config import BUDGET, TOL, ResourceBudgetError
from .jsonio import _complex_from_json, dumps, format_float, loads, operator_from_json

if TYPE_CHECKING:
    from .qmp import MProductState
    from .tensor import DensityOperator, Operator


# ---------------------------------------------------------------------------
# Parameters: each value is a string until its converter checks it; a
# converter raises ValueError with the reason, which becomes exit 2


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer.") from None


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None


_BOOLS = {"1": True, "true": True, "t": True, "yes": True, "y": True, "on": True,
          "0": False, "false": False, "f": False, "no": False, "n": False, "off": False}


def _bool(text: str) -> bool:
    """An on/off flag: "true" from the command line, any of ``_BOOLS`` from
    the environment."""
    try:
        return _BOOLS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a valid boolean.") from None


def _input_file(path: str) -> str:
    """A file that exists and is not a directory, checked before any work."""
    if not os.path.exists(path):
        raise ValueError(f"File {path!r} does not exist.")
    if os.path.isdir(path):
        raise ValueError(f"File {path!r} is a directory.")
    return path


def _output_file(path: str) -> str:
    if os.path.isdir(path):
        raise ValueError(f"File {path!r} is a directory.")
    return path


_METAVAR = {_int: "INTEGER", _float: "FLOAT", _input_file: "FILE", _output_file: "FILE",
            str: "TEXT"}


class _Param(NamedTuple):
    flags: tuple[str, ...]          # () for a positional argument
    dest: str                       # the command function's keyword
    convert: Callable = str         # _bool for an on/off flag
    default: object = None
    required: bool = False
    help: str | None = None
    many: bool = False              # a positional that takes one or more values

    @property
    def label(self) -> str:
        if self.flags:
            return " / ".join(f"'{f}'" for f in self.flags)
        return f"'{self.dest.upper()}{'...' if self.many else ''}'"


def _opt(flags: str, convert: Callable = str, default=None, help: str | None = None,
         required: bool = False, dest: str | None = None) -> _Param:
    """An option; ``dest`` defaults to the long flag's name, hyphens as
    underscores (``--tol-psd`` is ``tol_psd``)."""
    names = tuple(flags.split())
    long = next(f for f in names if f.startswith("--"))
    return _Param(names, dest or long[2:].replace("-", "_"), convert, default, required, help)


def _flag(flag: str, help: str) -> _Param:
    return _opt(flag, _bool, False, help)


def _file(dest: str, many: bool = False) -> _Param:
    return _Param((), dest, _input_file, many=many)


# command path ("qmp check") -> (function, parameters); groups list commands
_COMMANDS: dict[str, tuple[Callable, tuple[_Param, ...]]] = {}
_GROUPS = {"": "Certification toolkit for quantum realizability problems.",
           "qmp": "Quantum marginal problem checks."}
_ROOT = (_flag("--show-config", "Print all defaults as JSON and exit."),)


def _command(path: str, *params: _Param):
    def register(fn):
        _COMMANDS[path] = (fn, params)
        return fn
    return register


def _canonical(argv: list[str]) -> tuple[str, list[str]]:
    """The command path and the command line as argparse should read it.

    Each option that takes a value is joined to it (``--q=-0.5,1.5``), so a
    value that starts with '-' stays a value, and the command's options go
    before its positional arguments, so options may follow them."""
    path, head, rest = "", [], list(argv)
    while rest:
        tok = rest.pop(0)
        head.append(tok)
        if not tok.startswith("-"):
            path = f"{path} {tok}".strip()
            if path not in _GROUPS:
                break
    if path not in _COMMANDS:
        return path, head + rest
    takes_value = {f for p in _COMMANDS[path][1] if p.convert is not _bool for f in p.flags}
    opts, args = [], []
    while rest:
        tok = rest.pop(0)
        if tok == "--":
            args += [tok, *rest]
            break
        if tok in takes_value:
            if not rest:    # no value left: argparse reports it
                args.append(tok)
                break
            opts.append(f"{tok}={rest.pop(0)}")
        elif tok.startswith("-") and tok != "-":
            opts.append(tok)
        else:
            args.append(tok)
    return path, head + opts + args


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the usage, a hint and the message; exit 2."""

    def error(self, message):
        self.exit(2, f"{self.format_usage()}Try '{self.prog} -h' for help.\n\nError: {message}\n")


def _add(parser: argparse.ArgumentParser, p: _Param) -> None:
    if not p.flags:
        parser.add_argument(p.dest, nargs="+" if p.many else None, metavar=p.dest.upper())
        return
    text = p.help or ""
    if p.required:
        text += "  [required]"
    elif p.default is not None and p.convert is not _bool:
        text += f"  [default: {p.default}]"
    if p.convert is _bool:
        parser.add_argument(*p.flags, dest=p.dest, action="store_const", const="true",
                            help=text or None)
    else:
        parser.add_argument(*p.flags, dest=p.dest, metavar=_METAVAR[p.convert],
                            help=text or None)


def _parsers(prog: str, path: str) -> dict[str, argparse.ArgumentParser]:
    """One parser per group and command, by path; only ``path``'s command
    gets its arguments, since no other one runs."""
    parsers = {"": _Parser(prog=prog, description=_GROUPS[""], allow_abbrev=False)}
    parsers[""].set_defaults(_path="")
    subparsers = {}
    for name in sorted(_GROUPS.keys() | _COMMANDS.keys()):   # parents before children
        if not name:
            continue
        parent, _, leaf = name.rpartition(" ")
        if parent not in subparsers:
            subparsers[parent] = parsers[parent].add_subparsers(title="commands",
                                                                metavar="COMMAND")
        doc = _GROUPS[name] if name in _GROUPS else _COMMANDS[name][0].__doc__
        parsers[name] = subparsers[parent].add_parser(leaf, help=doc, description=doc,
                                                      allow_abbrev=False)
        parsers[name].set_defaults(_path=name)
    for p in _ROOT:
        _add(parsers[""], p)
    if path in _COMMANDS:
        for p in _COMMANDS[path][1]:
            _add(parsers[path], p)
    return parsers


def _arguments(path: str, params: tuple[_Param, ...], ns: argparse.Namespace) -> dict:
    """Each parameter's converted value: from the command line, else from
    its environment variable, else its default."""
    prefix = "_".join(["QREALIZE", *path.upper().replace("-", "_").split()])
    values = {}
    for p in params:
        text = getattr(ns, p.dest)
        if text is None and p.flags:
            text = os.environ.get(f"{prefix}_{p.dest.upper()}") or None
        if text is None:
            if p.required:
                raise ValueError(f"Missing option {p.label}.")
            values[p.dest] = p.default
            continue
        try:
            values[p.dest] = [p.convert(t) for t in text] if p.many else p.convert(text)
        except ValueError as exc:
            raise ValueError(f"Invalid value for {p.label}: {exc}") from None
    return values


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command.  Returns on success; otherwise raises SystemExit
    carrying 1 (VIOLATED), 2 (usage or input error, or an ArithmeticError)
    or 3 (budget stop)."""
    path, argv = _canonical(sys.argv[1:] if args is None else list(args))
    parsers = _parsers(prog_name or "qrealize", path)
    ns = parsers[""].parse_args(argv)
    parser = parsers[ns._path]
    try:
        if _arguments("", _ROOT, ns)["show_config"]:
            sys.stdout.write(dumps(_config_payload(), indent=2) + "\n")
            return
        if ns._path not in _COMMANDS:
            # the bare program lists its commands; a bare group is a usage error
            parser.print_help(sys.stderr if ns._path else sys.stdout)
            if ns._path:
                raise SystemExit(2)
            return
        fn, params = _COMMANDS[ns._path]
        code = fn(**_arguments(ns._path, params, ns))
    except ResourceBudgetError as exc:
        sys.stderr.write(f"resource budget exceeded: {exc}\n")
        raise SystemExit(3)
    except MemoryError as exc:
        detail = str(exc) or "out of memory"
        sys.stderr.write(f"resource budget exceeded: could not allocate ({detail})\n")
        raise SystemExit(3)
    except (ValueError, ArithmeticError) as exc:
        parser.error(str(exc))
    if code:
        raise SystemExit(code)


# ---------------------------------------------------------------------------
# Shared helpers of the commands


def _read_json_file(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    try:
        return loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _load_operator(path: str) -> Operator:
    data = _read_json_file(path)
    try:
        return operator_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid operator payload: {exc}")


def _load_density(path: str) -> DensityOperator:
    from .tensor import DensityOperator

    op = _load_operator(path)
    try:
        return DensityOperator(op)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"{path}: not a density operator: {exc}")


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _budget(budget_perms: int | None, budget_dim: int | None):
    for flag, value in (("--budget-perms", budget_perms), ("--budget-dim", budget_dim)):
        if value is not None and value <= 0:
            raise ValueError(f"{flag} must be positive")
    kwargs = {"perms_matrix_free": budget_perms, "dense_dim": budget_dim}
    return BUDGET.with_(**{k: v for k, v in kwargs.items() if v is not None})


def _tolerances(tol_psd: float | None):
    if tol_psd is not None and not 0 <= tol_psd < math.inf:
        raise ValueError(f"--tol-psd must be finite and >= 0, got {tol_psd}")
    return TOL if tol_psd is None else TOL.with_(psd=tol_psd)


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad numeric list {text!r}: {exc}")


def _ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}: {exc}")


def _config_payload() -> dict:
    return {
        "tolerances": TOL._asdict(),
        "budgets": BUDGET._asdict(),
        "seed": 0,
        "env_prefix": "QREALIZE",
    }


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
                    raise ValueError(
                        f"label {name} appears with dims {seen[name]} and {dim}")
            else:
                seen[name] = dim
                joint.append((name, dim))
    scen = MarginalScenario(
        LabeledSpace(tuple(joint)),
        tuple(tuple(r.space.names) for r in marginals))
    return MProductState(scen, tuple(marginals))


def _emit_certificate(cert, out) -> int:
    _emit(dumps(cert.to_json(), indent=2) + "\n", out)
    return 1 if cert.violated else 0


# ---------------------------------------------------------------------------
# Commands: each returns its exit code (None for 0)


_OUT = _opt("--out", _output_file)
_BUDGET_DIM = _opt("--budget-dim", _int, help=(
    "Cap on the dimension of every dense matrix built or diagonalised, and dense_dim**2 "
    "on the entries of any other dense array, the Lanczos basis included. Sets dense_dim."))
_BUDGET_PERMS = _opt("--budget-perms", _int, help=(
    "Cap on the (level x contexts)! slot permutations a wiring sum runs over. "
    "Sets perms_matrix_free."))


@_command("qmp check", _file("marginals", many=True),
          _opt("--level", _int, 1, "Hierarchy level n."),
          _opt("--tol-psd", _float, help="Gap threshold for VIOLATED."),
          _BUDGET_PERMS, _BUDGET_DIM, _OUT)
def qmp_check(marginals, level, tol_psd, budget_perms, budget_dim, out):
    """Run the level-n symmetric-subspace test on marginal operator files."""
    from .qmp import hierarchy_check

    state = _scenario_from_marginals(marginals)
    cert = hierarchy_check(
        state, level, tol=_tolerances(tol_psd), budget=_budget(budget_perms, budget_dim))
    return _emit_certificate(cert, out)


@_command("qmp witness3", _file("ab"), _file("ac"), _file("bc"),
          _opt("--tol-psd", _float, help="Violation threshold on the witness value."), _OUT)
def qmp_witness3(ab, ac, bc, tol_psd, out):
    """Three-qubit overlapping-pairs witness; nonzero certifies violation."""
    from .qmp import three_qubit_witness

    tol = _tolerances(tol_psd)
    rhos = []
    for path in (ab, ac, bc):
        rho = _load_density(path)
        if rho.space.dims != (2, 2):
            raise ValueError(f"{path}: witness3 needs two-qubit marginals")
        rhos.append(rho)
    value = three_qubit_witness(*rhos)
    if out:
        _emit(dumps({"value": value}, indent=2) + "\n", out)
    sys.stdout.write(format_float(value) + "\n")
    return 1 if value > tol.psd else 0


@_command("qmp bipartite", _file("rho_a"), _file("rho_b"), _OUT)
def qmp_bipartite(rho_a, rho_b, out):
    """Pure-state bipartite compatibility: spectra match, or a rate certificate."""
    from .qmp import bipartite_check

    result = bipartite_check(_load_density(rho_a), _load_density(rho_b))
    _emit(dumps(result.to_json(), indent=2) + "\n", out)
    return 0 if result.realizable else 1


@_command("qmp ortho", _file("marginals", many=True), _opt("--level", _int, 1),
          _opt("--rank", _int, help="Row bound v on the admitted shapes.", required=True),
          _opt("--tol-psd", _float), _BUDGET_PERMS, _BUDGET_DIM, _OUT)
def qmp_ortho(marginals, level, rank, tol_psd, budget_perms, budget_dim, out):
    """Rank-restricted isotypic-band variant of the hierarchy test."""
    from .qmp import ortho_bound_check

    state = _scenario_from_marginals(marginals)
    cert = ortho_bound_check(
        state, rank, level, tol=_tolerances(tol_psd),
        budget=_budget(budget_perms, budget_dim))
    return _emit_certificate(cert, out)


@_command("qmp subspace", _file("marginals", many=True),
          _opt("--projector", _input_file, required=True,
               help="Operator JSON for the joint-space subspace projector."),
          _opt("--level", _int, 1), _opt("--tol-psd", _float), _BUDGET_DIM, _OUT)
def qmp_subspace(marginals, projector, level, tol_psd, budget_dim, out):
    """Hierarchy test restricted to a joint subspace (e.g. an exclusion model)."""
    from .qmp import subspace_hierarchy_check

    state = _scenario_from_marginals(marginals)
    proj = _load_operator(projector)
    cert = subspace_hierarchy_check(
        state, proj, level, tol=_tolerances(tol_psd), budget=_budget(None, budget_dim))
    return _emit_certificate(cert, out)


@_command("keyl", _file("rho"), _file("sigma"),
          _opt("--copies", _int, help="Also evaluate the n-copy discrimination ratio and bound."),
          _OUT)
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


@_command("sanov",
          _opt("--q", dest="q_text", required=True, help="Comma-separated source distribution."),
          _opt("--type", dest="type_text", required=True, help="Comma-separated count vector."),
          _OUT)
def sanov_cmd(q_text, type_text, out):
    """Multinomial mass of one type against its large-deviation envelope."""
    from .divergence import sanov_bounds_check

    q = _floats(q_text)
    lam = _ints(type_text)
    if len(q) != len(lam):
        raise ValueError("--q and --type must have equal length")
    check = sanov_bounds_check(q, lam, sum(lam))
    _emit(dumps({"lower": check.lower, "value": check.value,
                 "upper": check.upper, "ok": check.ok}, indent=2) + "\n", out)


@_command("spectral-dist",
          _opt("--spec", dest="spec_text", required=True, help="Comma-separated spectrum."),
          _opt("-n --copies", _int, required=True), _OUT)
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


@_command("density",
          _opt("--eigs", dest="eigs_text", help="Comma-separated eigenvalues."),
          _opt("--mults", dest="mults_text",
               help="Comma-separated multiplicities (degenerate case)."),
          _opt("--pair-a", _input_file, help="First qubit observable (joint-density mode)."),
          _opt("--pair-b", _input_file),
          _opt("--at", dest="at_text", help="Evaluation point a,b for the joint mode."),
          _opt("--points", _int, 2000), _OUT)
def density_cmd(eigs_text, mults_text, pair_a, pair_b, at_text, points, out):
    """Expectation-value density: CSV curve, or one joint-density value."""
    from .estimation import (density_curve, density_degenerate, density_nondegenerate,
                             density_qubit_pair)

    if pair_a or pair_b:
        if not (pair_a and pair_b and at_text):
            raise ValueError("joint mode needs --pair-a, --pair-b and --at")
        point = _floats(at_text)
        if len(point) != 2:
            raise ValueError("--at must be two numbers")
        value = density_qubit_pair(
            _load_operator(pair_a), _load_operator(pair_b), point)
        _emit(dumps({"value": value}, indent=2) + "\n", out)
        return
    if not eigs_text:
        raise ValueError("provide --eigs or the --pair-a/--pair-b mode")
    eigs = _floats(eigs_text)
    if mults_text:
        mults = _ints(mults_text)
        if len(mults) != len(eigs):
            raise ValueError("--mults must match --eigs in length")
        pairs = list(zip(eigs, mults))
        fun = lambda x: density_degenerate(pairs, x)
    else:
        fun = lambda x: density_nondegenerate(eigs, x)
    curve = density_curve(fun, min(eigs), max(eigs), points)
    lines = ["x,f"]
    for x, f in curve.rows():
        lines.append(format_float(x) + "," + format_float(f))
    _emit("\n".join(lines) + "\n", out)


@_command("toy-xz", _opt("-m --shots", _int, help="Shots per basis.", required=True),
          _opt("--trials", _int, 10000), _opt("--seed", _int, 0), _opt("--bins", _int, 50),
          _flag("--exact", "Print corner/balanced bounds instead of sampling."), _OUT)
def toy_xz_cmd(shots, trials, seed, bins, exact, out):
    """Two-basis X/Z estimate histogram, or its exact corner/balanced bounds."""
    if exact:
        from .toy_xz import toy_xz_exact_bounds

        res = toy_xz_exact_bounds(shots)
        _emit(dumps({"corner_prob": res.corner_prob, "corner_bound": res.corner_bound,
                     "balanced_prob": res.balanced_prob,
                     "balanced_bound": res.balanced_bound}, indent=2) + "\n", out)
        return
    if bins < 1:
        raise ValueError(f"--bins must be >= 1, got {bins}")
    import numpy as np

    from .estimation import toy_xz_simulate

    samples = toy_xz_simulate(shots, trials, seed)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    hist, _, _ = np.histogram2d(samples[:, 0], samples[:, 1], bins=[edges, edges])
    lines = ["x_lo,x_hi,z_lo,z_hi,count"]
    for i, j in zip(*np.nonzero(hist)):    # row-major, as the CSV lists them
        lines.append(",".join([
            format_float(edges[i]), format_float(edges[i + 1]),
            format_float(edges[j]), format_float(edges[j + 1]), str(int(hist[i, j]))]))
    _emit("\n".join(lines) + "\n", out)


@_command("born-ratio", _file("projector"), _file("observable"),
          _opt("-n --copies", _int, required=True))
def born_ratio_cmd(projector, observable, copies):
    """Outcome probability after n repeated projective observations."""
    from .estimation import born_ratio

    value = born_ratio(
        _load_operator(projector), _load_operator(observable), copies)
    sys.stdout.write(format_float(value) + "\n")


@_command("biriffle", _file("operators", many=True),
          _opt("-d --dim", _int, help="Local dimension d.", required=True), _OUT)
def biriffle_cmd(operators, dim, out):
    """Averaged interleaving sum of k tensor-power operators."""
    from .symmetrizer import bibiriffle_lower_bound, biriffle_value

    xs = [_load_operator(p).mat for p in operators]
    if len(xs) != 2:
        payload = {"value": biriffle_value(xs, dim)}
    else:
        p_n, bound = bibiriffle_lower_bound(xs[0], xs[1], dim)
        payload = {"value": p_n, "bibiriffle_bound": bound,
                   "bound_ok": bool(p_n >= bound - 1e-12)}
    _emit(dumps(payload, indent=2) + "\n", out)


@_command("capacity", _file("rep"), _OUT)
def capacity_cmd(rep, out):
    """Torus capacity of a weight vector: {weights, amplitudes, blocks} JSON in."""
    from .capacity import capacity as torus_capacity
    from .capacity import torus_rep

    data = _read_json_file(rep)
    try:
        weights = data["weights"]
        blocks = data.get("blocks")
        amps = _complex_from_json(data["amplitudes"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{rep}: not a valid torus payload: {exc}")
    trep = torus_rep(weights, blocks)
    result = torus_capacity(trep, amps)
    _emit(dumps(result.to_json(), indent=2) + "\n", out)


if __name__ == "__main__":
    main()
