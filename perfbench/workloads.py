"""The three workloads: one closed-loop caller each.

A workload is set up once, then serves rounds of operations; each round is a
fixed, seeded list, and a run always ends on a round boundary so every run of
a seed sees the same mix.  ``Op.run`` is the timed part; ``Op.check`` is the
untimed correctness check and returns a failure cause or None.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from qrealize import jsonio, qmp, symmetrizer
from qrealize.tensor import DensityOperator, Operator, space

from . import inputs, references
from .inputs import JOINT

ROOT = Path(__file__).resolve().parents[1]
TRIANGLE = ("AB", "AC", "BC")
CHAIN = ("AB", "BC")

# Known defects of the program (ROADMAP items 5a and 4).  They still count as
# failed operations; any other failure cause marks the run incorrect.
KNOWN_DEFECTS = {
    "toy-xz-inexact": "known defect: toy-xz --exact misses the rational value by over 1e-6",
    "readme-labels-rejected": 'known defect: qmp check exits 2 on README "labels": [["A", 2]]',
}


def _state(contexts, mats) -> qmp.MProductState:
    scen = qmp.scenario(JOINT, contexts)
    rhos = tuple(DensityOperator(Operator(space((c[0], 2), (c[1], 2)), m))
                 for c, m in zip(contexts, mats))
    return qmp.MProductState(scen, rhos)


def _certificate_cause(cert_gap, witness, mats, contexts, n, rank=None) -> str | None:
    problem = references.certificate_problem(
        cert_gap, witness, mats, JOINT, contexts, n, rank)
    return None if problem is None else "certificate-rejected"


class Op:
    kind = "op"

    def run(self, traced: bool = False):
        raise NotImplementedError

    def collect(self, tracer) -> None:
        """Merge spans recorded outside this process into ``tracer``."""

    def check(self, out) -> str | None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# In-process workloads


class HierarchyOp(Op):
    """hierarchy_check at level 2, then the JSON the CLI would write."""

    def __init__(self, kind, contexts, mats):
        self.kind, self.contexts, self.mats = kind, contexts, mats
        self.state = _state(contexts, mats)

    def run(self, traced=False):
        cert = qmp.hierarchy_check(self.state, 2)
        return cert, jsonio.dumps(cert.to_json(), indent=2)

    def check(self, out) -> str | None:
        cert, text = out
        if json.loads(text)["gap"] != cert.gap:
            return "certificate-json-mismatch"
        return self._verdict_cause(cert)

    def _verdict_cause(self, cert) -> str | None:
        if self.kind == "haar":
            return "realizable-input-violated" if cert.violated else None
        if not cert.violated:
            return "planted-input-not-violated"
        return _certificate_cause(cert.gap, cert.witness, self.mats, self.contexts, 2)


class ChainOp(HierarchyOp):
    """Dense path: level-2 hierarchy check plus the rank-2 orthogonal bound."""

    def run(self, traced=False):
        return (qmp.hierarchy_check(self.state, 2),
                qmp.ortho_bound_check(self.state, 2, 2))

    def check(self, out) -> str | None:
        cert, ortho = out
        cause = self._verdict_cause(cert)
        if cause is None and ortho.violated:
            # rank-2 realizability is not known for these inputs, so only
            # the certificate itself is checked
            return _certificate_cause(ortho.gap, ortho.witness, self.mats, self.contexts, 2, rank=2)
        return cause


class Warm:
    """A warm in-process workload over a few distinct rounds of seeded inputs.

    Each round holds ``haar`` realizable inputs and, for every noise stratum
    (lo, hi, k), k planted inputs with p stratified over [lo, hi).  Every
    round has the same mix, so runs that end on a round boundary differ only
    in the inputs drawn, not in how much work an input costs.
    """

    name = ""
    contexts: tuple = ()
    op_class = HierarchyOp
    haar = 0
    planted_strata: tuple = ()
    distinct_rounds = 4
    tag = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds: list[list[Op]] = []

    @property
    def params(self) -> dict:
        planted = sum(k for _, _, k in self.planted_strata)
        return {"contexts": list(self.contexts), "level": 2, "haar_inputs": self.haar,
                "planted_inputs": planted,
                "planted_p_strata": [list(s) for s in self.planted_strata],
                "ops_per_round": self.haar + planted, "distinct_rounds": self.distinct_rounds}

    def setup(self) -> None:
        rng = inputs.rng_for(self.seed, self.tag)
        self.rounds = [self._round(rng) for _ in range(self.distinct_rounds)]
        # untimed warm-up: fills the wiring-sum caches
        warm = self.op_class("haar", self.contexts, inputs.haar_marginals(rng, self.contexts))
        warm.check(warm.run())

    def _round(self, rng) -> list[Op]:
        ops = [self.op_class("haar", self.contexts, inputs.haar_marginals(rng, self.contexts))
               for _ in range(self.haar)]
        for lo, hi, k in self.planted_strata:
            for p in inputs.stratified(rng, lo, hi, k):
                mat = inputs.planted_pair(p)
                ops.append(self.op_class("planted", self.contexts, [mat] * len(self.contexts)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def round(self, r: int) -> list[Op]:
        return self.rounds[r % len(self.rounds)]


class TriangleWarm(Warm):
    """Level-2 triangle: kept dimension 4096, the Lanczos (matvec) path.

    Planted inputs with p in [0.5, 0.6) need a second Lanczos cycle (130
    matvecs instead of 65); those with p in [0.65, 1) and the Haar inputs
    need one.  One of the four checks in a round takes the slow path, so p90
    lies inside the two-cycle checks and p50 inside the one-cycle ones.  The
    band [0.6, 0.65) holds the restart boundary and is left out, so the share
    of slow checks does not depend on the seed.
    """

    name = "triangle-l2-warm"
    contexts = TRIANGLE
    haar = 1
    planted_strata = ((0.5, 0.6, 1), (0.65, 1.0, 2))
    distinct_rounds = 8
    tag = 1


class ChainDense(Warm):
    """Level-2 chain: kept dimension 256, the dense to_matrix + eigh path."""

    name = "chain-l2-dense"
    contexts = CHAIN
    op_class = ChainOp
    haar = 20
    planted_strata = ((0.7, 0.9, 20),)
    tag = 2

    @property
    def params(self) -> dict:
        return {**super().params, "ortho_rank": 2}


# ---------------------------------------------------------------------------
# Cold CLI workload


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class CliOp(Op):
    """One fresh interpreter running a qrealize command.

    Untraced it is ``python -m qrealize.cli``; traced, ``perfbench/boot.py``
    installs the wrappers first and writes its spans to ``spans``.
    """

    def __init__(self, kind, args, expect_exit, verify=None, out: Path | None = None,
                 spans: Path | None = None):
        self.kind, self.args, self.expect_exit = kind, args, expect_exit
        self.verify, self.out, self.spans = verify, out, spans

    def run(self, traced=False):
        for path in (self.out, self.spans):
            if path is not None and path.exists():
                path.unlink()
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "boot.py"), str(self.spans), *self.args]
        else:
            cmd = [sys.executable, "-m", "qrealize.cli", *self.args]
        return subprocess.run(cmd, capture_output=True, text=True, env=cli_env(),
                              cwd=ROOT, timeout=150)

    def collect(self, tracer) -> None:
        if self.spans is None or not self.spans.exists():
            return
        rec = json.loads(self.spans.read_text(encoding="utf-8"))
        tracer.graft(rec["spans"])
        tracer.counts.update(rec["counts"])
        tracer.missing = sorted(set(tracer.missing) | set(rec["missing"]))
        tracer.counts["cli.import_s"] += rec["import_s"]
        tracer.counts["cli.processes"] += 1

    def check(self, proc) -> str | None:
        if proc.returncode != self.expect_exit:
            if self.kind == "check-l1-readme" and proc.returncode == 2:
                return "readme-labels-rejected"
            return f"{self.kind}-exit-{proc.returncode}"
        if self.verify is None:
            return None
        text = self.out.read_text(encoding="utf-8") if self.out is not None else proc.stdout
        try:
            return self.verify(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{self.kind}-unreadable-output-{type(exc).__name__}"


def _cert_verifier(mats, violated: bool):
    def verify(text):
        cert = json.loads(text)
        if (cert["verdict"] == qmp.VERDICT_VIOLATED) != violated:
            return "planted-input-not-violated" if violated else "realizable-input-violated"
        if not violated:
            return None
        w = np.array(cert["witness_re"]) + 1j * np.array(cert["witness_im"])
        return _certificate_cause(cert["gap"], w, mats, TRIANGLE, cert["level"])
    return verify


def _json_verifier(cause, predicate):
    def verify(text):
        return None if predicate(json.loads(text)) else cause
    return verify


def _spectral_verifier(copies: int, d: int):
    def verify(text):
        lines = text.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        ok = (len(rows) == references.partition_count(copies, d)
              and abs(sum(float(r[-1]) for r in rows) - 1.0) <= 1e-9)
        return None if ok else "spectral-dist-wrong-output"
    return verify


PAIR_LABELS = {c: ((c[0], 2), (c[1], 2)) for c in TRIANGLE}
SWAP_SYM = (np.eye(4) + np.eye(4)[[0, 2, 1, 3]]) / 2   # projector onto Sym^2(C^2)
CAPACITY_BOUNDED = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]
CAPACITY_UNBOUNDED = [[1, 0], [1, 1], [2, -1], [1, -1]]   # separated by (1, 0)
TOY_XZ_M = range(1, 21)


class CliCold:
    """Fresh CLI processes over a fixed mix of commands.

    Each round holds one of every command below, and toy-xz once for every
    m in 1..20, in a seeded order.  Every round runs the same commands, so
    the share of failed operations is the same in every run that ends on a
    round boundary, whatever the seed and however many rounds fit.
    Planted triangle inputs use p in [0.7, 1), where one Lanczos cycle
    suffices: the slow p range is measured by triangle-l2-warm.
    """

    name = "cli-cold"
    distinct_rounds = 4
    copies_spectral = 20
    copies_keyl = 8

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.rounds: list[list[CliOp]] = []

    @property
    def params(self) -> dict:
        return {"ops_per_round": len(self.rounds[0]) if self.rounds else None,
                "distinct_rounds": self.distinct_rounds,
                "commands": sorted({op.kind for op in self.rounds[0]}) if self.rounds else [],
                "planted_p_range": [0.7, 1.0], "toy_xz_m": [1, 20],
                "spectral_copies": self.copies_spectral, "keyl_copies": self.copies_keyl}

    def setup(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        rng = inputs.rng_for(self.seed, 3)
        self.rounds = [self._round(r, rng) for r in range(self.distinct_rounds)]

    def round(self, r: int) -> list[CliOp]:
        return self.rounds[r % len(self.rounds)]

    def _round(self, r: int, rng) -> list[CliOp]:
        d = self.work / f"r{r}"
        d.mkdir()

        def op_file(name, labels, mat, readme=False):
            payload = inputs.operator_payload(labels, mat, readme_form=readme)
            return inputs.write_json(d / f"{name}.json", payload)

        def triple(name, mats, readme=False):
            return [op_file(f"{name}_{c}", PAIR_LABELS[c], m, readme)
                    for c, m in zip(TRIANGLE, mats)]

        def op(kind, args, expect, verify=None, out=None):
            return CliOp(kind, args, expect, verify, out, spans=d / f"{kind}.spans.json")

        haar = inputs.haar_marginals(rng, TRIANGLE)
        p1, p2 = rng.uniform(0.7, 1.0, size=2)
        readme_planted = [inputs.planted_pair(p1)] * 3
        planted = [inputs.planted_pair(p2)] * 3
        haar_f = triple("haar", haar)
        readme_f = triple("readme", readme_planted, readme=True)
        planted_f = triple("planted", planted)

        def check(kind, files, level, mats, violated):
            out = d / f"{kind}.cert.json"
            args = ["qmp", "check", *files, "--level", str(level), "--out", str(out)]
            return op(kind, args, int(violated), _cert_verifier(mats, violated), out)

        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m /= np.linalg.norm(m)
        bip_a, bip_b = m @ m.conj().T, m.T @ m.conj()
        other_a, other_b = inputs.ginibre_density(rng, 2), inputs.ginibre_density(rng, 2)
        rho, sigma = inputs.ginibre_density(rng, 3), inputs.ginibre_density(rng, 3)
        spec = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        xs = [SWAP_SYM @ np.kron(a, a) @ SWAP_SYM
              for a in (inputs.ginibre_density(rng, 2), inputs.ginibre_density(rng, 2))]
        biriffle_ref = symmetrizer.biriffle_bruteforce(xs, 2)
        cap_files = []
        for name, weights in (("cap_bounded", CAPACITY_BOUNDED),
                              ("cap_unbounded", CAPACITY_UNBOUNDED)):
            amps = rng.standard_normal(len(weights)) + 1j * rng.standard_normal(len(weights))
            cap_files.append(inputs.write_json(d / f"{name}.json", {
                "weights": weights,
                "amplitudes": {"re": amps.real.tolist(), "im": amps.imag.tolist()}}))
        rel_ent = references.relative_entropy(rho, sigma)
        rate = references.spectra_rate(other_a, other_b)

        bip = [op_file(name, [(label, 2)], mat) for name, label, mat in (
            ("bip_a", "A", bip_a), ("bip_b", "B", bip_b),
            ("oth_a", "A", other_a), ("oth_b", "B", other_b))]
        slots = [("s0", 2), ("s1", 2)]

        def toy_xz(m):
            return op(f"toy-xz-m{m}", ["toy-xz", "--exact", "-m", str(m)], 0, _json_verifier(
                "toy-xz-inexact", lambda j: not references.toy_xz_mismatches(m, j)))

        ops = [
            check("check-l1", haar_f, 1, haar, False),
            check("check-l1-readme", readme_f, 1, readme_planted, True),
            check("check-l2", haar_f, 2, haar, False),
            check("check-l2-planted", planted_f, 2, planted, True),
            op("witness3-haar", ["qmp", "witness3", *haar_f], 0,
               lambda t: None if abs(float(t)) <= 1e-9 else "witness3-wrong-output"),
            op("witness3-planted", ["qmp", "witness3", *planted_f], 1,
               lambda t: None if float(t) > 1e-9 else "witness3-wrong-output"),
            op("bipartite-realizable", ["qmp", "bipartite", *bip[:2]], 0, _json_verifier(
                "bipartite-wrong-output", lambda j: j["realizable"] is True and j["rate"] <= 1e-9)),
            op("bipartite-distinct", ["qmp", "bipartite", *bip[2:]], 1, _json_verifier(
                "bipartite-wrong-output",
                lambda j: j["realizable"] is False and abs(j["rate"] - rate) <= 1e-9)),
            op("keyl", ["keyl", op_file("rho", [("A", 3)], rho),
                        op_file("sigma", [("A", 3)], sigma), "--copies", str(self.copies_keyl)],
               0, _json_verifier("keyl-wrong-output", lambda j: j["ok"] is True
                                 and -1e-12 <= j["keyl"] <= rel_ent + 1e-9)),
            op("spectral-dist", ["spectral-dist", "--spec", ",".join(repr(float(x)) for x in spec),
                                 "--copies", str(self.copies_spectral)], 0,
               _spectral_verifier(self.copies_spectral, 3)),
            *(toy_xz(m) for m in TOY_XZ_M),
            op("capacity-bounded", ["capacity", cap_files[0]], 0, _json_verifier(
                "capacity-wrong-output",
                lambda j: j["unbounded"] is False and math.hypot(*j["moment_map"]) <= 1e-6)),
            op("capacity-unbounded", ["capacity", cap_files[1]], 0, _json_verifier(
                "capacity-wrong-output",
                lambda j: j["unbounded"] is True and j["capacity"] == 0.0)),
            op("biriffle", ["biriffle", op_file("x1", slots, xs[0]), op_file("x2", slots, xs[1]),
                            "--dim", "2"], 0, _json_verifier(
                "biriffle-wrong-output", lambda j: j["bound_ok"] is True
                and abs(j["value"] - biriffle_ref) <= 1e-9 * max(1.0, abs(biriffle_ref)))),
        ]
        return [ops[i] for i in rng.permutation(len(ops))]


def make(name: str, seed: int, work: Path):
    if name == TriangleWarm.name:
        return TriangleWarm(seed)
    if name == ChainDense.name:
        return ChainDense(seed)
    if name == CliCold.name:
        return CliCold(seed, work)
    raise ValueError(f"unknown workload {name!r}")

