"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

import json
import sys
from argparse import Namespace

import pytest

from perfbench import inputs, references, run, tracing, workloads
from qrealize import qmp
from qrealize.estimation import toy_xz_exact_bounds


def _any_wrapped() -> bool:
    """Whether any hook target currently is a tracing wrapper."""
    for modname, attr, _ in tracing.HOOKS:
        obj = sys.modules.get(modname)
        for part in attr.split(".") if obj is not None else ():
            obj = getattr(obj, part, None)
        if getattr(obj, tracing.WRAPPED, False):
            return True
    return False


def _violated(contexts, mats, rank=None):
    state = workloads._state(contexts, mats)
    cert = qmp.hierarchy_check(state, 2) if rank is None else qmp.ortho_bound_check(state, rank, 2)
    assert cert.violated
    return cert


@pytest.mark.parametrize("contexts, p, rank", [
    (workloads.CHAIN, 0.8, None),        # dense eigh path
    (workloads.CHAIN, 1.0, 2),           # isotypic band weights
    (workloads.TRIANGLE, 0.9, None),     # Lanczos path
])
def test_second_route_accepts_certificate_and_rejects_tampered_witness(contexts, p, rank):
    mats = [inputs.planted_pair(p)] * len(contexts)
    cert = _violated(contexts, mats, rank)
    args = (mats, inputs.JOINT, contexts, 2, rank)
    assert references.certificate_problem(cert.gap, cert.witness, *args) is None
    tampered = cert.witness.copy()
    tampered[: len(tampered) // 2] *= -1
    assert references.certificate_problem(cert.gap, tampered, *args) is not None


def test_second_route_rejects_swapped_marginal():
    mats = [inputs.planted_pair(0.8)] * 2
    cert = _violated(workloads.CHAIN, mats)
    other = inputs.haar_marginals(inputs.rng_for(0, 99), workloads.CHAIN)
    for swapped in ([mats[0], other[1]], [other[0], mats[1]]):
        problem = references.certificate_problem(
            cert.gap, cert.witness, swapped, inputs.JOINT, workloads.CHAIN, 2)
        assert problem is not None


def test_toy_xz_reference_is_exact_and_flags_a_perturbed_value():
    assert references.toy_xz_reference(2)["balanced_prob"] == 0.1
    assert references.toy_xz_reference(20)["balanced_prob"] == pytest.approx(0.0015161, rel=1e-4)
    got = toy_xz_exact_bounds(4)._asdict()
    assert references.toy_xz_mismatches(4, got) == []
    bad = dict(got, balanced_prob=got["balanced_prob"] * (1 + 1e-5))
    assert references.toy_xz_mismatches(4, bad) == ["balanced_prob"]


def test_every_round_has_the_same_mix(tmp_path):
    """Runs end on round boundaries, so equal rounds give every run the same
    share of slow checks and of known-defect operations, whatever the seed."""
    for seed in (0, 1):
        tri = workloads.TriangleWarm(seed)
        tri.setup()
        for ops in tri.rounds:
            slow = [op for op in ops if op.kind == "planted" and 4 * op.mats[0][1, 1].real - 1 < 0.6]
            assert (len(ops), len(slow)) == (4, 1)
        cli = workloads.CliCold(seed, tmp_path / str(seed))
        cli.setup()
        kinds = {tuple(sorted(op.kind for op in ops)) for ops in cli.rounds}
        assert len(kinds) == 1
        toy = [op.args for op in cli.rounds[0] if op.args[0] == "toy-xz"]
        assert sorted(int(a[-1]) for a in toy) == list(range(1, 21))


def test_traced_spans_nest_and_self_times_are_non_negative():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mats = [inputs.planted_pair(0.9)] * 3
        with tracer.span("op"):
            qmp.hierarchy_check(workloads._state(workloads.TRIANGLE, mats), 2)
            qmp.hierarchy_check(workloads._state(workloads.CHAIN, mats[:2]), 2)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"qmp.check", "tensor.lanczos", "qmp.matvec", "symmetrizer.apply",
            "symmetrizer.to_matrix"} <= names
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
            child[parent] += end - start
    for (name, start, end, parent), covered in zip(spans, child):
        assert end - start - covered >= -1e-9
    _, selft, calls = tracing.span_tables(spans)
    assert all(v >= -1e-9 for v in selft.values())
    assert calls["qmp.matvec"] >= 65 * calls["tensor.lanczos"] > 0


def test_untraced_run_installs_no_wrapper(monkeypatch):
    seen = []
    original = workloads.ChainOp.run

    def run_and_look(self, traced=False):
        seen.append(_any_wrapped())
        return original(self, traced)

    monkeypatch.setattr(workloads.ChainOp, "run", run_and_look)
    args = Namespace(workload="chain-l2-dense", seed=0, seconds=0.0, trace=0)
    rec = run.run_workload(args)
    assert seen and not any(seen)
    assert rec["failed"] == 0

    seen.clear()
    rec = run.run_workload(Namespace(**{**vars(args), "trace": 1}))
    assert any(seen) and not _any_wrapped()
    assert rec["metrics"]["qmp.check_s"]["value"] > 0


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
