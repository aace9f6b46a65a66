"""Benchmark of the qrealize certification path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of triangle-l2-warm, chain-l2-dense, cli-cold, or ``all`` (each
workload in its own process).  Every workload is a closed loop with one
caller.  A run serves whole rounds of seeded operations until S seconds of
operation time have been measured, checks every output outside the timed
region, and prints the metrics by name with their units; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first serves
the same rounds untraced, then again with span wrappers installed around the
public calls of each layer, and reports the per-layer metrics together with
the tracing overhead.  BLAS is pinned to one thread so that runs on a small
shared machine repeat; the thread count in force is part of the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("triangle-l2-warm", "chain-l2-dense", "cli-cold")
SETUP_SAMPLES = {"warm": 3, "cli-cold": 30}
BLAS_THREADS = "1"

# name -> unit; the order is the print order
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "symmetrizer.apply_calls": "count/op",
    "symmetrizer.apply_s": "s/op",
    "symmetrizer.apply_ms_per_call": "ms/call",
    "symmetrizer.to_matrix_calls": "count/op",
    "symmetrizer.to_matrix_s": "s/op",
    "symmetrizer.build_s": "s/build",
    "symmetrizer.traced_perms": "count/build",
    "symmetrizer.terms": "count/build",
    "symmetrizer.term_merge_ratio": "ratio",
    "symmetrizer.biriffle_s": "s/op",
    "tensor.lanczos_calls": "count/op",
    "tensor.lanczos_matvecs": "count/call",
    "tensor.lanczos_self_s": "s/op",
    "tensor.lanczos_nonfinite": "count/op",
    "qmp.check_s": "s/op",
    "qmp.self_s": "s/op",
    "qmp.product_power_s": "s/op",
    "qmp.witness3_s": "s/op",
    "qmp.bipartite_s": "s/op",
    "jsonio.dumps_s": "s/op",
    "jsonio.loads_s": "s/op",
    "jsonio.cert_bytes": "bytes/cert",
    "estimation.toy_xz_exact_s": "s/op",
    "estimation.spectral_dist_s": "s/op",
    "divergence.keyl_s": "s/op",
    "divergence.ratio_bound_s": "s/op",
    "capacity.capacity_s": "s/op",
    "partitions.cycle_type_s": "s/build",
    "partitions.schur_polynomial_s": "s/op",
    "cli.import_s": "s/process",
    "cli.process_s": "s/process",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Phase:
    """Everything one pass of whole rounds measured."""

    latencies: list = field(default_factory=list)
    causes: Counter = field(default_factory=Counter)
    details: list = field(default_factory=list)
    timed: float = 0.0
    rounds: int = 0
    span_lo: int = 0
    span_hi: int = 0
    first_round_hi: int = 0
    first_round_ops: int = 0
    first_round_counts: Counter = field(default_factory=Counter)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.timed


def serve(wl, seconds: float, tracer=None) -> Phase:
    """Closed loop: whole rounds until ``seconds`` of operation time are in."""
    ph = Phase(span_lo=len(tracer.spans) if tracer else 0)
    counts_before = Counter(tracer.counts) if tracer else Counter()
    while True:
        for op in wl.round(ph.rounds):
            mark = len(tracer.spans) if tracer else 0
            out, cause = None, None
            t0 = perf_counter()
            try:
                with tracer.span("op") if tracer else nullcontext():
                    out = op.run(traced=tracer is not None)
                    dt = perf_counter() - t0
                    if tracer:
                        op.collect(tracer)
            except Exception:   # a failed operation is counted, the loop goes on
                dt = perf_counter() - t0
                cause = f"{op.kind}-raised"
                ph.details.append(traceback.format_exc(limit=4))
            if cause is None:
                with tracer.pause() if tracer else nullcontext():
                    try:
                        cause = op.check(out)
                    except Exception:
                        cause = f"{op.kind}-check-raised"
                        ph.details.append(traceback.format_exc(limit=4))
            if cause is None and tracer and any(
                    s[0] == "tensor.nonfinite_fallback" for s in tracer.spans[mark:]):
                cause = "lanczos-nonfinite-retried"
            ph.latencies.append(dt)
            ph.timed += dt
            if cause:
                ph.causes[cause] += 1
        ph.rounds += 1
        if ph.rounds == 1 and tracer:
            ph.first_round_hi = len(tracer.spans)
            ph.first_round_ops = len(ph.latencies)
            ph.first_round_counts = Counter(tracer.counts)
            ph.first_round_counts.subtract(counts_before)
        if ph.timed >= seconds:
            break
    ph.span_hi = len(tracer.spans) if tracer else 0
    return ph


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(ph: Phase, setup_samples: list[float], peak_rss_mb: float) -> dict:
    lat = ph.latencies
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": ph.ops_per_s,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict:
    from perfbench.tracing import span_tables

    total, selft, calls = span_tables(tracer.spans, traced.span_lo, traced.span_hi)
    _, _, calls1 = span_tables(tracer.spans, traced.span_lo, traced.first_round_hi)
    btotal, _, bcalls = span_tables(tracer.spans)    # set-up included: builds live there
    ops, ops1 = len(traced.latencies), traced.first_round_ops
    builds = bcalls["symmetrizer.build"]
    perms = bcalls["symmetrizer.traced_permutation"]
    terms = tracer.counts["symmetrizer.terms"]
    counts1 = traced.first_round_counts
    processes = tracer.counts["cli.processes"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "symmetrizer.apply_calls": calls1["symmetrizer.apply"] / ops1,
        "symmetrizer.apply_s": total["symmetrizer.apply"] / ops,
        "symmetrizer.apply_ms_per_call": 1e3 * ratio(total["symmetrizer.apply"],
                                                     calls["symmetrizer.apply"]),
        "symmetrizer.to_matrix_calls": calls1["symmetrizer.to_matrix"] / ops1,
        "symmetrizer.to_matrix_s": total["symmetrizer.to_matrix"] / ops,
        "symmetrizer.build_s": ratio(btotal["symmetrizer.build"], builds),
        "symmetrizer.traced_perms": ratio(perms, builds),
        "symmetrizer.terms": ratio(terms, builds),
        "symmetrizer.term_merge_ratio": ratio(terms, perms),
        "symmetrizer.biriffle_s": total["symmetrizer.biriffle"] / ops,
        "tensor.lanczos_calls": calls1["tensor.lanczos"] / ops1,
        "tensor.lanczos_matvecs": ratio(calls1["qmp.matvec"], calls1["tensor.lanczos"]),
        "tensor.lanczos_self_s": selft["tensor.lanczos"] / ops,
        "tensor.lanczos_nonfinite": calls["tensor.nonfinite_fallback"] / ops,
        "qmp.check_s": total["qmp.check"] / ops,
        "qmp.self_s": selft["qmp.check"] / ops,
        "qmp.product_power_s": selft["qmp.matvec"] / ops,
        "qmp.witness3_s": total["qmp.witness3"] / ops,
        "qmp.bipartite_s": total["qmp.bipartite"] / ops,
        "jsonio.dumps_s": total["jsonio.dumps"] / ops,
        "jsonio.loads_s": total["jsonio.loads"] / ops,
        "jsonio.cert_bytes": ratio(counts1["jsonio.cert_bytes"], counts1["jsonio.certs"]),
        "estimation.toy_xz_exact_s": total["estimation.toy_xz_exact"] / ops,
        "estimation.spectral_dist_s": total["estimation.spectral_dist"] / ops,
        "divergence.keyl_s": total["divergence.keyl"] / ops,
        "divergence.ratio_bound_s": total["divergence.ratio_bound"] / ops,
        "capacity.capacity_s": total["capacity.capacity"] / ops,
        "partitions.cycle_type_s": ratio(btotal["partitions.cycle_type"], builds),
        "partitions.schur_polynomial_s": total["partitions.schur_polynomial"] / ops,
        "cli.import_s": ratio(tracer.counts["cli.import_s"], processes),
        "cli.process_s": ratio(traced.timed, processes),
        "trace.overhead_ratio": untraced.ops_per_s / traced.ops_per_s,
    }


# ---------------------------------------------------------------------------
# Provenance


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, params: dict, missing_hooks: list) -> dict:
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(), "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(), "params": params, "missing_hooks": missing_hooks,
    }


# ---------------------------------------------------------------------------
# Driver


def _setup_probe(name: str, seed: int) -> float:
    from perfbench.workloads import cli_env
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"), name, str(seed)],
                          capture_output=True, text=True, cwd=ROOT, env=cli_env(), timeout=170,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _check_import_location() -> None:
    import qrealize
    if Path(qrealize.__file__).resolve().parent != (SRC / "qrealize").resolve():
        raise SystemExit(f"imported qrealize from {qrealize.__file__}, not from {SRC}")


def run_workload(args) -> dict:
    """Run one workload in this process; returns the result record."""
    from perfbench import probe
    from perfbench.tracing import Tracer

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    cold = args.workload == "cli-cold"
    tracer = Tracer() if args.trace else None
    try:
        if tracer and not cold:
            import perfbench.workloads  # noqa: F401  (modules must exist to be wrapped)
            tracer.install()
            with tracer.span("setup"):
                wl, own_setup = probe.timed_setup(args.workload, args.seed, work)
            tracer.uninstall()
        else:
            wl, own_setup = probe.timed_setup(args.workload, args.seed, work)
        _check_import_location()
        setup = []
        if not args.trace:
            if cold:    # set-up is writing the inputs; each process pays its own import
                for _ in range(SETUP_SAMPLES["cli-cold"]):
                    t0 = perf_counter()
                    wl.setup()
                    setup.append(perf_counter() - t0)
            else:
                setup = [own_setup] + [_setup_probe(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES["warm"] - 1)]
        first = serve(wl, args.seconds)
        phases = [first]
        if tracer:
            tracer.install()
            phases.append(serve(wl, args.seconds, tracer))
            tracer.uninstall()
            metrics = per_layer(tracer, first, phases[1])
            units = PER_LAYER
        else:
            who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
            metrics = end_to_end(first, setup, resource.getrusage(who).ru_maxrss / 1024)
            units = END_TO_END
    finally:
        if tracer:
            tracer.uninstall()
        if work.exists():
            shutil.rmtree(work)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    causes = sum((ph.causes for ph in phases), Counter())
    attempted = sum(len(ph.latencies) for ph in phases)
    from perfbench.workloads import KNOWN_DEFECTS
    return {
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "attempted": attempted,
        "failed": sum(causes.values()),
        "causes": dict(sorted(causes.items())),
        "unexpected": sorted(c for c in causes if c not in KNOWN_DEFECTS),
        "details": [d for ph in phases for d in ph.details][:5],
        "samples": [len(ph.latencies) for ph in phases],
        "rounds": [ph.rounds for ph in phases],
        "setup_samples": setup,
        "provenance": provenance(args, wl.params, tracer.missing if tracer else []),
    }


def report(name: str, rec: dict) -> None:
    from perfbench.workloads import KNOWN_DEFECTS

    print(f"workload {name}")
    for key, m in rec["metrics"].items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    n = rec["samples"][0]
    print(f"  {'error_rate':34s} {rec['failed'] / rec['attempted']:.6g} "
          f"({rec['failed']} of {rec['attempted']} operations failed)")
    print(f"  latency samples per pass: {rec['samples']} in {rec['rounds']} rounds; "
          f"{n - int(0.9 * n)} lie beyond p90 in the first pass")
    for cause, count in rec["causes"].items():
        note = KNOWN_DEFECTS.get(cause, "UNEXPECTED")
        print(f"  failed: {cause} x{count} ({note})")
    for d in rec["details"]:
        print("  detail: " + d.strip().replace("\n", "\n    "))
    if rec["setup_samples"]:
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in rec['setup_samples'])}")
    print("provenance " + json.dumps(rec["provenance"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="operation time per pass (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "qrealize" / "__init__.py").is_file():
        print(f"no qrealize sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[0:1] = [str(ROOT), str(SRC)]
    if args.workload == "all":
        return run_all(args)
    rec = run_workload(args)
    report(args.workload, rec)
    print(json.dumps({"correct": not rec["unexpected"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
