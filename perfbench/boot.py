"""Tracing bootstrap for one CLI process.

    python3 perfbench/boot.py SPANS_OUT ARG...

Imports ``qrealize.cli`` (timed as the import cost), installs the span
wrappers of ``perfbench.tracing``, runs the command exactly as
``python -m qrealize.cli ARG...`` would, writes the spans to SPANS_OUT and
exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)   # the package, not this directory, shadows nothing

t0 = time.perf_counter()
import qrealize.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

from perfbench.tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
code = 1
try:
    cli.main(args=sys.argv[2:], prog_name="qrealize")
    code = 0
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
finally:
    tracer.uninstall()
    Path(sys.argv[1]).write_text(json.dumps(
        {"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts,
         "missing": tracer.missing}), encoding="utf-8")
sys.exit(code)
