"""JSON writing for result records, and reading of operator inputs.

An operator is read from ``{"labels": [{"name": "A", "dim": 2}, ...],
"re": [[...]], "im": [[...]]}``; labels may also be ``[name, dim]`` pairs
(``[["A", 2], ...]``), and "im" may be left out; if given, it has the
shape of "re".  Floats are written with
17 significant digits, enough for an exact float64 round trip; the stdlib
encoder's shortest-repr output is not used so the emitted byte strings stay
stable across interpreter versions.  numpy and ``tensor`` are imported only
by the operator reader, so a process that writes plain records never loads
them.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .tensor import LabeledSpace, Operator


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(float(x), ".17g")


def dumps(value: Any, indent: int | None = None) -> str:
    """JSON text with floats at 17 significant digits.

    Handles dict / list / tuple / str / bool / None / int / float and numpy
    scalars.  Dict keys must be strings; insertion order is preserved, so a
    fixed input gives byte-identical output.
    """
    out: list[str] = []
    _emit(value, out, indent, 0)
    return "".join(out)


def _emit(v: Any, out: list[str], indent: int | None, depth: int) -> None:
    nl = "" if indent is None else "\n" + " " * (indent * (depth + 1))
    nl_close = "" if indent is None else "\n" + " " * (indent * depth)
    if isinstance(v, dict):
        out.append("{")
        for i, (k, item) in enumerate(v.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k)}")
            if i:
                out.append(",")
            out.append(nl)
            out.append(json.dumps(k))
            out.append(": " if indent is not None else ":")
            _emit(item, out, indent, depth + 1)
        out.append(nl_close)
        out.append("}")
    elif isinstance(v, (list, tuple)) and v and all(type(x) is float for x in v):
        # flat float list (certificate witnesses): one join, same bytes as
        # the per-item path below
        if not all(map(math.isfinite, v)):
            bad = next(x for x in v if not math.isfinite(x))
            raise ValueError(f"cannot serialize non-finite float {bad}")
        out.append("[")
        out.append(nl)
        out.append(("," + nl).join(["%.17g" % x for x in v]))
        out.append(nl_close)
        out.append("]")
    elif isinstance(v, (list, tuple)):
        out.append("[")
        for i, item in enumerate(v):
            if i:
                out.append(",")
            out.append(nl)
            _emit(item, out, indent, depth + 1)
        out.append(nl_close)
        out.append("]")
    elif isinstance(v, bool):
        out.append("true" if v else "false")
    elif v is None:
        out.append("null")
    elif isinstance(v, int):
        out.append(str(int(v)))
    elif isinstance(v, float):
        out.append(format_float(float(v)))
    elif isinstance(v, str):
        out.append(json.dumps(v))
    else:
        # a numpy scalar implies numpy is loaded; it is written as the
        # Python bool, int or float of the same value
        np = sys.modules.get("numpy")
        casts = ((np.bool_, bool), (np.integer, int), (np.floating, float)) if np else ()
        cast = next((c for kind, c in casts if isinstance(v, kind)), None)
        if cast is None:
            raise TypeError(f"cannot serialize {type(v)}")
        _emit(cast(v), out, indent, depth)


def loads(text: str) -> Any:
    return json.loads(text)


def _labels_from_json(labels: list) -> LabeledSpace:
    """Read labels as ``{"name", "dim"}`` objects or ``[name, dim]`` pairs;
    ``LabeledSpace`` rejects a dimension that is not an integer."""
    from .tensor import LabeledSpace

    pairs = []
    for l in labels:
        if isinstance(l, dict):
            pairs.append((l["name"], l["dim"]))
        else:
            name, dim = l
            pairs.append((name, dim))
    return LabeledSpace(tuple(pairs))


def _complex_from_json(data: dict):
    """``re + 1j * im`` from a payload's "re" and optional "im" arrays; an
    "im" whose shape differs from that of "re" is a ValueError."""
    import numpy as np

    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
    if im.shape != re.shape:
        raise ValueError(f'"im" has shape {im.shape}, but "re" has shape {re.shape}')
    return re + 1j * im


def operator_from_json(data: dict) -> Operator:
    from .tensor import Operator

    return Operator(_labels_from_json(data["labels"]), _complex_from_json(data))
