"""Deterministic JSON/CSV emission: sorted keys, floats at 17 significant digits.

Identical inputs must produce byte-identical files, so floats are formatted
explicitly instead of relying on library repr behavior.  A complex number is
written as ``[re, im]``, an array as its nested lists and a dataclass
instance as the object of its fields.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

import numpy as np


def format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(float(x), ".17g")
    # Keep a float-typed token for round numbers so types survive round-trips.
    if "e" not in text and "." not in text and "inf" not in text and "nan" not in text:
        text += ".0"
    return text


def dumps(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, complex):
        return dumps([obj.real, obj.imag], indent)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dumps({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, indent)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            items.append(f"{inner}{json.dumps(str(key))}: {dumps(obj[key], indent + 2)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dump_json(obj) -> str:
    return dumps(obj) + "\n"


def write_atomic(path: str, content: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
