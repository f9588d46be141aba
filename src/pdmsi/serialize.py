"""Deterministic JSON/CSV emission: sorted keys, floats at 17 significant digits.

Identical inputs must produce byte-identical files, so floats are formatted
explicitly instead of relying on library repr behavior.  A complex number is
written as ``[re, im]``, an array as its nested lists and a dataclass
instance as the object of its fields.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os

import numpy as np


# A float's text, by whether it is integral and below 1e17 in magnitude, where .17g writes no point:
# %.1f writes those digits and a ".0", so a round number keeps a float-typed token across round trips.
_SPECS = ("%.17g", "%.1f")


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    x = float(x)
    return _SPECS[x.is_integer() and abs(x) < 1e17] % x


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
        if obj.dtype.kind in "fc" and obj.size:
            return _dump_floats(obj, indent)
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _block("[", ((inner, dumps(v, indent + 2)) for v in obj), pad + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return _block("{", ((f"{inner}{json.dumps(str(key))}: ", dumps(obj[key], indent + 2))
                            for key in sorted(obj, key=str)), pad + "}")
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _block(opening: str, lines, closing: str) -> str:
    """``opening``, then each ``prefix + text`` of ``lines`` on its own line, comma-separated, then
    ``closing`` on its own: one join, with a long text referenced rather than copied into its line."""
    parts = [opening + "\n"]
    for prefix, text in lines:
        parts += (prefix + text, ",\n") if len(text) < 4096 else (prefix, text, ",\n")
    parts[-1] = "\n" + closing
    return "".join(parts)


def _list_template(shape: tuple, indent: int) -> str:
    """The text ``dumps`` writes for nested lists of ``shape`` at ``indent``, ``%s`` for each number."""
    if not shape:
        return "%s"
    child = " " * (indent + 2) + _list_template(shape[1:], indent + 2)
    return "[\n" + ",\n".join([child] * shape[0]) + "\n" + " " * indent + "]"


def _dump_floats(a: np.ndarray, indent: int) -> str:
    """``dumps(a.tolist(), indent)`` for a non-empty float or complex array, a complex entry as
    ``[re, im]``, built one top-level entry at a time, so no Python object is made per number.

    Each entry's numbers fill one ``%`` template, each at the ``_SPECS`` entry ``format_float`` picks.
    """
    x = np.stack((a.real, a.imag), axis=-1) if a.dtype.kind == "c" else np.asarray(a, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite float {float(x[~finite][0])!r}")
    integral = (x == np.trunc(x)) & (np.abs(x) < 1e17)
    template, pad = _list_template(x.shape[1:], indent + 2), " " * (indent + 2)
    rows = (template % tuple(map(_SPECS.__getitem__, ints.ravel().tolist())) % tuple(row.ravel().tolist())
            for row, ints in zip(x, integral))
    return _block("[", ((pad, row) for row in rows), " " * indent + "]")


def dump_json(obj) -> str:
    return dumps(obj) + "\n"


def write_atomic(directory: str, files: dict[str, str]) -> None:
    """Write each text of ``files`` to its name in ``directory``, created if missing, via a renamed temp file.

    A name that is a directory is refused before anything is written, and every temp file is written
    before the first rename, so a failed write leaves none of the new files.  Each file is created with
    mode 0o666 less the umask, as by ``open(path, "w")``.
    """
    directory = os.path.abspath(directory)
    targets = [os.path.join(directory, name) for name in files]
    for target in targets:
        if os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    os.makedirs(directory, exist_ok=True)
    staged = []
    try:
        for text in files.values():
            tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the kernel applies the umask
            staged.append(tmp)
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
        for tmp, target in zip(staged, targets):
            os.replace(tmp, target)
    except BaseException:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
