"""Per-layer tracing from outside the program.

``install`` rebinds the public pdmsi functions listed in TARGETS on their
module, on every pdmsi module that imported them, and on the class for
methods, so every call records a span (name, start, end, parent, item) in a
``Recorder``.  ``src/`` is not edited, and ``uninstall`` restores the
originals.  Self time is a span's duration minus the time its child spans
cover, accumulated as spans close; the time spent hashing inputs for
``distinct_frac`` is left out of every span's self time.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=complex)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _si_measure_name(args, kwargs) -> str:
    p = kwargs.get("p", args[1] if len(args) > 1 else 1.0)
    return "pdm.si_measure." + {1.0: "p1", 2.0: "p2"}.get(p, "pother")


def _count_produced(rec, args, kwargs, result):
    rec.counters["pdm.correlator_entries"] += len(result.entries)


def _count_consumed(rec, args, kwargs, result):
    rec.counters["pdm.correlator_entries"] += len(args[0].entries)


def _count_shots(rec, args, kwargs, result):
    rec.counters["sampling.shots"] += int(result.shots)


# (module, attribute path, metric name, input digest, counter hook).  A
# digest marks inputs so ``distinct_frac`` = distinct inputs / calls shows
# repeated work; a hook adds to an exact counter.
TARGETS = [
    ("linalg", "eig_hermitian", "linalg.eig_hermitian", lambda a, k: _digest(a[0]), None),
    ("linalg", "project_simplex", "linalg.project_simplex", None, None),
    ("linalg", "pseudo_inverse", "linalg.pseudo_inverse", None, None),
    ("linalg", "superop_exp", "linalg.superop_exp", None, None),
    ("states", "check_density_matrix", "states.check_density_matrix", None, None),
    ("observables", "ObservableBasis.from_descriptor", "observables.ObservableBasis.from_descriptor", None, None),
    ("observables", "ObservableBasis.default_for_dim", "observables.ObservableBasis.default_for_dim", None, None),
    ("observables", "light_touch_basis", "observables.light_touch_basis", None, None),
    ("channels", "KrausChannel.__init__", "channels.KrausChannel.init", None, None),
    ("channels", "KrausChannel.jamiolkowski", "channels.KrausChannel.jamiolkowski",
     lambda a, k: _digest(*a[0].kraus_ops), None),
    ("channels", "KrausChannel.superoperator", "channels.KrausChannel.superoperator", None, None),
    ("channels", "KrausChannel.__call__", "channels.KrausChannel.apply", None, None),
    ("channels", "KrausChannel.compose", "channels.KrausChannel.compose", None, None),
    ("pdm", "pdm_closed_form", "pdm.pdm_closed_form", lambda a, k: _digest(a[0], *a[1].kraus_ops), None),
    ("pdm", "si_measure", _si_measure_name, None, None),
    ("pdm", "check_bound", "pdm.check_bound", None, None),
    ("pdm", "synthesize_witness", "pdm.synthesize_witness", None, None),
    ("pdm", "evaluate_witness", "pdm.evaluate_witness", None, None),
    ("pdm", "exact_correlators", "pdm.exact_correlators", None, _count_produced),
    ("pdm", "pdm_from_correlators", "pdm.pdm_from_correlators", None, _count_consumed),
    ("pdm", "CorrelatorTable.to_csv", "pdm.CorrelatorTable.to_csv", None, None),
    ("pdm", "CorrelatorTable.from_csv", "pdm.CorrelatorTable.from_csv", None, None),
    ("sampling", "sample_table", "sampling.sample_table", None, None),
    ("sampling", "sample_two_time", "sampling.sample_two_time", None, _count_shots),
    ("sampling", "projectors_for", "sampling.projectors_for", None, None),
    ("coherence", "classify_channel", "coherence.classify_channel", None, None),
    ("coherence", "block_positivity_test", "coherence.block_positivity_test", None, None),
    ("leggett_garg", "lg_vs_si", "leggett_garg.lg_vs_si", None, None),
    ("leggett_garg", "lg_evaluate", "leggett_garg.lg_evaluate", None, None),
    ("serialize", "dump_json", "serialize.dump_json", None, None),
    ("serialize", "write_atomic", "serialize.write_atomic", None, None),
    ("cli", "main", "cli.main", None, None),
]

# Spans the launcher records itself rather than through a wrapper.
EXTRA_FUNCTIONS = ["cli.import"]
DISTINCT = ["linalg.eig_hermitian", "channels.KrausChannel.jamiolkowski", "pdm.pdm_closed_form"]
COUNTERS = ["sampling.shots", "pdm.correlator_entries"]
MODULES = ["linalg", "states", "observables", "channels", "pdm", "sampling",
           "coherence", "leggett_garg", "serialize", "cli"]


def function_names() -> list[str]:
    names = []
    for _, _, metric, _, _ in TARGETS:
        if callable(metric):
            names += [f"pdm.si_measure.{p}" for p in ("p1", "p2", "pother")]
        else:
            names.append(metric)
    return names + EXTRA_FUNCTIONS


class Recorder:
    """Spans, call counts, self times, error counts and input digests, in memory."""

    def __init__(self):
        self.spans = []  # (id, parent id, item, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.digests = defaultdict(set)
        self.counters = Counter()
        self.item = None
        self._next_id = 0
        self._stack = []  # [span id, name, start, time covered by children]

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def leave(self) -> None:
        end = time.perf_counter()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        self.spans.append((span_id, None if parent is None else parent[0], self.item, name, start, end))

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` spent by the tracer itself out of the open span's self time."""
        if self._stack:
            self._stack[-1][3] += seconds

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller, with no parent."""
        self.calls[name] += 1
        self.self_s[name] += end - start
        self.spans.append((self._next_id, None, self.item, name, start, end))
        self._next_id += 1

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "digests": {k: sorted(v) for k, v in self.digests.items()},
            "counters": dict(self.counters),
            "spans": self.spans,
        }

    def merge(self, data: dict, item=None) -> None:
        """Add a recorder dumped by a child process (spans re-tagged with ``item``)."""
        self.calls.update(data["calls"])
        for k, v in data["self_s"].items():
            self.self_s[k] += v
        self.errors.update(data["errors"])
        for k, v in data["digests"].items():
            self.digests[k].update(v)
        self.counters.update(data["counters"])
        base = self._next_id
        for span_id, parent, _, name, start, end in data["spans"]:
            self.spans.append((base + span_id, None if parent is None else base + parent,
                               item, name, start, end))
            self._next_id = max(self._next_id, base + span_id + 1)

    def metrics(self) -> dict:
        """Per-layer metrics by name (value, unit) for every target, zero when unused."""
        out = {}
        for name in function_names():
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        for module in MODULES:
            out[f"{module}.errors"] = (self.errors.get(module, 0), "count")
        for name in DISTINCT:
            calls = self.calls.get(name, 0)
            out[f"{name}.distinct_frac"] = (len(self.digests.get(name, ())) / calls if calls else 1.0,
                                            "ratio")
        for name in COUNTERS:
            out[name] = (self.counters.get(name, 0), "count")
        return out


def _wrap(rec: Recorder, module: str, fn, metric, digest, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = metric(args, kwargs) if callable(metric) else metric
        if digest is not None:
            start = time.perf_counter()
            rec.digests[name].add(digest(args, kwargs))
            rec.exclude(time.perf_counter() - start)
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            rec.errors[module] += 1
            raise
        finally:
            rec.leave()
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def install(rec: Recorder) -> list:
    """Rebind every target to a recording wrapper; returns the undo list for ``uninstall``."""
    import pdmsi.cli  # noqa: F401  (load every module so all bindings are found)

    loaded = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "pdmsi" or n.startswith("pdmsi."))]
    undo = []
    for module, path, metric, digest, hook in TARGETS:
        owner = sys.modules[f"pdmsi.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(rec, module, raw.__func__, metric, digest, hook))
            else:
                new = _wrap(rec, module, raw, metric, digest, hook)
            undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            continue
        original = getattr(owner, path)
        new = _wrap(rec, module, original, metric, digest, hook)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, new)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
