"""Scenario-driven command line: parse a JSON config, dispatch, emit reports.

Every subcommand turns its arguments into a config, and every config takes
one path: ``validate_config``, then the kind's handler, which reads and checks
all of its fields before it computes anything (a sweep builds and checks each
chunk's channels just before that chunk), then one write of all its reports
(all of them or none), then the printed lines.

Exit codes: 0 success, 2 config/validation error (with a field diagnostic),
1 numerical or verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from importlib import resources
from itertools import chain

import numpy as np

from .channels import (
    KrausChannel,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)
from .coherence import classify_channel
from .exceptions import PdmsiError
from .leggett_garg import check_dichotomic, lg_vs_si
from .observables import PAULI_1Q, ObservableBasis
from .pdm import (
    WITNESS_POLICIES,
    _bound_check,
    _PdmStack,
    check_bound,
    evaluate_witness,
    exact_correlators,
    pdm_closed_form,
    si_measure,
    synthesize_witness,
)
from .sampling import sample_table, table_metadata
from .serialize import dump_json, write_atomic
from .states import check_density_matrix

CONFIG_VERSION = 1

# Size caps, checked before any allocation: a PDM build touches d^4 entries, a sweep one channel per point,
# an lg run three PDMs per state, and verify's trial counts grow with trials_scale.
# Every kernel takes a channel as its d_in d_out x d_in d_out Jamiolkowski matrix, so no cost grows with
# the number of Kraus operators.  A simulation draws one binomial per pair, so its time and
# memory do not grow with shots; MAX_SHOTS is a plausibility cap on the shots per pair an experiment records,
# and a larger count is a config error naming `shots`.
MAX_DIM = 32
MAX_GRID = 100_000
MAX_SHOTS = 10**7
MAX_TRIALS_SCALE = 10

# Channel builtins that take a parameter, and so can be swept -> (the parameter, builder from (value, state dimension)).
SWEEPS = {
    "amplitude_damping": ("gamma", lambda v, d: amplitude_damping_channel(v)),
    "depolarizing": ("p", depolarizing_channel),
}


class ScenarioError(PdmsiError, ValueError):
    """Config problem; carries the offending field for the diagnostic."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


def _is_number(x) -> bool:
    """A finite JSON number; booleans are not numbers here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _int(x, field: str, low: int, high: int | None = None) -> int:
    """A JSON integer in [``low``, ``high``]; booleans and floats such as ``1.0`` are not integers here."""
    if type(x) is not int or x < low or (high is not None and x > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ScenarioError(field, f"expected an integer {bounds}, got {x!r}")
    return x


def _number(x, field: str, low: float, strict: bool = False, high: float | None = None) -> float:
    """A finite JSON number >= ``low``, or > ``low`` when ``strict``, and <= ``high`` (when given)."""
    if not _is_number(x) or x < low or (strict and x == low) or (high is not None and x > high):
        bounds = f"{'>' if strict else '>='} {low:g}" + ("" if high is None else f" and <= {high:g}")
        raise ScenarioError(field, f"expected a finite number {bounds}, got {x!r}")
    return float(x)


def _choice(x, field: str, choices) -> str:
    """One of the strings in ``choices``."""
    if not isinstance(x, str) or x not in choices:
        raise ScenarioError(field, f"expected one of {', '.join(choices)}, got {x!r}")
    return x


def _parse_entry(x, field: str) -> complex:
    if _is_number(x):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(_is_number(v) for v in x):
        return complex(x[0], x[1])
    raise ScenarioError(field, f"matrix entries must be finite numbers or [re, im] pairs, got {x!r}")


def parse_matrix(obj, field: str, square: bool = True) -> np.ndarray:
    """A matrix literal: a list of rows of equal length (the row count too when ``square``), at most
    MAX_DIM rows and columns, checked before its entries are parsed."""
    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise ScenarioError(field, "expected a dense matrix as a list of rows")
    if max(len(obj), *(len(row) for row in obj)) > MAX_DIM:
        raise ScenarioError(field, f"matrix dimensions exceed the maximum {MAX_DIM}")
    rows = [[_parse_entry(x, field) for x in row] for row in obj]
    width = len(rows) if square else len(rows[0])
    if any(len(row) != width for row in rows):
        shape = "square" if square else "rectangular"
        raise ScenarioError(field, f"matrix must be {shape}, got row lengths {[len(r) for r in rows]}")
    return np.array(rows, dtype=complex)


def parse_state(obj, field: str = "state") -> np.ndarray:
    mat = parse_matrix(obj, field)
    try:
        return check_density_matrix(mat)
    except ValueError as exc:
        raise ScenarioError(field, f"not a valid density matrix: {exc}") from exc


_CHANNEL_RE = re.compile(r"^([a-z_]+)(?:\(([^)]*)\))?$")


def parse_channel(obj, field: str = "channel", dim: int | None = None) -> KrausChannel:
    """Channel literal: builtin name with optional argument, or Kraus/unitary dict."""
    try:
        if isinstance(obj, str):
            match = _CHANNEL_RE.match(obj.strip())
            if not match:
                raise ScenarioError(field, f"cannot parse channel literal {obj!r}")
            name, arg = match.group(1), match.group(2)
            if arg is not None and not arg.strip():
                raise ScenarioError(field, f"{name}() has an empty argument")
            if name in ("identity", "dephase"):
                d = _int(int(arg), field, 1, MAX_DIM) if arg else (dim or 2)
                return (identity_channel if name == "identity" else dephasing_channel)(d)
            if name in SWEEPS:
                parameter, build = SWEEPS[name]
                if arg is None:
                    raise ScenarioError(field, f"{name} needs a {parameter} argument")
                return build(float(arg), dim or 2)
            raise ScenarioError(field, f"unknown channel builtin {name!r}")
        if isinstance(obj, dict):
            unknown = set(obj) - {"kraus", "unitary"}
            if unknown or len(obj) != 1:
                raise ScenarioError(field, "channel dict must have exactly one of 'kraus', 'unitary'")
            if "unitary" in obj:
                return unitary_channel(parse_matrix(obj["unitary"], f"{field}.unitary"))
            ops = obj["kraus"]
            if not isinstance(ops, list) or not ops:
                raise ScenarioError(field, "'kraus' must be a non-empty list of matrices")
            return KrausChannel([parse_matrix(op, field, square=False) for op in ops])
    except ScenarioError:
        raise
    except (ValueError, PdmsiError) as exc:
        raise ScenarioError(field, f"invalid channel: {exc}") from exc
    raise ScenarioError(field, f"channel must be a string or dict, got {type(obj).__name__}")


def _channel(obj, field: str, dim: int | None, square: bool = False) -> KrausChannel:
    """A channel literal with input dimension ``dim`` (when given); ``square`` maps it to itself."""
    ch = parse_channel(obj, field, dim=dim)
    d_in = ch.in_dim if dim is None else dim
    d_out = d_in if square else ch.out_dim
    if (ch.in_dim, ch.out_dim) != (d_in, d_out):
        raise ScenarioError(field, f"channel maps dimension {ch.in_dim} to {ch.out_dim}, "
                                   f"expected {d_in} to {d_out}")
    return ch


def parse_observable(obj, dim: int, field: str = "q") -> np.ndarray:
    """A +/-1 observable on dimension ``dim``: a Pauli name (qubits only) or a matrix."""
    if isinstance(obj, str):
        if obj not in PAULI_1Q:
            raise ScenarioError(field, f"unknown observable name {obj!r}; use I/X/Y/Z or a matrix")
        q = PAULI_1Q[obj]
    else:
        q = parse_matrix(obj, field)
    if len(q) != dim:
        raise ScenarioError(field, f"observable has dimension {len(q)}, the states {dim}; "
                                   "the names I/X/Y/Z and the default Z are qubit observables")
    try:
        return check_dichotomic(q)
    except ValueError as exc:
        raise ScenarioError(field, f"not a +/-1 observable: {exc}") from exc


def load_config(path: str) -> dict:
    """Read a config file; a bare name that is not a file names a bundled scenario."""
    bundled = resources.files("pdmsi").joinpath("scenarios", path)
    if os.path.isfile(path):
        with open(path) as handle:
            text = handle.read()
    elif not os.path.dirname(path) and bundled.is_file():
        text = bundled.read_text()
    else:
        raise ScenarioError("config", f"config file {path!r} not found")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("config", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ScenarioError("config", "top-level config must be a JSON object")
    return cfg


def validate_config(cfg: dict) -> str:
    if "version" not in cfg:
        raise ScenarioError("version", "missing required field 'version'")
    if type(cfg["version"]) is not int or cfg["version"] != CONFIG_VERSION:
        raise ScenarioError("version", f"unsupported config version {cfg['version']!r}; use the integer 1")
    if "kind" not in cfg:
        raise ScenarioError("kind", "missing required field 'kind'")
    kind = cfg["kind"]
    if kind not in KINDS:
        raise ScenarioError("kind", f"unknown scenario kind {kind!r}")
    _, required, optional = KINDS[kind]
    present = set(cfg) - {"version", "kind"}
    for name in sorted(required - present):
        raise ScenarioError(name, f"missing required field {name!r} for kind {kind!r}")
    for name in sorted(present - required - optional):
        raise ScenarioError(name, f"unknown field {name!r} for kind {kind!r}")
    return kind


# Every handler reads and checks all its fields first, then computes, and
# returns (files by name, printed lines, whether every check passed).

def run_pdm(cfg: dict):
    state = parse_state(cfg["state"])
    ch = _channel(cfg["channel"], "channel", len(state))
    p = _number(cfg.get("p", 1.0), "p", 1)
    r = pdm_closed_form(state, ch)
    report = si_measure(r, p)
    lam = r.eig.eigenvalues
    out = {
        "kind": "pdm",
        "dims": list(r.dims),
        "matrix": r.mat,
        "eigenvalues": lam,
        "si": report.to_dict(),
    }
    if ch.in_dim == ch.out_dim:
        out["bound"] = check_bound(state, ch)
    lines = [f"T_{p:g} = {report.value:.12g}  (min eigenvalue {lam[0]:.12g})"]
    return {"pdm.json": dump_json(out)}, lines, True


def run_witness(cfg: dict):
    state = parse_state(cfg["state"])
    ch = _channel(cfg["channel"], "channel", len(state))
    policy = _choice(cfg.get("policy", "negative_eigenspace"), "policy", WITNESS_POLICIES)
    r = pdm_closed_form(state, ch)
    w = synthesize_witness(r, policy)
    table = exact_correlators(r, (w.basis1, w.basis2))
    expectation = evaluate_witness(w, table)
    out = {
        "kind": "witness",
        "expectation": expectation,
        "negativity": si_measure(r, 1.0).value,
        "policy": policy,
        "witness": w.to_dict(),
    }
    lines = [f"<W>_t = {expectation:.12g}  (negativity {out['negativity']:.12g})"]
    return {"witness.json": dump_json(out)}, lines, True


def run_classify(cfg: dict):
    dim = None if cfg.get("dim") is None else _int(cfg["dim"], "dim", 1, MAX_DIM)
    ch = _channel(cfg["channel"], "channel", dim, square=True)
    report = classify_channel(ch)
    out = {"kind": "classify", "report": report}
    holds = {"oi": report.is_oi, "ce": report.is_ce, "ci": report.is_ci,
             "di": report.is_di, "ncgd": report.is_ncgd}
    lines = ["class  holds  residual"]
    for name, ok in holds.items():
        note = f"   [{report.ncgd_mode}]" if name == "ncgd" else ""
        lines.append(f"{name.upper():<6} {'yes' if ok else 'no':<6} {report.residuals[name]:.3e}{note}")
    return {"classify.json": dump_json(out)}, lines, True


def run_lg(cfg: dict):
    if "states" in cfg and "state" in cfg:
        raise ScenarioError("states", "give either 'state' or 'states', not both")
    if "states" in cfg:
        raw = cfg["states"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError("states", "states must be a non-empty list of density matrices")
        states = [parse_state(raw[0], "states[0]")]
        # Each of the three legs stacks one d^4-entry PDM per state: no leg's stack exceeds one d = MAX_DIM PDM.
        cap = _sweep_chunk(len(states[0]))
        if len(raw) > cap:
            raise ScenarioError("states", f"states has {len(raw)} states of dimension {len(states[0])}, "
                                          f"at most {cap} allowed")
        states += [parse_state(s, f"states[{i}]") for i, s in enumerate(raw[1:], 1)]
    elif "state" in cfg:
        states = [parse_state(cfg["state"])]
    else:
        raise ScenarioError("state", "lg scenario needs 'state' or 'states'")
    d = len(states[0])
    for i, rho in enumerate(states):
        if len(rho) != d:
            raise ScenarioError(f"states[{i}]", f"state has dimension {len(rho)}, states[0] has {d}")
    ch = _channel(cfg["channel"], "channel", d, square=True)
    ch2 = _channel(cfg["channel2"], "channel2", d, square=True) if "channel2" in cfg else ch
    q = parse_observable(cfg.get("q", "Z"), d)
    summary = lg_vs_si(ch, states, q_list=[q], ch23=ch2)
    out = {
        "kind": "lg",
        "results": summary.results,
        "comparison": summary.to_dict(),
    }
    lines = []
    for i, res in enumerate(summary.results):
        lines.append(
            f"state {i}: C12={res.c12:+.6f}  C23={res.c23:+.6f}  C13={res.c13:+.6f}  K={res.k:+.6f}"
        )
    lines.append(
        f"LG violated: {'yes' if summary.lg_violated else 'no'} (max K = {summary.max_k:.6f})"
        f"   |   SI detected: {'yes' if summary.si_detected else 'no'}"
        f" (negativity = {summary.best_negativity:.6f})"
    )
    return {"lg.json": dump_json(out)}, lines, True


def run_simulate(cfg: dict):
    state = parse_state(cfg["state"])
    ch = _channel(cfg["channel"], "channel", len(state))
    for field, d in (("state", ch.in_dim), ("channel", ch.out_dim)):
        if d < 2:  # no observable basis exists on dimension 1
            raise ScenarioError(field, f"simulate needs dimension >= 2 at both times, got {d}")
    shots = _int(cfg["shots"], "shots", 1, MAX_SHOTS)
    if cfg.get("seed") is None:
        raise ScenarioError("seed", "simulate needs a seed (config field or --seed)")
    seed = _int(cfg["seed"], "seed", 0)
    if "basis" in cfg:
        d = ch.in_dim
        bases = [f"light_touch:{d}"] + [f"pauli:{k}" for k in range(1, d.bit_length()) if 2**k == d]
        basis1 = ObservableBasis.from_descriptor(_choice(cfg["basis"], "basis", bases))
        basis2 = basis1 if ch.in_dim == ch.out_dim else ObservableBasis.default_for_dim(ch.out_dim)
    else:
        basis1 = ObservableBasis.default_for_dim(ch.in_dim)
        basis2 = ObservableBasis.default_for_dim(ch.out_dim)
    table = sample_table(state, ch, (basis1, basis2), shots, seed)
    meta = table_metadata(seed, shots, [basis1.descriptor, basis2.descriptor])
    meta["kind"] = "simulate"
    lines = [f"sampled {table.values.size} pairs x {shots} shots"]
    return {"simulate.csv": table.to_csv(), "simulate.json": dump_json(meta)}, lines, True


def _sweep_chunk(d: int) -> int:
    """Grid points per stacked batch: d^4 PDM entries per point, so no batch exceeds one d = MAX_DIM point."""
    return max(1, (MAX_DIM // d) ** 4)


def run_sweep(cfg: dict):
    state = parse_state(cfg["state"])
    name = _choice(cfg["channel"], "channel", SWEEPS)
    parameter, build = SWEEPS[name]
    _choice(cfg["parameter"], "parameter", [parameter])
    if ("grid" in cfg) == ("values" in cfg):
        raise ScenarioError("grid", "sweep needs exactly one of 'grid' or 'values'")
    if "grid" in cfg:
        field, grid = "grid", cfg["grid"]
        if not isinstance(grid, dict) or set(grid) != {"start", "stop", "num"}:
            raise ScenarioError("grid", "grid must be an object with exactly start, stop, num")
        if not (_is_number(grid["start"]) and _is_number(grid["stop"])):
            raise ScenarioError("grid", "start and stop must be finite numbers")
        values = np.linspace(float(grid["start"]), float(grid["stop"]), _int(grid["num"], "grid", 1, MAX_GRID))
    else:
        field, values = "values", cfg["values"]
        if not isinstance(values, list) or not values or not all(_is_number(v) for v in values):
            raise ScenarioError("values", "values must be a non-empty list of finite numbers")
        if len(values) > MAX_GRID:
            raise ScenarioError("values", f"values has {len(values)} points, at most {MAX_GRID} allowed")
    p = _number(cfg.get("p", 1.0), "p", 1)
    d = len(state)
    values = [float(v) for v in values]
    fields = []
    step = _sweep_chunk(d)
    for start in range(0, len(values), step):
        chunk = values[start:start + step]
        try:
            chs = [build(v, d) for v in chunk]
        except ValueError as exc:
            raise ScenarioError(field, f"invalid {parameter}: {exc}") from exc
        if chs[0].in_dim != d:
            raise ScenarioError("channel", f"{name} acts on dimension {chs[0].in_dim}, "
                                           f"the state has dimension {d}")
        s = _PdmStack.closed_form(state, np.array([ch.jamiolkowski() for ch in chs]))
        ok = _bound_check(s.t_p(1.0), d).bound_ok
        fields += chain.from_iterable(zip(chunk, s.t_p(p).tolist(), s.spectra[:, 0].tolist(),
                                          map(("false", "true").__getitem__, ok)))
    # One template, filled by one % (as CorrelatorTable.to_csv); the parameter names in SWEEPS hold no %.
    row = f"{parameter},%.17g,%.17g,%.17g,%s\n"
    text = ("parameter,value,si_value,min_eigenvalue,bound_ok\n" + row * len(values)) % tuple(fields)
    return {"sweep.csv": text}, [f"swept {len(values)} points of {parameter}"], True


def run_verify(cfg: dict):
    from .verify import SUITES, run_suites  # imported here: no other command loads verify or random

    suite = _choice(cfg.get("suite", "all"), "suite", ["all", *SUITES])
    scale = _number(cfg.get("trials_scale", 1.0), "trials_scale", 0, strict=True, high=MAX_TRIALS_SCALE)
    seed = None if cfg.get("seed") is None else _int(cfg["seed"], "seed", 0)
    results = run_suites(suite, seed=seed, scale=scale)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f"  {res.detail}" if res.detail else ""
        lines.append(f"[{status}] {res.suite}: {res.name} ({res.trials} trials){detail}")
    failures = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    out = {
        "kind": "verify",
        "suite": suite,
        "checks": results,
    }
    return {"verify.json": dump_json(out)}, lines, failures == 0


# Every config kind -> (its handler, its required fields, its optional fields).
KINDS = {
    "pdm": (run_pdm, {"state", "channel"}, {"p"}),
    "witness": (run_witness, {"state", "channel"}, {"policy"}),
    "classify": (run_classify, {"channel"}, {"dim"}),
    "lg": (run_lg, {"channel"}, {"channel2", "q", "state", "states"}),
    "simulate": (run_simulate, {"state", "channel", "shots"}, {"basis", "seed"}),
    "sweep": (run_sweep, {"state", "channel", "parameter"}, {"grid", "values", "p"}),
    "verify": (run_verify, set(), {"suite", "seed", "trials_scale"}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmsi",
        description="Pseudo-density matrices, SI witnesses and Leggett-Garg comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True, help="path or bundled scenario name")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_verify = sub.add_parser("verify", help="run randomized property suites")
    p_verify.add_argument("suite", nargs="?", default="all")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials-scale", type=float, default=1.0)

    p_classify = sub.add_parser("classify", help="classify a channel in the coherence hierarchy")
    p_classify.add_argument("channel", help="channel literal, e.g. 'dephase' or 'amplitude_damping(0.3)'")
    p_classify.add_argument("--dim", type=int, default=None)

    p_lg = sub.add_parser("lg", help="Leggett-Garg vs SI for a scenario config")
    p_lg.add_argument("--config", required=True)
    p_lg.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    out_dir = getattr(args, "out", None)
    try:
        if args.command == "verify":
            cfg = {"version": CONFIG_VERSION, "kind": "verify", "suite": args.suite,
                   "trials_scale": args.trials_scale, "seed": args.seed}
        elif args.command == "classify":
            cfg = {"version": CONFIG_VERSION, "kind": "classify", "channel": args.channel, "dim": args.dim}
        else:
            cfg = load_config(args.config)
        kind = validate_config(cfg)
        if args.command == "lg" and kind != "lg":
            raise ScenarioError("kind", f"'pdmsi lg' needs a config of kind 'lg', got {kind!r}")
        if args.command == "run" and args.seed is not None:
            cfg["seed"] = args.seed  # kinds without a seed ignore the override
        files, lines, passed = KINDS[kind][0](cfg)
        if out_dir is not None:
            try:
                write_atomic(out_dir, files)  # creates out_dir; all of the files or none
            except OSError as exc:
                names = ", ".join(map(repr, files))
                raise ScenarioError("out", f"cannot write {names} to {out_dir!r}: {exc}") from exc
        if args.command == "run":
            lines.append(f"wrote {', '.join(sorted(files))} to {out_dir}")
        for line in lines:
            print(line)
        return 0 if passed else 1
    except ScenarioError as exc:
        print(f"config error at field '{exc.field}': {exc}", file=sys.stderr)
        return 2
    except (PdmsiError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
