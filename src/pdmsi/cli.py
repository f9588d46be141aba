"""Scenario-driven command line: parse a JSON config, dispatch, emit reports.

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
import time
from importlib import resources

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
from .leggett_garg import LgScenario, lg_evaluate, lg_vs_si
from .observables import PAULI_1Q, ObservableBasis
from .pdm import (
    _matrix_to_pairs,
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
from .verify import SUITES, run_suites

CONFIG_VERSION = 1

KIND_FIELDS = {
    "pdm": ({"state", "channel"}, {"p"}),
    "witness": ({"state", "channel"}, {"policy"}),
    "classify": ({"channel"}, {"dim"}),
    "lg": ({"channel"}, {"channel2", "q", "state", "states"}),
    "simulate": ({"state", "channel", "shots"}, {"basis", "seed"}),
    "sweep": ({"state", "channel", "parameter"}, {"grid", "values", "p"}),
    "verify": (set(), {"suite", "seed", "trials_scale"}),
}


class ScenarioError(PdmsiError, ValueError):
    """Config problem; carries the offending field for the diagnostic."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


def _parse_entry(x, field: str) -> complex:
    if _is_number(x):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(_is_number(v) for v in x):
        return complex(x[0], x[1])
    raise ScenarioError(field, f"matrix entries must be finite numbers or [re, im] pairs, got {x!r}")


def parse_matrix(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise ScenarioError(field, "expected a dense matrix as a list of rows")
    rows = [[_parse_entry(x, field) for x in row] for row in obj]
    if any(len(row) != len(rows) for row in rows):
        raise ScenarioError(field, f"matrix must be square, got row lengths {[len(r) for r in rows]}")
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
            if name == "identity":
                return identity_channel(int(arg) if arg else (dim or 2))
            if name == "dephase":
                return dephasing_channel(int(arg) if arg else (dim or 2))
            if name == "amplitude_damping":
                if arg is None:
                    raise ScenarioError(field, "amplitude_damping needs a gamma argument")
                return amplitude_damping_channel(float(arg))
            if name == "depolarizing":
                if arg is None:
                    raise ScenarioError(field, "depolarizing needs a p argument")
                return depolarizing_channel(float(arg), dim or 2)
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
            mats = []
            for idx, op in enumerate(ops):
                if not isinstance(op, list):
                    raise ScenarioError(field, f"kraus[{idx}] is not a matrix")
                mats.append(np.array([[_parse_entry(x, field) for x in row] for row in op]))
            return KrausChannel(mats)
    except ScenarioError:
        raise
    except (ValueError, PdmsiError) as exc:
        raise ScenarioError(field, f"invalid channel: {exc}") from exc
    raise ScenarioError(field, f"channel must be a string or dict, got {type(obj).__name__}")


def parse_observable(obj, field: str = "q") -> np.ndarray:
    if isinstance(obj, str):
        if obj in PAULI_1Q:
            return PAULI_1Q[obj]
        raise ScenarioError(field, f"unknown observable name {obj!r}; use I/X/Y/Z or a matrix")
    return parse_matrix(obj, field)


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
    if cfg["version"] != CONFIG_VERSION:
        raise ScenarioError("version", f"unsupported config version {cfg['version']!r}")
    if "kind" not in cfg:
        raise ScenarioError("kind", "missing required field 'kind'")
    kind = cfg["kind"]
    if kind not in KIND_FIELDS:
        raise ScenarioError("kind", f"unknown scenario kind {kind!r}")
    required, optional = KIND_FIELDS[kind]
    present = set(cfg) - {"version", "kind"}
    for name in sorted(required - present):
        raise ScenarioError(name, f"missing required field {name!r} for kind {kind!r}")
    for name in sorted(present - required - optional):
        raise ScenarioError(name, f"unknown field {name!r} for kind {kind!r}")
    return kind


def _state_and_channel(cfg) -> tuple[np.ndarray, KrausChannel]:
    state = parse_state(cfg["state"])
    ch = parse_channel(cfg["channel"], dim=state.shape[0])
    if ch.in_dim != state.shape[0]:
        raise ScenarioError("channel", f"channel input dim {ch.in_dim} != state dim {state.shape[0]}")
    return state, ch


def _is_number(x) -> bool:
    """A finite JSON number; booleans are not numbers here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x, low: int) -> bool:
    """A JSON integer >= ``low``; booleans are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def _effective_seed(cfg, seed: int | None) -> int | None:
    """The ``--seed`` override, else the config's ``seed``; a non-negative integer or None."""
    effective = seed if seed is not None else cfg.get("seed")
    if effective is not None and not _is_int(effective, 0):
        raise ScenarioError("seed", f"seed must be a non-negative integer, got {effective!r}")
    return effective


def _parse_norm_order(cfg) -> float:
    p = cfg.get("p", 1.0)
    if not _is_number(p) or p < 1:
        raise ScenarioError("p", f"norm order must be a finite number >= 1, got {p!r}")
    return float(p)


def run_pdm(cfg: dict, seed: int | None):
    state, ch = _state_and_channel(cfg)
    p = _parse_norm_order(cfg)
    r = pdm_closed_form(state, ch)
    report = si_measure(r, p)
    out = {
        "kind": "pdm",
        "dims": list(r.dims),
        "matrix": _matrix_to_pairs(r.mat),
        "eigenvalues": [float(x) for x in r.eigenvalues()],
        "si": report.to_dict(),
    }
    if ch.in_dim == ch.out_dim:
        out["bound"] = check_bound(state, ch).to_dict()
    lines = [f"T_{p:g} = {report.value:.12g}  (min eigenvalue {r.min_eigenvalue():.12g})"]
    return {"pdm.json": dump_json(out)}, lines


def run_witness(cfg: dict, seed: int | None):
    state, ch = _state_and_channel(cfg)
    policy = cfg.get("policy", "negative_eigenspace")
    if policy not in ("negative_eigenspace", "most_negative"):
        raise ScenarioError("policy", f"unknown witness policy {policy!r}")
    r = pdm_closed_form(state, ch)
    w = synthesize_witness(r, policy=policy)
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
    return {"witness.json": dump_json(out)}, lines


def run_classify(cfg: dict, seed: int | None):
    dim = cfg.get("dim")
    if dim is not None and not _is_int(dim, 1):
        raise ScenarioError("dim", f"dim must be a positive integer, got {dim!r}")
    ch = parse_channel(cfg["channel"], dim=dim)
    report = classify_channel(ch)
    out = {"kind": "classify", "report": report.to_dict()}
    lines = ["class  holds  residual"]
    for name in ("oi", "ce", "ci", "di", "ncgd"):
        holds = {"oi": report.is_oi, "ce": report.is_ce, "ci": report.is_ci,
                 "di": report.is_di, "ncgd": report.is_ncgd}[name]
        note = f"   [{report.ncgd_mode}]" if name == "ncgd" else ""
        lines.append(f"{name.upper():<6} {'yes' if holds else 'no':<6} {report.residuals[name]:.3e}{note}")
    return {"classify.json": dump_json(out)}, lines


def run_lg(cfg: dict, seed: int | None):
    if "states" in cfg and "state" in cfg:
        raise ScenarioError("states", "give either 'state' or 'states', not both")
    if "states" in cfg:
        states = [parse_state(s, f"states[{i}]") for i, s in enumerate(cfg["states"])]
    elif "state" in cfg:
        states = [parse_state(cfg["state"])]
    else:
        raise ScenarioError("state", "lg scenario needs 'state' or 'states'")
    d = states[0].shape[0]
    ch = parse_channel(cfg["channel"], dim=d)
    ch2 = parse_channel(cfg["channel2"], "channel2", dim=d) if "channel2" in cfg else ch
    q = parse_observable(cfg.get("q", "Z"))
    per_state = [lg_evaluate(LgScenario(rho, ch, ch2, q)) for rho in states]
    summary = lg_vs_si(ch, states, q_list=[q], ch23=ch2)
    out = {
        "kind": "lg",
        "results": [res.to_dict() for res in per_state],
        "comparison": summary.to_dict(),
    }
    lines = []
    for i, res in enumerate(per_state):
        lines.append(
            f"state {i}: C12={res.c12:+.6f}  C23={res.c23:+.6f}  C13={res.c13:+.6f}  K={res.k:+.6f}"
        )
    lines.append(
        f"LG violated: {'yes' if summary.lg_violated else 'no'} (max K = {summary.max_k:.6f})"
        f"   |   SI detected: {'yes' if summary.si_detected else 'no'}"
        f" (negativity = {summary.best_negativity:.6f})"
    )
    return {"lg.json": dump_json(out)}, lines


def run_simulate(cfg: dict, seed: int | None):
    state, ch = _state_and_channel(cfg)
    shots = cfg["shots"]
    if not _is_int(shots, 1):
        raise ScenarioError("shots", "shots must be a positive integer")
    effective = _effective_seed(cfg, seed)
    if effective is None:
        raise ScenarioError("seed", "simulate needs a seed (config field or --seed)")
    if "basis" in cfg:
        try:
            basis1 = ObservableBasis.from_descriptor(cfg["basis"])
        except (AttributeError, ValueError) as exc:
            raise ScenarioError("basis", f"invalid basis descriptor {cfg['basis']!r}: {exc}") from exc
        if basis1.dim != ch.in_dim:
            raise ScenarioError("basis", f"basis dim {basis1.dim} != state dim {ch.in_dim}")
        basis2 = basis1 if ch.in_dim == ch.out_dim else ObservableBasis.default_for_dim(ch.out_dim)
    else:
        basis1 = ObservableBasis.default_for_dim(ch.in_dim)
        basis2 = ObservableBasis.default_for_dim(ch.out_dim)
    start = time.perf_counter()
    table = sample_table(state, ch, (basis1, basis2), shots, int(effective))
    elapsed = time.perf_counter() - start
    meta = table_metadata(int(effective), shots, [basis1.descriptor, basis2.descriptor])
    meta["kind"] = "simulate"
    lines = [f"sampled {len(table.entries)} pairs x {shots} shots in {elapsed:.2f} s"]
    return {"simulate.csv": table.to_csv(), "simulate.json": dump_json(meta)}, lines


def run_sweep(cfg: dict, seed: int | None):
    state = parse_state(cfg["state"])
    name = cfg["channel"]
    parameter = cfg["parameter"]
    builders = {
        ("amplitude_damping", "gamma"): amplitude_damping_channel,
        ("depolarizing", "p"): lambda v: depolarizing_channel(v, state.shape[0]),
    }
    if (name, parameter) not in builders:
        raise ScenarioError("parameter", f"cannot sweep {parameter!r} of channel {name!r}")
    if ("grid" in cfg) == ("values" in cfg):
        raise ScenarioError("grid", "sweep needs exactly one of 'grid' or 'values'")
    if "grid" in cfg:
        field, grid = "grid", cfg["grid"]
        if not isinstance(grid, dict) or set(grid) != {"start", "stop", "num"}:
            raise ScenarioError("grid", "grid must be an object with exactly start, stop, num")
        if not (_is_number(grid["start"]) and _is_number(grid["stop"])):
            raise ScenarioError("grid", "start and stop must be finite numbers")
        num = grid["num"]
        if not _is_int(num, 1):
            raise ScenarioError("grid", f"num must be a positive integer, got {num!r}")
        values = np.linspace(float(grid["start"]), float(grid["stop"]), num)
    else:
        field, values = "values", cfg["values"]
        if not isinstance(values, list) or not values or not all(_is_number(v) for v in values):
            raise ScenarioError("values", "values must be a non-empty list of finite numbers")
    p = _parse_norm_order(cfg)
    try:
        points = [(float(v), builders[(name, parameter)](float(v))) for v in values]
    except ValueError as exc:
        raise ScenarioError(field, f"invalid {parameter}: {exc}") from exc

    lines_csv = ["parameter,value,si_value,min_eigenvalue,bound_ok"]
    for v, ch in points:
        r = pdm_closed_form(state, ch)
        si = si_measure(r, p).value
        ok = check_bound(state, ch).bound_ok
        lines_csv.append(
            f"{parameter},{format(v, '.17g')},{format(si, '.17g')},"
            f"{format(r.min_eigenvalue(), '.17g')},{str(ok).lower()}"
        )
    return {"sweep.csv": "\n".join(lines_csv) + "\n"}, [f"swept {len(points)} points of {parameter}"]


def run_verify_kind(cfg: dict, seed: int | None):
    suite = cfg.get("suite", "all")
    if suite != "all" and suite not in SUITES:
        raise ScenarioError("suite", f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    scale = cfg.get("trials_scale", 1.0)
    if not _is_number(scale) or scale <= 0:
        raise ScenarioError("trials_scale", f"trials_scale must be a finite number > 0, got {scale!r}")
    results = run_suites(suite, seed=_effective_seed(cfg, seed), scale=float(scale))
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
        "checks": [
            {"suite": r.suite, "name": r.name, "passed": bool(r.passed), "trials": r.trials,
             "detail": r.detail}
            for r in results
        ],
    }
    return {"verify.json": dump_json(out)}, lines, failures == 0


HANDLERS = {
    "pdm": run_pdm,
    "witness": run_witness,
    "classify": run_classify,
    "lg": run_lg,
    "simulate": run_simulate,
    "sweep": run_sweep,
}


def _report(files: dict, lines: list, out_dir: str | None) -> None:
    """Write ``files`` into ``out_dir`` (when given), then print ``lines``."""
    if out_dir is not None:
        for name, content in files.items():
            write_atomic(os.path.join(out_dir, name), content)
    for line in lines:
        print(line)


def run_scenario(config_path: str, out_dir: str, seed: int | None = None) -> int:
    cfg = load_config(config_path)
    kind = validate_config(cfg)
    if kind == "verify":
        files, lines, all_passed = run_verify_kind(cfg, seed)
    else:
        files, lines = HANDLERS[kind](cfg, seed)
        all_passed = True
    _report(files, [*lines, f"wrote {', '.join(sorted(files))} to {out_dir}"], out_dir)
    return 0 if all_passed else 1


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
    p_verify.add_argument("suite", nargs="?", default="all", choices=["all", "pdm", "coherence", "lg"])
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials-scale", type=float, default=1.0)

    p_classify = sub.add_parser("classify", help="classify a channel in the coherence hierarchy")
    p_classify.add_argument("channel", help="channel literal, e.g. 'dephase' or 'amplitude_damping(0.3)'")
    p_classify.add_argument("--dim", type=int, default=None)

    p_lg = sub.add_parser("lg", help="Leggett-Garg vs SI for a scenario config")
    p_lg.add_argument("--config", required=True)
    p_lg.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(args.config, args.out, seed=args.seed)
        if args.command == "verify":
            cfg = {"suite": args.suite, "trials_scale": args.trials_scale}
            _, lines, all_passed = run_verify_kind(cfg, args.seed)
            _report({}, lines, None)
            return 0 if all_passed else 1
        if args.command == "classify":
            _report(*run_classify({"channel": args.channel, "dim": args.dim}, None), None)
            return 0
        if args.command == "lg":
            cfg = load_config(args.config)
            kind = validate_config(cfg)
            if kind != "lg":
                raise ScenarioError("kind", f"'pdmsi lg' needs a config of kind 'lg', got {kind!r}")
            _report(*run_lg(cfg, None), args.out)
            return 0
    except ScenarioError as exc:
        print(f"config error at field '{exc.field}': {exc}", file=sys.stderr)
        return 2
    except (PdmsiError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
