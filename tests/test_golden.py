"""Golden corpus: rerun fixed CLI invocations and compare with committed outputs.

Keys, words, booleans and sampled CSVs must match exactly; every other
number, including one printed inside a string, to 1e-12.  Each case's
stdout is kept as ``stdout.txt`` with the output directory replaced by
``OUT``; nothing else in it is masked.

Regenerate (after a deliberate change of outputs) with
``PYTHONPATH=src python tests/test_golden.py [DEST]``; DEST defaults to
``tests/golden/expected``.
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from pdmsi.cli import main
from pdmsi.observables import ObservableBasis
from pdmsi.pdm import CorrelatorTable, pdm_from_correlators

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = GOLDEN / "configs"
EXPECTED = GOLDEN / "expected"
FLOAT_TOL = 1e-12
EXACT_FILES = {"simulate.csv"}  # the RNG stream is part of the contract

_RUN_CONFIGS = ["pdm_p1", "pdm_p2", "pdm_p3_d2d3", "witness", "witness_d3", "witness_d2d3", "classify", "lg",
                "simulate", "simulate_lt3", "simulate_d2d3", "sweep_values", "sweep_grid",
                "verify_lg"]
CASES = {
    "bundled_witness_identity": ["run", "--config", "witness_identity.json", "--out", "{out}"],
    "bundled_pdm_plus_dephase": ["run", "--config", "pdm_plus_dephase.json", "--out", "{out}"],
    **{name: ["run", "--config", "{configs}/" + name + ".json", "--out", "{out}"]
       for name in _RUN_CONFIGS},
    "cmd_classify": ["classify", "amplitude_damping(0.3)"],
    "cmd_lg": ["lg", "--config", "{configs}/lg.json", "--out", "{out}"],
    **{f"cmd_verify_{suite}": ["verify", suite, "--seed", "3", "--trials-scale", "0.02"]
       for suite in ("lg", "pdm", "coherence")},
}


def run_case(name: str, out: Path) -> dict[str, str]:
    """Run one case into ``out``; return its files plus the normalised stdout."""
    argv = [a.format(configs=CONFIGS, out=out) for a in CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{name} exited {code}"
    stdout = buf.getvalue().replace(str(out), "OUT")
    files = {p.name: p.read_text() for p in sorted(out.iterdir())} if out.exists() else {}
    return {**files, "stdout.txt": stdout}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _compare_text(got: str, want: str, where: str):
    """Equal text, except that numbers embedded in it may differ by FLOAT_TOL."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), f"{where}: {got!r} vs {want!r}"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        assert g == w if i % 2 == 0 else _close(float(g), float(w)), f"{where}: {g!r} vs {w!r}"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare_json(got, want, where: str):
    if _is_number(got) and _is_number(want):
        assert _close(got, want), f"{where}: {got!r} vs {want!r}"
        return
    assert type(got) is type(want), f"{where}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths {len(got)} vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, str):
        _compare_text(got, want, where)
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path):
    expected_dir = EXPECTED / name
    want = {p.name: p.read_text() for p in sorted(expected_dir.iterdir())}
    got = run_case(name, tmp_path / "out")
    assert sorted(got) == sorted(want)
    for fname, text in want.items():
        where = f"{name}/{fname}"
        if fname.endswith(".json"):
            _compare_json(json.loads(got[fname]), json.loads(text), where)
        elif fname in EXACT_FILES:
            assert got[fname] == text, f"{where} differs"
        else:
            _compare_text(got[fname], text, where)


@pytest.mark.parametrize("name, dims", [("simulate", (2, 2)), ("simulate_d2d3", (2, 3)), ("simulate_lt3", (3, 3))])
def test_golden_simulate_table_reads_back(name, dims):
    """Each committed ``simulate.csv`` read over the bases its ``simulate.json`` names: writing it
    back gives the same bytes, every pair holds ``shots_per_pair``, and the PDM is over ``dims``."""
    meta = json.loads((EXPECTED / name / "simulate.json").read_text())
    data = (EXPECTED / name / "simulate.csv").read_bytes()
    b1, b2 = (ObservableBasis.from_descriptor(desc) for desc in meta["basis"])
    table = CorrelatorTable.from_csv(data.decode(), b1, b2)
    assert table.to_csv().encode() == data
    assert (table.shots == meta["shots_per_pair"]).all()
    assert pdm_from_correlators(table).dims == dims


if __name__ == "__main__":
    import tempfile

    dest = Path(sys.argv[1]) if len(sys.argv) > 1 else EXPECTED
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(case, Path(tmp) / "out")
        (dest / case).mkdir(parents=True, exist_ok=True)
        for fname, text in outputs.items():
            (dest / case / fname).write_text(text)
