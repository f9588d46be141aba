import json
import os
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pdmsi.cli
import pdmsi.pdm
from pdmsi import random as prandom
from pdmsi.channels import KrausChannel, identity_channel
from pdmsi.cli import MAX_DIM, MAX_GRID, MAX_SHOTS, MAX_TRIALS_SCALE, SWEEPS, main, parse_state, run_sweep
from pdmsi.leggett_garg import lg_vs_si
from pdmsi.observables import PAULI_1Q, ObservableBasis
from pdmsi.pdm import check_bound, pdm_closed_form, si_measure, synthesize_witness
from pdmsi.states import ket, projector

GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"

KET0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
PLUS = [[0.5, 0.5], [0.5, 0.5]]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRun:
    def test_bundled_identity_witness(self, tmp_path, capsys):
        code = main(["run", "--config", "witness_identity.json", "--out", str(tmp_path)])
        assert code == 0
        out = json.loads((tmp_path / "witness.json").read_text())
        assert abs(out["expectation"] + 0.5) < 1e-10
        assert abs(out["negativity"] - 1.0) < 1e-9

    def test_bundled_plus_dephase(self, tmp_path):
        code = main(["run", "--config", "pdm_plus_dephase.json", "--out", str(tmp_path)])
        assert code == 0
        out = json.loads((tmp_path / "pdm.json").read_text())
        assert abs(out["si"]["value"] - (np.sqrt(2) - 1)) < 1e-9

    def test_pdm_scenario_with_p2(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "version": 1, "kind": "pdm", "state": KET0, "channel": "identity", "p": 2,
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = json.loads((tmp_path / "out" / "pdm.json").read_text())
        assert abs(out["si"]["value"] - np.sqrt(0.375)) < 1e-9
        assert out["bound"]["bound_ok"] is True

    def test_witness_of_a_state_just_off_hermitian(self, tmp_path):
        """|++><++| with 9e-11j on every upper off-diagonal entry passes the state check, so its
        witness runs: R's correlators carry imaginary parts of 1.8e-10, and the table keeps their
        real parts, the correlators of R's Hermitian part."""
        exact = np.full((4, 4), 0.25, dtype=complex)
        outs = []
        for name, state in (("exact", exact), ("skewed", exact + 9e-11j * np.triu(np.ones((4, 4)), 1))):
            cfg = write_config(tmp_path, f"{name}.json", {
                "version": 1, "kind": "witness", "state": _pairs(state), "channel": "identity(4)"})
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outs.append(json.loads((tmp_path / name / "witness.json").read_text()))
        assert abs(outs[1]["expectation"] - outs[0]["expectation"]) < 1e-9
        assert abs(outs[0]["expectation"] + 1.5) < 1e-9

    def test_missing_channel_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"version": 1, "kind": "pdm", "state": KET0})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "channel" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "version": 1, "kind": "pdm", "state": KET0, "channel": "identity", "extra": 1,
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "extra" in capsys.readouterr().err

    def test_bad_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"version": 3, "kind": "pdm",
                                                  "state": KET0, "channel": "identity"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,\n  "kind": }')
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_bundled_lookup_only_for_bare_names(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere" / "witness_identity.json")
        assert main(["run", "--config", missing, "--out", str(tmp_path / "out")]) == 2
        assert "'config'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_state_matrix(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "version": 1, "kind": "pdm",
            "state": [[1.0, 0.0], [0.0, 1.0]], "channel": "identity",
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "state" in capsys.readouterr().err

    def test_witness_on_compatible_process_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "version": 1, "kind": "witness", "state": KET0, "channel": "dephase",
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_explicit_kraus_channel_literal(self, tmp_path):
        k0 = [[1, 0], [0, 0]]
        k1 = [[0, 0], [0, 1]]
        cfg = write_config(tmp_path, "cfg.json", {
            "version": 1, "kind": "pdm", "state": PLUS,
            "channel": {"kraus": [k0, k1]},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = json.loads((tmp_path / "out" / "pdm.json").read_text())
        assert abs(out["si"]["value"] - (np.sqrt(2) - 1)) < 1e-9

    def test_explicit_unitary_channel_literal(self, tmp_path):
        s = 1 / np.sqrt(2)
        hadamard = [[[s, 0], [s, 0]], [[s, 0], [-s, 0]]]
        cfg = write_config(tmp_path, "cfg.json", {
            "version": 1, "kind": "pdm", "state": KET0,
            "channel": {"unitary": hadamard},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = json.loads((tmp_path / "out" / "pdm.json").read_text())
        assert abs(out["si"]["value"] - 1.0) < 1e-9   # unitary legs saturate the bound

    def test_qutrit_builtin_with_explicit_dim(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "version": 1, "kind": "pdm",
            "state": [[0.6, 0, 0], [0, 0.4, 0], [0, 0, 0]],
            "channel": "identity(3)",
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = json.loads((tmp_path / "out" / "pdm.json").read_text())
        assert abs(out["si"]["value"] - 2.0) < 1e-9
        assert out["bound"]["bound_ok"] is True

    def test_bad_kraus_literal_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "version": 1, "kind": "pdm", "state": KET0,
            "channel": {"kraus": [[[0.5, 0], [0, 0.5]]]},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "channel" in capsys.readouterr().err


SWEEP = {"version": 1, "kind": "sweep", "state": KET0, "channel": "amplitude_damping",
         "parameter": "gamma", "values": [0.0, 0.5]}
PDM = {"version": 1, "kind": "pdm", "state": KET0, "channel": "identity"}
VERIFY = {"version": 1, "kind": "verify", "suite": "lg"}
SWEEP_GRID = {k: v for k, v in SWEEP.items() if k != "values"}
CLASSIFY = {"version": 1, "kind": "classify", "channel": "identity", "dim": "x"}
SIMULATE = {"version": 1, "kind": "simulate", "state": KET0, "channel": "identity",
            "shots": 10, "seed": 1}
LG = {"version": 1, "kind": "lg", "channel": "identity", "states": [KET0]}
QUTRIT = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("payload, field, extra", [
    pytest.param({**PDM, "p": True}, "p", [], id="p-bool"),
    pytest.param({**PDM, "p": float("inf")}, "p", [], id="p-inf"),
    pytest.param({**PDM, "p": float("nan")}, "p", [], id="p-nan"),
    pytest.param({**SWEEP, "p": float("inf")}, "p", [], id="sweep-p-inf"),
    pytest.param({**SWEEP, "values": []}, "values", [], id="values-empty"),
    pytest.param({**SWEEP, "values": [0.5, 2.0]}, "values", [], id="values-out-of-range"),
    pytest.param({**SWEEP_GRID, "grid": {"start": 0.0, "stop": 1.0, "num": -1}}, "grid", [], id="grid-num-negative"),
    pytest.param({**SWEEP_GRID, "grid": {"start": 0.0, "stop": 1.0, "num": 2.5}}, "grid", [], id="grid-num-fraction"),
    pytest.param({**VERIFY, "trials_scale": "x"}, "trials_scale", [], id="trials-scale-string"),
    pytest.param({**VERIFY, "trials_scale": 0}, "trials_scale", [], id="trials-scale-zero"),
    pytest.param({**VERIFY, "trials_scale": 1e12}, "trials_scale", [], id="trials-scale-too-large"),
    pytest.param({**SIMULATE, "shots": MAX_SHOTS + 1}, "shots", [], id="shots-too-many"),
    pytest.param({**SIMULATE, "shots": 10**11}, "shots", [], id="shots-far-too-many"),
    pytest.param(CLASSIFY, "dim", [], id="classify-dim-string"),
    pytest.param({**CLASSIFY, "dim": True}, "dim", [], id="classify-dim-bool"),
    pytest.param({**PDM, "state": [[True, 0], [0, False]]}, "state", [], id="state-bool-entries"),
    pytest.param({**PDM, "state": [[float("nan"), 0], [0, 1]]}, "state", [], id="state-nan-entry"),
    pytest.param({**PDM, "channel": {"kraus": [[[True, 0], [0, 1]]]}}, "channel", [],
                 id="kraus-bool-entries"),
    pytest.param({**SIMULATE, "seed": -1}, "seed", [], id="seed-negative"),
    pytest.param(SIMULATE, "seed", ["--seed", "-1"], id="seed-override-negative"),
    pytest.param({**VERIFY, "seed": -1}, "seed", [], id="verify-seed-negative"),
    pytest.param({**SIMULATE, "basis": "foo:2"}, "basis", [], id="basis-unknown"),
    pytest.param({**SIMULATE, "basis": "pauli:2"}, "basis", [], id="basis-dim-mismatch"),
    pytest.param({**SIMULATE, "state": [[1]], "channel": "identity(1)"}, "state", [], id="simulate-state-dim-1"),
    pytest.param({**SIMULATE, "channel": {"kraus": [[[1, 0]], [[0, 1]]]}}, "channel", [],
                 id="simulate-channel-out-dim-1"),
    pytest.param({**VERIFY, "suite": "nope"}, "suite", [], id="suite-unknown"),
    pytest.param({**LG, "states": []}, "states", [], id="lg-states-empty"),
    pytest.param({**LG, "states": [KET0, QUTRIT]}, "states[1]", [], id="lg-states-mixed-dims"),
    pytest.param({**LG, "q": [[1, 0], [0, 2]]}, "q", [], id="lg-q-not-dichotomic"),
    pytest.param({**LG, "q": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}, "q", [], id="lg-q-dim-mismatch"),
    pytest.param({**LG, "states": [QUTRIT], "channel": "identity(3)"}, "q", [], id="lg-default-q-qutrit"),
    pytest.param({**LG, "channel2": "identity(3)"}, "channel2", [], id="lg-channel2-dim-mismatch"),
    # Three PDMs of d^4 entries per state: at d = MAX_DIM one state; the rest is not even parsed.
    pytest.param({**LG, "channel": "depolarizing(0.3)", "states": [(np.eye(MAX_DIM) / MAX_DIM).tolist(), "x"]},
                 "states", [], id="lg-states-too-many-at-max-dim"),
    pytest.param({**LG, "channel": "identity(16)", "states": [(np.eye(16) / 16).tolist()] * 17},
                 "states", [], id="lg-states-too-many-at-16"),
    pytest.param({**SWEEP, "state": QUTRIT}, "channel", [], id="sweep-amplitude-damping-qutrit"),
    pytest.param({**SWEEP, "channel": ["x"]}, "channel", [], id="sweep-channel-list"),
    pytest.param({**VERIFY, "suite": ["pdm"]}, "suite", [], id="suite-list"),
    pytest.param({**CLASSIFY, "channel": {"kraus": [[[1, 0]], [[0, 1]]]}, "dim": None}, "channel", [],
                 id="classify-kraus-1x2"),
    pytest.param({**CLASSIFY, "channel": "amplitude_damping(0.3)", "dim": 3}, "channel", [],
                 id="classify-dim-disagrees"),
    pytest.param({**PDM, "version": True}, "version", [], id="version-bool"),
    pytest.param({**PDM, "version": 1.0}, "version", [], id="version-float"),
    pytest.param({**CLASSIFY, "channel": "identity(20000)", "dim": None}, "channel", [],
                 id="literal-dim-too-large"),
    pytest.param({**PDM, "channel": "dephase(33)"}, "channel", [], id="dephase-dim-too-large"),
    pytest.param({**CLASSIFY, "dim": 10**9}, "dim", [], id="classify-dim-too-large"),
    pytest.param({**SWEEP_GRID, "grid": {"start": 0.0, "stop": 1.0, "num": 10**9}}, "grid", [],
                 id="grid-num-too-large"),
    pytest.param({**SWEEP, "values": [0.5] * (MAX_GRID + 1)}, "values", [], id="values-too-many"),
    pytest.param({**PDM, "state": np.eye(33).tolist()}, "state", [], id="state-dim-too-large"),
    pytest.param({**PDM, "channel": {"kraus": [[[1.0] * 33]]}}, "channel", [], id="kraus-cols-too-large"),
    pytest.param({**PDM, "channel": {"kraus": [[[1, 0], [0]]]}}, "channel", [], id="kraus-ragged-rows"),
    pytest.param({**PDM, "channel": {"kraus": [[1, 0]]}}, "channel", [], id="kraus-not-a-matrix"),
    pytest.param({**PDM, "channel": {"kraus": [[[]]]}}, "channel", [], id="kraus-zero-size"),
    pytest.param({**PDM, "kind": "nope"}, "kind", [], id="kind-unknown"),
    pytest.param(PDM, "out", ["--out", "{tmp}/cfg.json"], id="out-is-a-file"),
    pytest.param(PDM, "out", ["--out", "{tmp}/cfg.json/sub"], id="out-below-a-file"),
    pytest.param({**PDM, "channel": "identity(2"}, "channel", [], id="channel-literal-unparsable"),
    pytest.param({**PDM, "channel": "swap"}, "channel", [], id="channel-builtin-unknown"),
    pytest.param({**PDM, "channel": {"kraus": [np.eye(2).tolist()], "unitary": np.eye(2).tolist()}}, "channel", [],
                 id="channel-kraus-and-unitary"),
    pytest.param({**PDM, "channel": {"kraus": []}}, "channel", [], id="channel-kraus-empty"),
    pytest.param({**PDM, "channel": 3}, "channel", [], id="channel-number"),
    pytest.param({**LG, "q": "W"}, "q", [], id="lg-q-name-unknown"),
    pytest.param([PDM], "config", [], id="config-top-level-list"),
    pytest.param({k: v for k, v in PDM.items() if k != "version"}, "version", [], id="version-missing"),
    pytest.param({k: v for k, v in PDM.items() if k != "kind"}, "kind", [], id="kind-missing"),
    pytest.param({**LG, "state": KET0}, "states", [], id="lg-state-and-states"),
    pytest.param({k: v for k, v in LG.items() if k != "states"}, "state", [], id="lg-no-state"),
    pytest.param({k: v for k, v in SIMULATE.items() if k != "seed"}, "seed", [], id="simulate-seed-missing"),
    pytest.param({**SWEEP, "grid": {"start": 0.0, "stop": 1.0, "num": 2}}, "grid", [], id="sweep-grid-and-values"),
    pytest.param(SWEEP_GRID, "grid", [], id="sweep-no-grid-nor-values"),
    pytest.param({**SWEEP_GRID, "grid": {"start": 0.0, "stop": 1.0}}, "grid", [], id="grid-keys"),
    pytest.param({**SWEEP_GRID, "grid": {"start": float("inf"), "stop": 1.0, "num": 2}}, "grid", [],
                 id="grid-start-inf"),
])
def test_invalid_field_exits_2_and_names_it(tmp_path, capsys, payload, field, extra):
    cfg = write_config(tmp_path, "cfg.json", payload)
    extra = [arg.format(tmp=tmp_path) for arg in extra]
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *extra]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lg_state_prints_what_a_one_state_list_prints(tmp_path, capsys):
    one = {k: v for k, v in LG.items() if k != "states"}
    printed = []
    for name, payload in (("state", {**one, "state": KET0}), ("states", {**one, "states": [KET0]})):
        assert main(["lg", "--config", write_config(tmp_path, f"{name}.json", payload),
                     "--out", str(tmp_path / name)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and printed[0].startswith("state 0: C12=")
    assert (tmp_path / "state" / "lg.json").read_bytes() == (tmp_path / "states" / "lg.json").read_bytes()


@pytest.mark.parametrize("literal, parameter", [("amplitude_damping", "gamma"), ("depolarizing", "p")])
def test_builtin_without_its_argument_names_it(capsys, literal, parameter):
    assert main(["classify", literal]) == 2
    assert f"field 'channel': {literal} needs a {parameter} argument" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["identity()", "dephase()", "amplitude_damping()", "depolarizing( )"])
def test_builtin_with_empty_parentheses_is_rejected(capsys, literal):
    # A bare name keeps its meaning (identity of dim 2, or "needs a ... argument").
    assert main(["classify", literal]) == 2
    assert f"field 'channel': {literal.partition('(')[0]}() has an empty argument" in capsys.readouterr().err


def test_trials_scale_option_is_capped(capsys):
    assert main(["verify", "lg", "--trials-scale", str(2 * MAX_TRIALS_SCALE)]) == 2
    assert "field 'trials_scale'" in capsys.readouterr().err


def test_classify_dim_option_is_capped(capsys):
    assert main(["classify", "identity", "--dim", "100000"]) == 2
    assert "field 'dim'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, payload", [
    pytest.param(["classify", "amplitude_damping(0.3)"],
                 {"kind": "classify", "channel": "amplitude_damping(0.3)"}, id="classify"),
    pytest.param(["classify", "identity", "--dim", "3"],
                 {"kind": "classify", "channel": "identity", "dim": 3}, id="classify-dim"),
    pytest.param(["lg", "--config", "{cfg}"], {**LG, "states": [KET0, PLUS], "channel": "dephase"}, id="lg"),
    pytest.param(["verify", "lg", "--seed", "3", "--trials-scale", "0.02"],
                 {"kind": "verify", "suite": "lg", "seed": 3, "trials_scale": 0.02}, id="verify"),
])
def test_subcommand_prints_what_run_prints(tmp_path, capsys, argv, payload):
    cfg = write_config(tmp_path, "cfg.json", {"version": 1, **payload})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    *lines, wrote = capsys.readouterr().out.splitlines()
    assert wrote.startswith("wrote ")
    assert main([arg.format(cfg=cfg) for arg in argv]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_lg_at_max_dim_stays_inside_a_memory_limit(tmp_path):
    """depolarizing(0.3) at d = MAX_DIM has 1,025 Kraus operators. Leg 1->3 built as every product of one
    operator from each leg asked for 16 GiB and exited 1; from the legs' Jamiolkowski matrices it is one
    d^2 x d^2 product.  The child runs under a 4 GiB address-space limit, one BLAS thread."""
    resource = pytest.importorskip("resource")
    d = MAX_DIM
    cfg = write_config(tmp_path, "lg.json", {
        "version": 1, "kind": "lg", "channel": "depolarizing(0.3)", "state": (np.eye(d) / d).tolist(),
        "q": np.diag([1.0] * (d // 2) + [-1.0] * (d // 2)).tolist()})
    limit = 4 * 2**30
    src = os.path.dirname(os.path.dirname(pdmsi.pdm.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "pdmsi.cli", "run", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert out.returncode == 0, out.stderr
    assert "K=+0.910000" in out.stdout and "SI detected: yes" in out.stdout


def test_failed_output_write_exits_2_naming_out(tmp_path, capsys):
    # A directory where the report file goes: it is refused before anything is written, and no temp file is left.
    out = tmp_path / "out"
    (out / "witness.json").mkdir(parents=True)
    assert main(["run", "--config", "witness_identity.json", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at field 'out': cannot write 'witness.json'")
    assert sorted(p.name for p in out.iterdir()) == ["witness.json"]


def test_failed_run_writes_none_of_its_files(tmp_path, capsys):
    # simulate writes simulate.csv and simulate.json; a directory where the json goes leaves no fresh csv either.
    out = tmp_path / "out"
    (out / "simulate.json").mkdir(parents=True)
    assert main(["run", "--config", str(GOLDEN_CONFIGS / "simulate.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at field 'out': cannot write 'simulate.csv', 'simulate.json' to {str(out)!r}")
    assert sorted(p.name for p in out.iterdir()) == ["simulate.json"]


def test_reports_get_the_mode_a_plain_open_gives(tmp_path):
    previous = os.umask(0o022)
    try:
        assert main(["run", "--config", str(GOLDEN_CONFIGS / "simulate.json"), "--out", str(tmp_path)]) == 0
        open(tmp_path / "plain.txt", "w").close()
    finally:
        os.umask(previous)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["plain.txt", "simulate.csv", "simulate.json"], modes["plain.txt"])


@pytest.mark.parametrize("config", ["witness", "witness_d3", "witness_d2d3"])
def test_witness_negativity_is_the_si_measure_value(tmp_path, config):
    path = GOLDEN_CONFIGS / f"{config}.json"
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    payload = json.loads(path.read_text())
    state = parse_state(payload["state"])
    r = pdm_closed_form(state, pdmsi.cli._channel(payload["channel"], "channel", len(state)))
    negativity = json.loads((tmp_path / "witness.json").read_text())["negativity"]
    assert negativity == si_measure(r, 1.0).value > 0


def test_lg_subcommand_needs_an_lg_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", PDM)
    assert main(["lg", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "field 'kind'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_classify_subcommand_rejects_dim_zero(capsys):
    assert main(["classify", "identity", "--dim", "0"]) == 2
    assert "field 'dim'" in capsys.readouterr().err


class TestDeterminism:
    def test_witness_outputs_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            main(["run", "--config", "witness_identity.json", "--out", str(tmp_path / sub)])
        assert (tmp_path / "a" / "witness.json").read_bytes() == \
               (tmp_path / "b" / "witness.json").read_bytes()

    def test_simulate_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "version": 1, "kind": "simulate", "state": KET0,
            "channel": "identity", "shots": 2000, "seed": 11,
        })
        for sub in ("a", "b"):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        for name in ("simulate.csv", "simulate.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "version": 1, "kind": "simulate", "state": PLUS,
            "channel": "identity", "shots": 500, "seed": 11,
        })
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "12"])
        assert (tmp_path / "a" / "simulate.csv").read_text() != \
               (tmp_path / "b" / "simulate.csv").read_text()

    def test_simulate_metadata_fields(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "version": 1, "kind": "simulate", "state": KET0,
            "channel": "identity", "shots": 100, "seed": 5,
        })
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        meta = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert meta["generator"] == "numpy-pcg64-binomial"
        assert meta["seed"] == 5
        assert meta["shots_per_pair"] == 100
        assert "wall_time" not in meta and "wall_time_s" not in meta


class TestOtherKinds:
    def test_sweep_csv(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", {
            "version": 1, "kind": "sweep", "state": KET0,
            "channel": "amplitude_damping", "parameter": "gamma",
            "grid": {"start": 0.0, "stop": 1.0, "num": 11},
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,value,si_value,min_eigenvalue,bound_ok"
        assert len(lines) == 12
        assert all(line.endswith("true") for line in lines[1:])

    def test_classify_scenario_and_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cls.json", {
            "version": 1, "kind": "classify", "channel": "dephase",
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "classify.json").read_text())["report"]
        assert report["is_oi"] and report["is_ce"]
        capsys.readouterr()
        assert main(["classify", "dephase"]) == 0
        text = capsys.readouterr().out
        assert "OI" in text and "yes" in text

    def test_lg_scenario_and_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "lg.json", {
            "version": 1, "kind": "lg", "channel": "identity",
            "states": [KET0, [[0.5, 0.0], [0.0, 0.5]]], "q": "Z",
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = json.loads((tmp_path / "out" / "lg.json").read_text())
        assert out["comparison"]["lg_violated"] is False
        assert out["comparison"]["si_detected"] is True
        capsys.readouterr()
        assert main(["lg", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "LG violated" in text and "SI detected" in text


class TestVerify:
    def test_scaled_down_suites_pass(self, capsys):
        assert main(["verify", "all", "--trials-scale", "0.01"]) == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "[FAIL]" not in text

    def test_injected_sign_error_detected(self, capsys, monkeypatch):
        # The sign of T_1 flipped row by row, so the fault has the kernel's shape on a stack of spectra.
        broken = lambda lam: -2.0 * np.where(lam < -1e-10, -lam, 0.0).sum(axis=-1)
        monkeypatch.setattr(pdmsi.pdm, "_t1_closed_form", broken)
        assert main(["verify", "pdm", "--trials-scale", "0.01"]) == 1
        text = capsys.readouterr().out
        assert "[FAIL]" in text
        assert "closed form vs simplex optimizer" in text

    def test_verify_scenario_kind(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {
            "version": 1, "kind": "verify", "suite": "lg", "trials_scale": 0.01,
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert all(check["passed"] for check in out["checks"])

    def test_verify_scenario_kind_all_suites(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {
            "version": 1, "kind": "verify", "suite": "all", "trials_scale": 0.01,
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert {check["suite"] for check in out["checks"]} == {"pdm", "coherence", "lg"}
        assert all(check["passed"] is True for check in out["checks"])


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(pdmsi.pdm.__file__))
    code = "import sys, pdmsi.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_cli_import_does_not_load_numpy_random():
    # numpy.random costs a cold start about 15 ms; sampling loads it on first use. NumPy 1.x
    # imports it with numpy itself, so only modules beyond those of a bare `import numpy` count.
    src = os.path.dirname(os.path.dirname(pdmsi.pdm.__file__))
    code = ("import sys, numpy\n"
            "rng = lambda: {m for m in sys.modules if m.startswith('numpy.random')}\n"
            "before = rng()\n"
            "import pdmsi.cli\n"
            "print(sorted(rng() - before))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_load_verify():
    # Only `pdmsi verify` and the verify kind load the suites and the random draws they make.
    src = os.path.dirname(os.path.dirname(pdmsi.pdm.__file__))
    code = "import sys, pdmsi.cli; print(sorted({'pdmsi.verify', 'pdmsi.random'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_every_traced_module():
    # The benchmark tracer rebinds names in each of these after `import pdmsi.cli`, and reads them from sys.modules.
    src = os.path.dirname(os.path.dirname(pdmsi.pdm.__file__))
    modules = ["linalg", "states", "observables", "channels", "pdm", "sampling", "coherence", "leggett_garg",
               "serialize"]
    code = "import sys, pdmsi.cli; print([m for m in sys.argv[1:] if 'pdmsi.' + m not in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code, *modules], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_unknown_verify_suite_names_suite(capsys):
    assert main(["verify", "nope"]) == 2
    assert "field 'suite': expected one of all, pdm, coherence, lg, got 'nope'" in capsys.readouterr().err


def _pairs(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _count_calls(monkeypatch, *targets) -> Counter:
    """Count calls of each ``module.function`` through every pdmsi module that binds it."""
    counts = Counter()
    for target in targets:
        module, name = target.split(".")
        original = getattr(sys.modules[f"pdmsi.{module}"], name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in [m for n, m in sys.modules.items() if n.startswith("pdmsi.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


class TestStackedSweep:
    @pytest.mark.parametrize("channel, d, values", [
        ("amplitude_damping", 2, [0.0, 0.1, 0.5, 0.9, 1.0]),
        *[("depolarizing", d, [0.0, 0.25, 0.7, 1.0]) for d in (2, 3, 4)],
    ])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_rows_match_per_point_calls(self, channel, d, values, p):
        parameter, build = SWEEPS[channel]
        cfg = {"version": 1, "kind": "sweep", "channel": channel, "parameter": parameter, "values": values,
               "p": p, "state": _pairs(prandom.density_matrix(d, np.random.default_rng(d)))}
        state = parse_state(cfg["state"])
        chs = [build(v, d) for v in values]
        if channel == "depolarizing":  # p = 0 has 1 Kraus operator, p > 0 has 1 + d^2: one J stack
            assert [len(ch.kraus_ops) for ch in chs] == [1] + [1 + d * d] * (len(values) - 1)
            assert np.array([ch.jamiolkowski() for ch in chs]).shape == (len(values), d * d, d * d)
        rows = [line.split(",") for line in run_sweep(cfg)[0]["sweep.csv"].splitlines()[1:]]
        assert len(rows) == len(values)
        for row, v, ch in zip(rows, values, chs):
            r = pdm_closed_form(state, ch)
            assert float(row[1]) == v
            assert abs(float(row[2]) - si_measure(r, p).value) <= 1e-12
            assert abs(float(row[3]) - r.min_eigenvalue()) <= 1e-12
            assert row[4] == str(check_bound(state, ch).bound_ok).lower()

    def test_chunks_write_the_same_bytes(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "sweep.json", {
            "version": 1, "kind": "sweep", "state": PLUS, "channel": "amplitude_damping",
            "parameter": "gamma", "grid": {"start": 0.0, "stop": 1.0, "num": 10}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
        monkeypatch.setattr(pdmsi.cli, "_sweep_chunk", lambda d: 3)
        counts = _count_calls(monkeypatch, "pdm._check_pdm", "linalg.eig_hermitian")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "chunked")]) == 0
        assert counts["_check_pdm"] == 4 and counts["eig_hermitian"] == 0
        one, chunked = ((tmp_path / out / "sweep.csv").read_bytes() for out in ("one", "chunked"))
        assert chunked == one

    def test_chunk_holds_no_more_pdm_entries_than_one_max_dim_point(self):
        for d in range(1, MAX_DIM + 1):
            assert 1 <= pdmsi.cli._sweep_chunk(d) and pdmsi.cli._sweep_chunk(d) * d**4 <= MAX_DIM**4


class TestEachQuantityComputedOnce:
    def test_sweep_makes_one_spectral_call_per_chunk(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "sweep.json", {
            "version": 1, "kind": "sweep", "state": PLUS, "channel": "amplitude_damping",
            "parameter": "gamma", "grid": {"start": 0.0, "stop": 1.0, "num": 200}})
        counts = _count_calls(monkeypatch, "pdm.pdm_closed_form", "pdm.si_measure", "pdm.check_bound",
                              "pdm._check_pdm", "linalg.eig_hermitian")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert counts == Counter({"_check_pdm": 1})

    def test_pdm_builds_and_diagonalises_one_pdm(self, tmp_path, monkeypatch):
        """The bound check's ``pdm_closed_form`` call is a memo hit on the kind's own."""
        counts = _count_calls(monkeypatch, "pdm.pdm_closed_form", "pdm._closed_form", "linalg._eigh_hermitian_part")
        assert main(["run", "--config", str(GOLDEN_CONFIGS / "pdm_p1.json"), "--out", str(tmp_path)]) == 0
        assert counts == Counter({"pdm_closed_form": 2, "_closed_form": 1, "_eigh_hermitian_part": 1})

    def test_witness_diagonalises_its_pdm_once(self, tmp_path, monkeypatch):
        counts = _count_calls(monkeypatch, "linalg._eigh_hermitian_part")
        assert main(["run", "--config", "witness_identity.json", "--out", str(tmp_path)]) == 0
        assert counts == Counter({"_eigh_hermitian_part": 1})

    def test_bound_check_builds_no_pdm_and_no_eigenvectors(self, monkeypatch):
        """After ``pdm_closed_form`` and ``si_measure`` on a pair, ``check_bound`` reads the
        channel's ``Pdm``: no state or PDM check, no closed form and no eigensolve."""
        ch = prandom.channel(3, 3, env_dim=2, rng=np.random.default_rng(5))
        rho = prandom.density_matrix(3, np.random.default_rng(6))
        t1 = si_measure(pdm_closed_form(rho, ch), 1.0).value
        counts = _count_calls(monkeypatch, "states.check_density_matrix", "pdm._check_pdm", "pdm._closed_form",
                              "linalg.eig_hermitian")
        res = check_bound(rho, ch)
        assert res.bound_ok and res.t1 == t1
        assert counts == Counter()

    def test_one_pair_path_checks_each_hermitian_input_once(self, monkeypatch):
        """Channel, closed form, T_1, bound and witness on a fresh pair: one Hermiticity check for
        the state and one for R, which ``Pdm.eig`` diagonalises without a second."""
        rng = np.random.default_rng(8)
        rho, ops = projector(prandom.pure_state(3, rng)), prandom.channel(3, 3, env_dim=2, rng=rng).kraus
        ObservableBasis.default_for_dim(3)  # the witness's basis, built (and its members checked) once per process
        counts = _count_calls(monkeypatch, "linalg.check_hermitian")
        ch = KrausChannel(ops)
        r = pdm_closed_form(rho, ch)
        t1 = si_measure(r, 1.0).value
        assert t1 > 0.0 and check_bound(rho, ch).bound_ok
        assert synthesize_witness(r).expectation(r) < 0.0
        assert counts == Counter({"check_hermitian": 2})

    def test_witness_expectation_makes_no_gram_solve(self, monkeypatch):
        """A witness's coefficients are computed on first read, which ``expectation`` never does."""
        counts = _count_calls(monkeypatch, "pdm._pair_coefficients")
        r = pdm_closed_form(projector(ket(0, 3)), identity_channel(3))
        w = synthesize_witness(r)
        assert w.expectation(r) < -0.5
        assert counts == Counter()
        assert w.coefficients is w.coefficients and len(w.to_dict()["coefficients"]) == 81
        assert counts == Counter({"_pair_coefficients": 1})

    def test_lg_vs_si_checks_its_states_as_one_stack(self, monkeypatch):
        """Three valid states take one Hermiticity check between them and no per-state check; the
        other two checks are the observable's and the leg-1 PDM stack's."""
        counts = _count_calls(monkeypatch, "linalg.check_hermitian", "states.check_density_matrix")
        lg_vs_si(identity_channel(2), [projector(ket(0)), projector(ket(1)), np.diag([0.3, 0.7])],
                 q_list=[PAULI_1Q["Z"]])
        assert counts == Counter({"check_hermitian": 3})

    def test_lg_vs_si_checks_its_leg1_stack_once(self, monkeypatch):
        """The witness PDM is a member of the checked leg-1 stack: no second check."""
        counts = _count_calls(monkeypatch, "pdm._check_pdm", "linalg._eigh_hermitian_part")
        summary = lg_vs_si(identity_channel(2), [projector(ket(0)), projector(ket(1)), np.diag([0.3, 0.7])],
                           q_list=[PAULI_1Q["Z"]])
        assert summary.si_detected and summary.witness is not None
        assert counts == Counter({"_check_pdm": 1, "_eigh_hermitian_part": 1})

    def test_lg_diagonalises_only_the_witness_pdm(self, tmp_path, monkeypatch):
        counts = _count_calls(monkeypatch, "linalg._eigh_hermitian_part")
        assert main(["run", "--config", str(GOLDEN_CONFIGS / "lg.json"), "--out", str(tmp_path)]) == 0
        assert counts == Counter({"_eigh_hermitian_part": 1})

    def test_lg_evaluates_correlators_once(self, tmp_path, monkeypatch):
        counts = _count_calls(monkeypatch, "leggett_garg._lg_correlators")
        assert main(["run", "--config", str(GOLDEN_CONFIGS / "lg.json"), "--out", str(tmp_path)]) == 0
        assert counts["_lg_correlators"] == 1

    def test_lg_builds_each_closed_form_once(self, tmp_path, monkeypatch):
        # Leg 1, leg 2 and both legs; the SI values and the witness reuse the leg-1 PDMs.
        counts = _count_calls(monkeypatch, "pdm._closed_form")
        assert main(["run", "--config", str(GOLDEN_CONFIGS / "lg.json"), "--out", str(tmp_path)]) == 0
        assert counts == Counter({"_closed_form": 3})
