"""Tests of the benchmark itself: seeded inputs, repeatable counts, checks that bite.

Run from the repository root: ``python -m pytest -q bench/test_bench.py``.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IN_PROCESS = ["si_survey", "tomography", "sampling"]


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == np.shape(b) and np.array_equal(a, b)
    return a == b


def _make(name, seed, tmp_path):
    return workloads.WORKLOADS[name](seed, tmp_path / f"{name}-{seed}")


@pytest.mark.parametrize("name", IN_PROCESS)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first = _make(name, 7, tmp_path).items(3)
    assert _same(first, _make(name, 7, tmp_path / "again").items(3))
    assert not _same(first, _make(name, 8, tmp_path).items(3))
    assert not _same(first, _make(name, 7, tmp_path).items(4))


def test_cli_configs_follow_the_seed(tmp_path):
    def configs(seed, sub):
        wl = workloads.Cli(seed, tmp_path / sub)
        return {p.name: p.read_text() for p in sorted(wl.workdir.glob("*.json"))}

    assert configs(7, "a") == configs(7, "b")
    assert configs(7, "a") != configs(8, "c")


@pytest.mark.parametrize("name", ["si_survey", "sampling"])
def test_same_seed_same_call_counts(name, tmp_path):
    def calls():
        wl = _make(name, 5, tmp_path)
        run.run_round(wl, wl.warmup_items(), Counter())  # fills the program's own caches, as in run.py
        rec = tracing.Recorder()
        undo = tracing.install(rec)
        try:
            run.rounds(wl, [1], Counter(), rec)
        finally:
            tracing.uninstall(undo)
        return {k: v for k, (v, unit) in rec.metrics().items() if k.endswith(".calls")}

    first = calls()
    assert first == calls()
    assert sum(first.values()) > 0


def test_uninstall_restores_every_binding():
    import pdmsi.pdm

    before = (pdmsi.pdm.si_measure, pdmsi.pdm.KrausChannel.__call__,
              pdmsi.pdm.ObservableBasis.__dict__["from_descriptor"])
    undo = tracing.install(tracing.Recorder())
    assert pdmsi.pdm.si_measure is not before[0]
    tracing.uninstall(undo)
    assert (pdmsi.pdm.si_measure, pdmsi.pdm.KrausChannel.__call__,
            pdmsi.pdm.ObservableBasis.__dict__["from_descriptor"]) == before


def test_self_time_excludes_children():
    rec = tracing.Recorder()
    rec.enter("outer")
    rec.enter("inner")
    rec.leave()
    rec.leave()
    (inner, outer) = rec.spans
    assert inner[1] == outer[0]
    assert rec.self_s["outer"] == pytest.approx((outer[5] - outer[4]) - (inner[5] - inner[4]))


def test_digest_time_is_in_no_self_time():
    rec = tracing.Recorder()
    rec.enter("outer")
    rec.exclude(0.25)
    rec.leave()
    (outer,) = rec.spans
    assert rec.self_s["outer"] == pytest.approx(outer[5] - outer[4] - 0.25)


def test_host_factor_is_nominal_over_the_trimmed_mean_reference_time():
    tracker = hostspeed.Tracker()
    tracker.took = [0.5, 0.004, 0.005, 0.006, 0.007, 0.005, 0.006, 0.004, 0.007, 0.0001]
    assert tracker.factor() == pytest.approx(hostspeed.NOMINAL_S / 0.0055)


def _outputs(wl, r=1):
    items = wl.items(r)
    outs = [wl.run(item) for item in items]
    for item, out in zip(items, outs):
        assert wl.check(item, out) == []
    return items, outs


def _first(items, outs, pred):
    return next((i, o) for i, o in zip(items, outs) if pred(i, o))


def test_si_survey_checks_catch_corruption(tmp_path):
    wl = _make("si_survey", 3, tmp_path)
    items, outs = _outputs(wl)
    plain = _first(items, outs, lambda i, o: not i["pure"] and o["t1"] > 1e-6)
    pure = _first(items, outs, lambda i, o: i["pure"])
    with_p3 = _first(items, outs, lambda i, o: i["p3"])
    extras = _first(items, outs, lambda i, o: i["extras"])
    cases = [
        (plain, lambda o: o.update(t1=o["t1"] + 1e-6), "t1_oracle"),
        (plain, lambda o: o.update(t1=-1e-3), "t1_range"),
        (plain, lambda o: o.update(bound=dataclasses.replace(o["bound"], bound_ok=False)), "bound"),
        (plain, lambda o: o.update(witness=-o["witness"]), "witness_sign"),
        (pure, lambda o: o.update(t1=o["t1"] - 1e-6), "saturation"),
        (with_p3, lambda o: o.update(t2=o["t2"] + 1e-6), "t2"),
        (with_p3, lambda o: o.update(t3=o["t2"] + 1e-6), "t3"),
        (extras, lambda o: o.update(block=not o["block"]), "block_oracle"),
        (extras, lambda o: o.update(classes=dataclasses.replace(o["classes"], is_oi=True, is_di=False)),
         "class_implication"),
        (extras, lambda o: o.update(lg=dataclasses.replace(o["lg"], best_negativity=o["lg"].best_negativity + 1e-6)),
         "lg_vs_si"),
    ]
    for (item, out), corrupt, expected in cases:
        bad = dict(out)
        corrupt(bad)
        assert expected in wl.check(item, bad), expected


def test_tomography_checks_catch_corruption(tmp_path):
    wl = _make("tomography", 3, tmp_path)
    item = next(i for i in wl.items(1) if i["dims"] == (2, 3))
    out = wl.run(item)
    assert wl.check(item, out) == []

    def corrupt_entry(o):
        o["back"] = copy.deepcopy(o["back"])
        key = next(iter(o["back"].entries))
        o["back"].entries[key] = np.nextafter(o["back"].entries[key], 2.0)

    def corrupt_table(o):
        o["table"] = copy.deepcopy(o["table"])
        key = next(iter(o["table"].entries))
        o["table"].entries[key] += 1e-6

    cases = [
        (corrupt_entry, "csv_round_trip"),
        (corrupt_table, "correlator_oracle"),
        (lambda o: o.update(rec=o["rec"] + 1e-6), "reconstruction"),
        (lambda o: o.update(t1=o["t1"] + 1e-6), "t1_oracle"),
        (lambda o: o.update(from_table=-o["from_table"]), "witness_from_table"),
        (lambda o: o.update(from_table=o["from_table"] - 1e-6), "witness_from_table"),
    ]
    for corrupt, expected in cases:
        bad = dict(out)
        corrupt(bad)
        assert expected in wl.check(item, bad), expected


def test_sampling_checks_catch_corruption(tmp_path):
    wl = _make("sampling", 3, tmp_path)
    item = next(i for i in wl.items(1) if i["bases"] == ("pauli:1", "light_touch:3"))
    out = wl.run(item)
    assert wl.check(item, out) == []
    assert wl.finish() == []

    bad = dict(out, table=copy.deepcopy(out["table"]))
    key = next(k for k in bad["table"].entries if k[0] != "I")
    bad["table"].entries[key] += 0.2
    assert "six_sigma" in wl.check(item, bad)
    assert "t1_oracle" in wl.check(item, dict(out, t1=out["t1"] + 1e-6))

    wl.first = (item, out["text"].replace(",", ";", 1))
    assert wl.finish() == ["resample_bytes"]


def test_cli_checks_catch_corruption(tmp_path):
    wl = _make("cli", 3, tmp_path)
    items, outs = _outputs(wl)
    by_name = {i["name"]: (i, o) for i, o in zip(items, outs)}

    def edit_json(name, fname, path, value):
        item, out = by_name[name]
        doc = json.loads(out["files"][fname])
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return item, dict(out, files={**out["files"], fname: json.dumps(doc).encode()})

    def edit_csv(name, fname, column, value):
        item, out = by_name[name]
        lines = out["files"][fname].decode().split("\n")
        cells = lines[2].split(",")
        cells[column] = value(cells[column])
        lines[2] = ",".join(cells)
        return item, dict(out, files={**out["files"], fname: "\n".join(lines).encode()})

    item, out = by_name["classify"]
    assert wl.check(item, dict(out, code=1)) == ["exit_code"]
    assert wl.check(item, dict(out, stdout=out["stdout"] + b" ")) == ["byte_identical"]
    cases = [
        (edit_json("witness_identity", "witness.json", ["expectation"], -0.4999), "witness_expectation"),
        (edit_json("pdm_plus_dephase", "pdm.json", ["si", "value"], 0.4142), "negativity"),
        (edit_json("pdm", "pdm.json", ["si", "value"], 0.5), "t2_oracle"),
        (edit_json("lg", "lg.json", ["comparison", "best_negativity"], 7.0), "lg_negativity"),
        (edit_csv("simulate", "simulate.csv", 2, lambda v: repr(float(v) + 0.5)), "six_sigma"),
        (edit_csv("sweep", "sweep.csv", 4, lambda v: "false"), "sweep_rows"),
    ]
    for (item, bad), expected in cases:
        assert expected in wl.check(item, bad), expected


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "si_survey", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
