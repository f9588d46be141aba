"""The four workloads: how each builds its items, runs them and checks them.

Every workload is a closed loop with one client: the next item starts when
the previous one has finished.  Items come in rounds whose composition is
fixed (only the random matrices change with the seed), so throughput per
round compares like with like across seeds.  ``items(seed, r)`` is
deterministic in (seed, round); ``run`` calls only the program; ``check``
compares the outputs with the reference maths in ``oracle`` and returns the
names of the checks that failed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import oracle
import pdmsi.channels as channels
import pdmsi.coherence as coherence
import pdmsi.leggett_garg as leggett_garg
import pdmsi.observables as observables
import pdmsi.pdm as pdm
import pdmsi.sampling as sampling

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60.0

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _rng(seed: int, workload: str, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), r])


def _stack(basis) -> tuple[np.ndarray, np.ndarray]:
    """Observable matrices of a basis and their +/-lam magnitudes."""
    mats = np.stack([basis.matrix(label) for label in basis.labels])
    lams = np.array([np.max(np.abs(np.linalg.eigvalsh(m))) for m in mats])
    return mats, lams


def _table_values(table) -> np.ndarray:
    return np.array([[table.entries[(a, b)] for b in table.basis2.labels]
                     for a in table.basis1.labels])


class Workload:
    name = ""
    # Rounds per second of --seconds that a traced run replays (untraced, then
    # traced); fixed so that one seed always gives the same call counts.
    trace_rounds_per_s = 1.0
    # Timed rounds, fixed so that every run times the same number of items and
    # item_tail_ms is the same percentile in every run; None times whole rounds
    # until --seconds have passed.
    timed_rounds = None
    # Correct item timings for the host's speed (hostspeed.py).
    host_corrected = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.current_round = 0

    def items(self, r: int) -> list[dict]:
        raise NotImplementedError

    def warmup_items(self) -> list[dict]:
        """Untimed items run first, so caches fill and lazy set-up finishes: round 0."""
        return self.items(0)

    def run(self, item: dict, recorder=None):
        raise NotImplementedError

    def check(self, item: dict, out) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks, made after the timed phase; names of failures."""
        return []

    def child_peak_rss_kb(self) -> int | None:
        return None


class SiSurvey(Workload):
    """Criterion 3's sweep: (state, channel) pairs through T_p, the bound and witnesses.

    Position in the 50-item round fixes the item's kind: one in five is a
    qutrit; one in ten a pure state through a Haar unitary (saturates the
    bound); one in ten adds p=2, one in fifty p=3; one in ten adds the
    coherence classes, the block test on the diagonal input and LG vs SI
    (half of those on a classical measure-and-prepare channel, one with a
    dephasing Liouvillian for the NCGD probe).  Random channels have two,
    three and four Kraus operators in turn, so every round costs the same.
    """

    name = "si_survey"
    trace_rounds_per_s = 2.0
    ROUND = 50

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ref = {d: oracle.reference_t1(d) for d in (2, 3)}

    def items(self, r):
        rng = _rng(self.seed, self.name, r)
        out = []
        for pos in range(self.ROUND):
            d = 3 if pos % 5 == 2 else 2
            item = {"d": d, "pure": pos % 10 == 0, "p2": pos % 10 == 3, "p3": pos % 50 == 3,
                    "extras": pos % 10 == 5, "liouvillian": None}
            if item["pure"]:
                item["rho"] = oracle.pure_state(d, rng)
                item["ops"] = [oracle.haar_unitary(d, rng)]
            else:
                item["rho"] = oracle.density_matrix(d, rng)
                item["ops"] = oracle.kraus_ops(d, d, 2 + pos % 3, rng)
            if item["extras"]:
                if pos % 20 == 15:  # classical channel: Kraus sqrt(a_ki)|k><i|
                    a = rng.dirichlet(np.ones(d), size=d).T
                    item["ops"] = [np.sqrt(a[k, i]) * np.outer(np.eye(d)[k], np.eye(d)[i])
                                   for k in range(d) for i in range(d)]
                if pos == 25:
                    delta = np.diag(np.eye(d).reshape(-1))
                    item["liouvillian"] = rng.uniform(0.2, 2.0) * (delta - np.eye(d * d))
                probs = np.real(np.diag(item["rho"])).copy()
                item["probs"] = probs / probs.sum()
                p = rng.uniform(0.05, 0.95)
                item["lg_states"] = [np.diag(v).astype(complex) for v in
                                     (np.eye(d)[0], np.eye(d)[1], np.r_[p, 1 - p, [0.0] * (d - 2)])]
                item["lg_q"] = oracle.dichotomic(d, rng)
            out.append(item)
        return out

    def run(self, item, recorder=None):
        ch = channels.KrausChannel(item["ops"])
        r = pdm.pdm_closed_form(item["rho"], ch)
        out = {"t1": pdm.si_measure(r, 1.0).value, "bound": pdm.check_bound(item["rho"], ch)}
        if out["t1"] > 0.0:
            out["witness"] = pdm.synthesize_witness(r).expectation(r)
        if item["p2"]:
            out["t2"] = pdm.si_measure(r, 2.0).value
        if item["p3"]:
            out["t3"] = pdm.si_measure(r, 3.0).value
        if item["extras"]:
            out["classes"] = coherence.classify_channel(ch, ncgd_probe=item["liouvillian"])
            out["block"] = coherence.block_positivity_test(item["probs"], ch).compatible
            out["lg"] = leggett_garg.lg_vs_si(ch, item["lg_states"], q_list=[item["lg_q"]])
        return out

    def check(self, item, out):
        ref = self.ref[item["d"]]
        t1 = out["t1"]
        true = oracle.pdm_matrix(item["rho"], item["ops"])
        fails = []
        if not 0.0 <= t1 <= ref + 1e-9:
            fails.append("t1_range")
        if abs(t1 - oracle.t1(true)) > 1e-9:
            fails.append("t1_oracle")
        bound = out["bound"]
        if not (bound.bound_ok and abs(bound.reference - ref) <= 1e-9 and abs(bound.t1 - t1) <= 1e-9):
            fails.append("bound")
        if item["pure"] and abs(t1 - ref) > 1e-9:
            fails.append("saturation")
        if t1 > 1e-9 and not out.get("witness", 0.0) < 0.0:
            fails.append("witness_sign")
        if "t2" in out and (out["t2"] > t1 + 1e-9 or abs(out["t2"] - oracle.t2(true)) > 1e-9):
            fails.append("t2")
        if "t3" in out and out["t3"] > out["t2"] + 1e-7:
            fails.append("t3")
        if item["extras"]:
            cls = out["classes"]
            if (cls.is_oi and not cls.is_di) or (cls.is_ce and not cls.is_ci):
                fails.append("class_implication")
            diag = np.diag(item["probs"]).astype(complex)
            psd = oracle.eigenvalues(oracle.pdm_matrix(diag, item["ops"]))[0] >= -1e-9
            if out["block"] != psd:
                fails.append("block_oracle")
            best = max(oracle.t1(oracle.pdm_matrix(s, item["ops"])) for s in item["lg_states"])
            lg = out["lg"]
            if abs(lg.best_negativity - best) > 1e-9 or lg.si_detected != (best > 1e-9):
                fails.append("lg_vs_si")
        return fails


class Tomography(Workload):
    """Reconstruction from <{A, B}> tables of random unit-trace Hermitian PDMs.

    The 82-item round holds 48 (2,2), 12 (3,3), 10 (2,3), 7 (4,4) and five
    (8,8) in a fixed order; the (8,8) items are most of the round's time.  A
    run times three rounds, so fifteen (8,8) items, and ``item_tail_ms`` (ten
    items beyond it) is the fifth fastest of them: inside the (8,8) class,
    not at its edge, where it moved with the host's fastest moments.
    """

    name = "tomography"
    trace_rounds_per_s = 0.1
    timed_rounds = 3
    DIMS = [(2, 2)] * 48 + [(3, 3)] * 12 + [(2, 3)] * 10 + [(4, 4)] * 7 + [(8, 8)] * 5
    ORDER = np.random.default_rng(0).permutation(len(DIMS))

    def items(self, r):
        rng = _rng(self.seed, self.name, r)
        out = []
        for k in self.ORDER:
            d1, d2 = self.DIMS[k]
            out.append({"dims": (d1, d2), "mat": oracle.unit_trace_hermitian(d1 * d2, rng)})
        return out

    def warmup_items(self):
        """One item of each size: caches are per dimension, and a whole round of
        (8,8) items would add ten seconds to every run."""
        return list({item["dims"]: item for item in self.items(0)}.values())

    def run(self, item, recorder=None):
        table = pdm.exact_correlators(pdm.Pdm(item["mat"], item["dims"]))
        text = table.to_csv()
        back = pdm.CorrelatorTable.from_csv(text, table.basis1, table.basis2)
        rec = pdm.pdm_from_correlators(back)
        t1 = pdm.si_measure(rec, 1.0).value
        w = pdm.synthesize_witness(rec)
        return {"table": table, "back": back, "rec": rec.mat, "t1": t1,
                "from_table": pdm.evaluate_witness(w, back), "direct": w.expectation(rec)}

    def check(self, item, out):
        fails = []
        table, back = out["table"], out["back"]
        if list(back.entries.items()) != list(table.entries.items()):
            fails.append("csv_round_trip")
        mats1, _ = _stack(table.basis1)
        mats2, _ = _stack(table.basis2)
        if np.max(np.abs(_table_values(table) - oracle.correlators(item["mat"], mats1, mats2))) > 1e-9:
            fails.append("correlator_oracle")
        if np.max(np.abs(out["rec"] - item["mat"])) > 1e-9:
            fails.append("reconstruction")
        if abs(out["t1"] - oracle.t1(item["mat"])) > 1e-9:
            fails.append("t1_oracle")
        if not (out["from_table"] < 0.0 and abs(out["from_table"] - out["direct"]) <= 1e-9):
            fails.append("witness_from_table")
        return fails


class Sampling(Workload):
    """Sampled correlator tables, then reconstruction and T_1.

    Two regimes: per-pair overhead (pauli:2 and light_touch:3 at hundreds to
    thousands of shots per pair) and RNG-bound (pauli:1 at 10^5 shots); a
    2 -> 3 and a 3 -> 2 channel use mixed bases so d1 != d2.  Seven items, so
    that ``item_p50_ms`` is the fourth-fastest kind (light_touch:3, between
    two of its own cost) instead of the midpoint of the gap between the fast
    and the slow half.
    """

    name = "sampling"
    trace_rounds_per_s = 1.0
    # (basis at t1, basis at t2, in dim, out dim, shots per pair, Kraus operators)
    ROUND = [
        ("pauli:2", "pauli:2", 4, 4, 500, 2),
        ("pauli:2", "pauli:2", 4, 4, 2000, 3),
        ("light_touch:3", "light_touch:3", 3, 3, 300, 2),
        ("light_touch:3", "light_touch:3", 3, 3, 1000, 3),
        ("pauli:1", "pauli:1", 2, 2, 100_000, 2),
        ("pauli:1", "light_touch:3", 2, 3, 1000, 3),
        ("light_touch:3", "pauli:1", 3, 2, 1000, 2),
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first = None

    def items(self, r):
        rng = _rng(self.seed, self.name, r)
        out = []
        for basis1, basis2, d_in, d_out, shots, n_ops in self.ROUND:
            out.append({"bases": (basis1, basis2), "shots": shots,
                        "rho": oracle.density_matrix(d_in, rng),
                        "ops": oracle.kraus_ops(d_in, d_out, n_ops, rng),
                        "seed": int(rng.integers(2**31))})
        return out

    def run(self, item, recorder=None):
        b1, b2 = (observables.ObservableBasis.from_descriptor(b) for b in item["bases"])
        ch = channels.KrausChannel(item["ops"])
        table = sampling.sample_table(item["rho"], ch, (b1, b2), item["shots"], item["seed"])
        text = table.to_csv()
        r = pdm.pdm_from_correlators(table)
        return {"table": table, "text": text, "rec": r.mat, "t1": pdm.si_measure(r, 1.0).value}

    def check(self, item, out):
        if self.first is None:
            self.first = (item, out["text"])
        fails = []
        table = out["table"]
        mats1, lams1 = _stack(table.basis1)
        mats2, lams2 = _stack(table.basis2)
        exact = oracle.correlators(oracle.pdm_matrix(item["rho"], item["ops"]), mats1, mats2)
        if not oracle.sampled_within(_table_values(table), exact, np.outer(lams1, lams2), item["shots"]):
            fails.append("six_sigma")
        if abs(out["t1"] - oracle.t1(out["rec"])) > 1e-9:
            fails.append("t1_oracle")
        return fails

    def finish(self):
        """Re-sample the first checked table with its seed: the CSV must match byte for byte."""
        if self.first is None:
            return []
        item, text = self.first
        return [] if self.run(item)["text"] == text else ["resample_bytes"]


class Cli(Workload):
    """``python -m pdmsi.cli`` in a fresh process per item, one at a time.

    The 7-item round: both bundled scenarios by bare name, a classify, and one
    generated config each of pdm (p=2), lg, simulate and sweep.  Configs are
    fixed for the run, so every round must write the same bytes.  A run times
    four rounds, 28 items, so ``item_tail_ms`` (ten items beyond it) is always
    the 64th percentile: a low one, since an item takes about a second.
    """

    name = "cli"
    trace_rounds_per_s = 0.05
    # The reference task, timed in the parent between children, tracked the
    # children's speed worse than none: in five seeds it widened every timing's
    # spread from 0.13-0.16 to 0.27-0.29.
    host_corrected = False
    timed_rounds = 4
    SWEEP_POINTS = 200

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = _rng(seed, self.name, 0)
        self.inputs = {
            "pdm": {"state": oracle.density_matrix(2, rng), "ops": oracle.kraus_ops(2, 2, 3, rng)},
            "lg": {"ops": oracle.kraus_ops(2, 2, 2, rng), "q": oracle.dichotomic(2, rng),
                   "p": float(rng.uniform(0.05, 0.95))},
            "simulate": {"state": oracle.density_matrix(2, rng), "ops": oracle.kraus_ops(2, 2, 2, rng),
                         "seed": int(rng.integers(2**31)), "shots": 2000},
            "sweep": {"state": oracle.density_matrix(2, rng)},
        }
        lg = self.inputs["lg"]
        lg["states"] = [np.diag(v).astype(complex) for v in ([1.0, 0.0], [0.0, 1.0], [lg["p"], 1 - lg["p"]])]
        configs = {
            "pdm": {"kind": "pdm", "state": _pairs(self.inputs["pdm"]["state"]),
                    "channel": {"kraus": [_pairs(k) for k in self.inputs["pdm"]["ops"]]}, "p": 2},
            "lg": {"kind": "lg", "channel": {"kraus": [_pairs(k) for k in lg["ops"]]},
                   "states": [_pairs(s) for s in lg["states"]], "q": _pairs(lg["q"])},
            "simulate": {"kind": "simulate", "state": _pairs(self.inputs["simulate"]["state"]),
                         "channel": {"kraus": [_pairs(k) for k in self.inputs["simulate"]["ops"]]},
                         "shots": self.inputs["simulate"]["shots"], "seed": self.inputs["simulate"]["seed"]},
            "sweep": {"kind": "sweep", "state": _pairs(self.inputs["sweep"]["state"]),
                      "channel": "amplitude_damping", "parameter": "gamma",
                      "grid": {"start": 0.0, "stop": 1.0, "num": self.SWEEP_POINTS}},
        }
        for name, cfg in configs.items():
            (self.workdir / f"{name}.json").write_text(json.dumps({"version": 1, **cfg}))
        self.invocations = [
            ("witness_identity", ["run", "--config", "witness_identity.json", "--out", "out/witness_identity"],
             ["witness.json"]),
            ("pdm_plus_dephase", ["run", "--config", "pdm_plus_dephase.json", "--out", "out/pdm_plus_dephase"],
             ["pdm.json"]),
            ("classify", ["classify", "amplitude_damping(0.3)"], []),
            ("pdm", ["run", "--config", "pdm.json", "--out", "out/pdm"], ["pdm.json"]),
            ("lg", ["run", "--config", "lg.json", "--out", "out/lg"], ["lg.json"]),
            ("simulate", ["run", "--config", "simulate.json", "--out", "out/simulate"],
             ["simulate.csv", "simulate.json"]),
            ("sweep", ["run", "--config", "sweep.json", "--out", "out/sweep"], ["sweep.csv"]),
        ]
        self.seen = {}
        self.peak_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))
        self.env.pop("PYTHONSTARTUP", None)

    def items(self, r):
        return [{"name": n, "argv": a, "files": f} for n, a, f in self.invocations]

    def warmup_items(self):
        """None: every item is a fresh process; the parent's own imports warm the file cache."""
        return []

    def run(self, item, recorder=None):
        out_dir = self.workdir / "out" / item["name"]
        shutil.rmtree(out_dir, ignore_errors=True)
        if recorder is None:
            cmd = [sys.executable, "-m", "pdmsi.cli", *item["argv"]]
        else:
            trace_file = self.workdir / "trace.json"
            trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "cli_launcher.py"), str(trace_file), *item["argv"]]
        with open(self.workdir / "stdout", "wb") as so, open(self.workdir / "stderr", "wb") as se:
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=so, stderr=se)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        files = {f: (out_dir / f).read_bytes() for f in item["files"] if (out_dir / f).is_file()}
        if recorder is not None and proc.returncode == 0:
            recorder.merge(json.loads(trace_file.read_text()), item=recorder.item)
        return {"code": proc.returncode, "files": files,
                "stdout": (self.workdir / "stdout").read_bytes()}

    def check(self, item, out):
        name = item["name"]
        if out["code"] != 0 or sorted(out["files"]) != sorted(item["files"]):
            return ["exit_code"]
        fails = []
        produced = dict(out["files"])
        if name == "classify":
            produced["stdout"] = out["stdout"]
        for fname, data in produced.items():
            if self.seen.setdefault((name, fname), data) != data:
                fails.append("byte_identical")
        docs = {f: json.loads(b) for f, b in out["files"].items() if f.endswith(".json")}
        if name == "witness_identity" and abs(docs["witness.json"]["expectation"] + 0.5) > 1e-10:
            fails.append("witness_expectation")
        if name == "pdm_plus_dephase" and abs(docs["pdm.json"]["si"]["value"] - (math.sqrt(2) - 1)) > 1e-9:
            fails.append("negativity")
        if name == "pdm":
            inp = self.inputs["pdm"]
            true = oracle.t2(oracle.pdm_matrix(inp["state"], inp["ops"]))
            if abs(docs["pdm.json"]["si"]["value"] - true) > 1e-9:
                fails.append("t2_oracle")
        if name == "lg":
            inp = self.inputs["lg"]
            best = max(oracle.t1(oracle.pdm_matrix(s, inp["ops"])) for s in inp["states"])
            if abs(docs["lg.json"]["comparison"]["best_negativity"] - best) > 1e-9:
                fails.append("lg_negativity")
        if name == "simulate":
            inp = self.inputs["simulate"]
            rows = [line.split(",") for line in out["files"]["simulate.csv"].decode().split("\n")[1:] if line]
            values = np.array([float(row[2]) for row in rows])
            mats1 = np.stack([PAULI[row[0]] for row in rows])
            mats2 = np.stack([PAULI[row[1]] for row in rows])
            full = oracle.correlators(oracle.pdm_matrix(inp["state"], inp["ops"]), mats1, mats2)
            if len(rows) != 16 or not oracle.sampled_within(values, np.diag(full), np.ones(len(rows)),
                                                           inp["shots"]):
                fails.append("six_sigma")
        if name == "sweep":
            rows = [line.split(",") for line in out["files"]["sweep.csv"].decode().split("\n")[1:] if line]
            state = self.inputs["sweep"]["state"]
            ok = len(rows) == self.SWEEP_POINTS
            for row in rows:
                g = float(row[1])
                ops = [np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex),
                       np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)]
                ok &= row[4] == "true" and abs(float(row[2]) - oracle.t1(oracle.pdm_matrix(state, ops))) <= 1e-9
            if not ok:
                fails.append("sweep_rows")
        return fails

    def child_peak_rss_kb(self):
        return self.peak_kb


def _pairs(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


WORKLOADS = {w.name: w for w in (SiSurvey, Tomography, Sampling, Cli)}
