"""Set-up time of one workload in this fresh interpreter.

Imports the pdmsi modules the workload calls and builds its
``ObservableBasis`` objects, then prints the elapsed seconds.  ``run.py``
starts it several times and reports the median as ``setup_s``.

Usage: python3 bench/setup_probe.py WORKLOAD
"""

import importlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

MODULES = {
    "si_survey": ["pdmsi.channels", "pdmsi.pdm", "pdmsi.coherence", "pdmsi.leggett_garg"],
    "tomography": ["pdmsi.pdm", "pdmsi.observables"],
    "sampling": ["pdmsi.channels", "pdmsi.sampling", "pdmsi.pdm", "pdmsi.observables"],
    "cli": ["pdmsi.cli"],
}
BASES = {
    "si_survey": ["default:2", "default:3"],
    "tomography": ["default:2", "default:3", "default:4", "default:8"],
    "sampling": ["pauli:2", "light_touch:3", "pauli:1"],
    "cli": ["default:2"],
}


def main() -> None:
    workload = sys.argv[1]
    start = time.perf_counter()
    for name in MODULES[workload]:
        importlib.import_module(name)
    basis = importlib.import_module("pdmsi.observables").ObservableBasis
    for spec in BASES[workload]:
        kind, _, arg = spec.partition(":")
        basis.default_for_dim(int(arg)) if kind == "default" else basis.from_descriptor(spec)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
