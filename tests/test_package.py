"""The package namespace: each public name is imported from its submodule on first use.

Every check runs in a child interpreter, so what it loads is what its own imports load.
"""

import json
import os
import subprocess
import sys

import pdmsi.pdm

SRC = os.path.dirname(os.path.dirname(pdmsi.pdm.__file__))

# Every public name of the package, by the submodule that defines it.
NAMES = {
    "channels": ["KrausChannel", "amplitude_damping_channel", "dephasing_channel", "depolarizing_channel",
                 "identity_channel", "unitary_channel"],
    "coherence": ["AdversarialState", "BlockPositivityResult", "CoherenceClassReport", "adversarial_coherent_state",
                  "block_positivity_test", "build_ce_oi_channel", "classify_channel"],
    "exceptions": ["DimensionMismatch", "IncompleteTable", "InvalidP", "NoAsymmetricColumn", "NonHermitian",
                   "NotSpatiallyIncompatible", "PdmsiError", "ZeroShots"],
    "leggett_garg": ["LgResult", "LgScenario", "LgVsSi", "SpatialBound", "lg_evaluate", "lg_operator", "lg_vs_si",
                     "spatial_lg_bound"],
    "linalg": ["EigenDecomposition", "eig_hermitian", "kron", "project_simplex", "pseudo_inverse", "superop_exp"],
    "observables": ["LightTouchObservable", "ObservableBasis", "PauliString", "light_touch_basis", "pauli_basis"],
    "pdm": ["BoundCheck", "CorrelatorTable", "Pdm", "SiReport", "Witness", "check_bound", "evaluate_witness",
            "exact_correlators", "pdm_closed_form", "pdm_from_correlators", "si_measure", "synthesize_witness"],
    "sampling": ["MeasurementProjectors", "TwoTimeSample", "projectors_for", "sample_table", "sample_two_time"],
    "states": ["check_density_matrix", "ket", "ketbra", "maximally_mixed", "plus_state", "projector"],
}
# The package's public names: each submodule above and each name it exports.
PUBLIC = sorted(name for module, names in NAMES.items() for name in (module, *names))


def child(code: str, *args: str):
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    return json.loads(out.stdout)


def test_import_of_pdm_loads_no_unrelated_module():
    code = "import json, sys, pdmsi.pdm; print(json.dumps(sorted(m for m in sys.modules if m.startswith('pdmsi'))))"
    loaded = child(code)
    assert "pdmsi.pdm" in loaded
    assert not {"pdmsi.coherence", "pdmsi.leggett_garg", "pdmsi.sampling"} & set(loaded)


def test_bare_import_loads_no_submodule_and_not_numpy():
    code = ("import json, sys, pdmsi\n"
            "print(json.dumps([sorted(m for m in sys.modules if m.startswith('pdmsi')), 'numpy' in sys.modules]))")
    assert child(code) == [["pdmsi"], False]


def test_every_public_name_is_its_submodule_object():
    # Submodules first, each through the package; then each name read twice: the first read imports its
    # submodule, the second finds the name cached on the package.
    code = ("import importlib, json, sys, pdmsi\n"
            "names = json.loads(sys.argv[1])\n"
            "bad = [m for m in names if getattr(pdmsi, m) is not sys.modules['pdmsi.' + m]]\n"
            "def same(module, name):\n"
            "    first, cached = getattr(pdmsi, name), getattr(pdmsi, name)\n"
            "    return first is cached is getattr(importlib.import_module('pdmsi.' + module), name)\n"
            "bad += [n for m, ns in names.items() for n in ns if not same(m, n)]\n"
            "print(json.dumps(bad))")
    assert child(code, json.dumps(NAMES)) == []


def test_dir_and_star_import_list_every_public_name():
    code = ("import json, pdmsi\n"
            "public = lambda: [n for n in dir(pdmsi) if not n.startswith('_')]\n"
            "fresh, ns = public(), {}\n"
            "exec('from pdmsi import *', ns)\n"
            "print(json.dumps([fresh, sorted(pdmsi.__all__), sorted(set(ns) - {'__builtins__'}), public()]))")
    assert child(code) == [PUBLIC] * 4


def test_unknown_attribute_raises_attribute_error_naming_it():
    code = ("import json, pdmsi\n"
            "try:\n"
            "    pdmsi.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(json.dumps([str(exc), exc.name, hasattr(pdmsi, 'no_such_name')]))")
    assert child(code) == ["module 'pdmsi' has no attribute 'no_such_name'", "no_such_name", False]
