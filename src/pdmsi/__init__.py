"""Pseudo-density matrices for two-time processes: construction, spatial
incompatibility measures and witnesses, channel coherence classification,
and Leggett-Garg comparisons.

Each public name lives in the submodule that ``_NAMES`` gives, and is
imported on first use (PEP 562): ``import pdmsi.pdm`` loads ``pdm`` and its
own imports and nothing else, and ``pdmsi.X`` or ``from pdmsi import X``
imports X's submodule then.  Each submodule listed is itself a name of the
package.
"""

from importlib import import_module as _import_module

_NAMES = {
    "channels": "KrausChannel amplitude_damping_channel dephasing_channel depolarizing_channel identity_channel "
                "unitary_channel",
    "coherence": "AdversarialState BlockPositivityResult CoherenceClassReport adversarial_coherent_state "
                 "block_positivity_test build_ce_oi_channel classify_channel",
    "exceptions": "DimensionMismatch IncompleteTable InvalidP NoAsymmetricColumn NonHermitian "
                  "NotSpatiallyIncompatible PdmsiError ZeroShots",
    "leggett_garg": "LgResult LgScenario LgVsSi SpatialBound lg_evaluate lg_operator lg_vs_si spatial_lg_bound",
    "linalg": "EigenDecomposition eig_hermitian kron project_simplex pseudo_inverse superop_exp",
    "observables": "LightTouchObservable ObservableBasis PauliString light_touch_basis pauli_basis",
    "pdm": "BoundCheck CorrelatorTable Pdm SiReport Witness check_bound evaluate_witness exact_correlators "
           "pdm_closed_form pdm_from_correlators si_measure synthesize_witness",
    "sampling": "MeasurementProjectors TwoTimeSample projectors_for sample_table sample_two_time",
    "states": "check_density_matrix ket ketbra maximally_mixed plus_state projector",
}
# Every public name -> the submodule it lives in; a submodule's own name maps to itself.
_HOME = {name: module for module, names in _NAMES.items() for name in (module, *names.split())}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}", name=name) from None
    module = _import_module(f"{__name__}.{home}")  # binds the submodule on the package too
    if name == home:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
