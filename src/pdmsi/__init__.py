"""Pseudo-density matrices for two-time processes: construction, spatial
incompatibility measures and witnesses, channel coherence classification,
and Leggett-Garg comparisons."""

from .channels import (
    KrausChannel,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)
from .coherence import (
    AdversarialState,
    BlockDecomposition,
    BlockPositivityResult,
    CoherenceClassReport,
    adversarial_coherent_state,
    block_positivity_test,
    build_ce_oi_channel,
    classify_channel,
    pdm_blocks,
)
from .exceptions import (
    DimensionMismatch,
    IncompleteTable,
    InvalidP,
    NoAsymmetricColumn,
    NonHermitian,
    NotSpatiallyIncompatible,
    PdmsiError,
    ZeroShots,
)
from .leggett_garg import (
    LgResult,
    LgScenario,
    LgVsSi,
    SpatialBound,
    lg_evaluate,
    lg_operator,
    lg_vs_si,
    spatial_lg_bound,
)
from .linalg import (
    EigenDecomposition,
    eig_hermitian,
    kron,
    project_simplex,
    pseudo_inverse,
    superop_exp,
)
from .observables import (
    LightTouchObservable,
    ObservableBasis,
    PauliString,
    light_touch_basis,
    pauli_basis,
)
from .pdm import (
    BoundCheck,
    CorrelatorTable,
    Pdm,
    SiReport,
    Witness,
    check_bound,
    evaluate_witness,
    exact_correlators,
    pdm_closed_form,
    pdm_from_correlators,
    si_measure,
    synthesize_witness,
)
from .sampling import (
    MeasurementProjectors,
    TwoTimeSample,
    projectors_for,
    sample_table,
    sample_two_time,
)
from .states import (
    check_density_matrix,
    ket,
    ketbra,
    maximally_mixed,
    plus_state,
    projector,
)

__version__ = "0.1.0"
