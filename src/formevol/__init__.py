"""Hilbert-scale audits and unitary propagators for time-dependent
Hamiltonians with a constant form domain, at finite Galerkin scale."""

from .errors import (
    ArgumentError,
    ConfigError,
    GridError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NumericalError,
    SemiboundError,
)
from .forms import (
    HermitianForm,
    RepresentedOperator,
    Semibound,
    form_operator_norm,
    graph_norm,
    represent_form,
    semibound_of,
)
from .scales import (
    EquivalenceConstant,
    HilbertScale,
    build_scale,
    duality_constant,
    equivalence_constant,
    pairing,
)
from .models import (
    AffineHamiltonian,
    AlphaProfile,
    CircleDeltaModel,
    SyntheticModel,
    TimeDependentHamiltonian,
    alpha_profile,
    circle_delta_model,
    spectrum,
    synthetic_family,
)
from .regularity import (
    AssumptionReport,
    audit_grid,
    bridge_check,
    check_K2,
    check_S1,
    check_S2,
    differentiate_form,
    k2_verdict,
    s1_pencil_profile,
    s2_profile,
    uniform_grid,
)
from .propagators import (
    AxiomReport,
    PropagatorTable,
    ResidualReport,
    Trajectory,
    YosidaStudy,
    build_table,
    dyson_propagator,
    final_state,
    propagate,
    propagator_axioms,
    reference_propagator,
    unitary_exp,
    weak_residual,
    yosida_convergence_study,
    yosida_hamiltonian,
    yosida_operator,
)

__version__ = "0.1.0"

from .config import (  # noqa: E402  (needs __version__ for run records)
    ExperimentConfig,
    config_hash,
    parse_config,
    serialize_config,
)
from .runs import (  # noqa: E402
    RunRecord,
    emit_plotdata,
    run_audit,
    run_convergence,
    run_propagation,
    run_spectrum,
)
