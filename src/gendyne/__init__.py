"""gendyne: limits and synthesis for measurement-based Gaussian feedback.

Compute the spectral limits on steady-state squeezing and entanglement of
continuously monitored bosonic modes in thermal surroundings, construct the
monitoring and the record-proportional driving that reach them, and verify
the closed loop both deterministically (Riccati/Lyapunov) and by stochastic
ensemble simulation.
"""

__version__ = "0.1.0"

from .bounds import (
    eig_product_bound,
    entanglement_bound,
    pt_nu_lower_bound,
    squeezing_bound,
    tightness_entanglement,
    tightness_squeezing,
)
from .conditioning import (
    MeasurementSetup,
    UnravellingMatrix,
    apply_efficiency,
    measurement_matrices,
    named_unravelling,
    riccati_rhs,
    riccati_steady_state,
    solve_riccati,
    stabilising_check,
    validate_unravelling,
)
from .dynamics import (
    CouplingOperators,
    DriftDiffusion,
    SpectralData,
    ThermalBath,
    build_drift_diffusion,
    evolve_covariance,
    lyapunov_steady_state,
    stability_check,
    thermal_couplings,
    thermal_drift_diffusion,
)
from .errors import (
    ConvergenceError,
    GendyneError,
    NotStabilisingError,
    PhysicalityError,
    UnstableSystemError,
)
from .feedback import ClosedLoop, FeedbackLaw, closed_loop, feedback_gain, unravelling_for_target
from .scenarios import (
    Report,
    ScenarioSpec,
    parametric_hamiltonian,
    run_scenario,
    sweep,
    threshold_coupling,
    threshold_efficiency,
)
from .symplectic import (
    Bipartition,
    CovarianceMatrix,
    log_negativity,
    physicality_check,
    pt_min_symplectic_eigenvalue,
    purity,
    symplectic_eigenvalues,
    symplectic_form,
)
from .trajectories import (
    EnsembleStats,
    TrajectoryConfig,
    TrajectoryRecord,
    default_burn_in,
    ensemble_statistics,
    simulate_closed_loop,
)

__all__ = [
    "__version__",
    "Bipartition",
    "ClosedLoop",
    "ConvergenceError",
    "CouplingOperators",
    "CovarianceMatrix",
    "DriftDiffusion",
    "EnsembleStats",
    "FeedbackLaw",
    "GendyneError",
    "MeasurementSetup",
    "NotStabilisingError",
    "PhysicalityError",
    "Report",
    "ScenarioSpec",
    "SpectralData",
    "ThermalBath",
    "TrajectoryConfig",
    "TrajectoryRecord",
    "UnravellingMatrix",
    "UnstableSystemError",
    "apply_efficiency",
    "build_drift_diffusion",
    "closed_loop",
    "default_burn_in",
    "eig_product_bound",
    "ensemble_statistics",
    "entanglement_bound",
    "evolve_covariance",
    "feedback_gain",
    "log_negativity",
    "lyapunov_steady_state",
    "measurement_matrices",
    "named_unravelling",
    "parametric_hamiltonian",
    "physicality_check",
    "pt_min_symplectic_eigenvalue",
    "pt_nu_lower_bound",
    "purity",
    "riccati_rhs",
    "riccati_steady_state",
    "run_scenario",
    "simulate_closed_loop",
    "solve_riccati",
    "squeezing_bound",
    "stabilising_check",
    "stability_check",
    "sweep",
    "symplectic_eigenvalues",
    "symplectic_form",
    "thermal_couplings",
    "thermal_drift_diffusion",
    "threshold_coupling",
    "threshold_efficiency",
    "tightness_entanglement",
    "tightness_squeezing",
    "unravelling_for_target",
    "validate_unravelling",
]
