"""Exact few-photon simulation of heralded entanglement concentration.

The package simulates two heralded concentration protocols for single
photons carrying dual-rail and polarization structure: a single-round
linear-optics scheme and a nondemolition-assisted scheme whose failure
branch is recycled with a retuned coupler.  States are sparse occupation
superpositions evolved exactly; detector statistics, feed-forward phase
corrections, closed-form checks, an independent path-sum oracle, and a
sampled detector-loss chain are built on top.
"""

from .fock import (
    DegenerateStateError,
    FockError,
    H,
    IsometryError,
    ModeCollisionError,
    PHOTON_CAP,
    PhotonBudgetError,
    State,
    V,
    apply_mode_transform,
    fidelity,
    inner,
    mode,
    single_photon,
    tensor,
)
from .elements import (
    PortContractError,
    apply_bs,
    apply_pbs,
    apply_pbs_merge,
    apply_phase_flip,
    apply_vbs,
)
from .measurement import (
    DetectorGroup,
    DetectorModel,
    HeraldOutcome,
    IDEAL_DETECTORS,
    herald,
    qnd_component,
)
from .params import (
    EntanglementParams,
    ParameterError,
    PolarizationParams,
    vbs_schedule,
)
from .formulas import (
    branch_success_minus,
    branch_success_plus,
    claimed_total,
    joint_total_one_round,
    qnd_round_success,
    round_success_series,
)
from .dsl import (
    BindingError,
    CircuitDoc,
    CircuitError,
    CircuitParseError,
    parse,
    validate,
)
from .circuits import BUILTIN_NAMES, builtin_doc, builtin_text
from .engine import (
    ConfigError,
    TopologyError,
    analyze,
    execute,
    run_ecp1,
    run_ecp2,
)
from .report import EngineInfo, ProtocolReport, RoundResult
from .montecarlo import estimate_series_total, run_monte_carlo
from .oracle import oracle_ecp1, oracle_ecp2
from .verify import CheckResult, corrupted_coupler, run_checks

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "BindingError",
    "CheckResult",
    "CircuitDoc",
    "CircuitError",
    "CircuitParseError",
    "ConfigError",
    "DegenerateStateError",
    "DetectorGroup",
    "DetectorModel",
    "EngineInfo",
    "EntanglementParams",
    "FockError",
    "H",
    "HeraldOutcome",
    "IDEAL_DETECTORS",
    "IsometryError",
    "ModeCollisionError",
    "PHOTON_CAP",
    "ParameterError",
    "PhotonBudgetError",
    "PolarizationParams",
    "PortContractError",
    "ProtocolReport",
    "RoundResult",
    "State",
    "TopologyError",
    "V",
    "analyze",
    "apply_bs",
    "apply_mode_transform",
    "apply_pbs",
    "apply_pbs_merge",
    "apply_phase_flip",
    "apply_vbs",
    "branch_success_minus",
    "branch_success_plus",
    "builtin_doc",
    "builtin_text",
    "claimed_total",
    "corrupted_coupler",
    "estimate_series_total",
    "execute",
    "fidelity",
    "herald",
    "inner",
    "joint_total_one_round",
    "mode",
    "oracle_ecp1",
    "oracle_ecp2",
    "parse",
    "qnd_component",
    "qnd_round_success",
    "round_success_series",
    "run_checks",
    "run_ecp1",
    "run_ecp2",
    "run_monte_carlo",
    "single_photon",
    "tensor",
    "validate",
    "vbs_schedule",
]
