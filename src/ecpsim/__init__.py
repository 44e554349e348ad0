"""Exact few-photon simulation of heralded entanglement concentration.

The package simulates two heralded concentration protocols for single
photons carrying dual-rail and polarization structure: a single-round
linear-optics scheme and a nondemolition-assisted scheme whose failure
branch is recycled with a retuned coupler.  States are sparse occupation
superpositions evolved exactly; detector statistics, feed-forward phase
corrections, closed-form checks, an independent path-sum oracle, and a
sampled detector-loss chain are built on top.

Public names are imported from their modules on first access, so a command
loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "fock": ("DegenerateStateError FockError H IsometryError ModeCollisionError PHOTON_CAP PhotonBudgetError "
             "State V apply_mode_transform fidelity inner mode single_photon tensor"),
    "elements": "PortContractError apply_bs apply_pbs apply_pbs_merge apply_phase_flip apply_vbs",
    "measurement": "DetectorGroup DetectorModel HeraldOutcome IDEAL_DETECTORS herald qnd_component",
    "params": "EntanglementParams ParameterError PolarizationParams vbs_schedule",
    "formulas": ("branch_success_minus branch_success_plus claimed_total joint_total_one_round "
                 "qnd_round_success round_success_series"),
    "dsl": "BindingError CircuitDoc CircuitError CircuitParseError parse validate",
    "circuits": "BUILTIN_NAMES builtin_doc builtin_text",
    "engine": "ConfigError TopologyError analyze execute run_ecp1 run_ecp2",
    "report": "EngineInfo ProtocolReport RoundResult",
    "montecarlo": "estimate_series_total run_monte_carlo",
    "oracle": "oracle_ecp1 oracle_ecp2",
    "verify": "CheckResult corrupted_coupler run_checks",
}
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
