"""beamforge: closed-form steady states of elastically coupled
extensible double-beam systems, with residual verification and a
brute-force Galerkin cross-check."""

from .bimodal import bstar_pairs, enumerate_general_bimodal
from .convert import ConversionDiagnostics, PhysicalParams, dimensionless_params
from .core import (
    CubicReport,
    ModalSolution,
    Params,
    ResidualReport,
    axial_coefficients,
    cubic_check,
    modal_residual,
)
from .ee_families import EEFamily, enumerate_ee_families, sample_family
from .errors import ValidationError, VerificationError
from .modesets import ModeSetPartition, dirichlet_mode_count, effective_modes
from .oracle import MatchReport, OracleResult, galerkin_solve, match_against
from .single_beam import SingleBeamSolutionSet, enumerate_foundation, enumerate_plain
from .spectrum import Spectrum
from .unimodal import enumerate_unimodal

__version__ = "0.1.0"

__all__ = [
    "ConversionDiagnostics",
    "CubicReport",
    "EEFamily",
    "MatchReport",
    "ModalSolution",
    "ModeSetPartition",
    "OracleResult",
    "Params",
    "PhysicalParams",
    "ResidualReport",
    "SingleBeamSolutionSet",
    "Spectrum",
    "ValidationError",
    "VerificationError",
    "axial_coefficients",
    "bstar_pairs",
    "cubic_check",
    "dimensionless_params",
    "dirichlet_mode_count",
    "effective_modes",
    "enumerate_ee_families",
    "enumerate_foundation",
    "enumerate_general_bimodal",
    "enumerate_plain",
    "enumerate_unimodal",
    "galerkin_solve",
    "match_against",
    "modal_residual",
    "sample_family",
]
