"""beamforge: closed-form steady states of elastically coupled
extensible double-beam systems, with residual verification and a
brute-force Galerkin cross-check.

A public name loads its home submodule when it is first used (PEP 562),
so importing the package, or a command of its CLI, compiles only the
layers that are run.
"""

import importlib

__version__ = "0.1.0"

# public name -> home submodule
_HOME = {
    "ConversionDiagnostics": "convert",
    "CubicReport": "core",
    "EEFamily": "ee_families",
    "MatchReport": "oracle",
    "ModalSolution": "core",
    "ModeSetPartition": "modesets",
    "OracleResult": "oracle",
    "Params": "core",
    "PhysicalParams": "convert",
    "ResidualReport": "core",
    "SingleBeamSolutionSet": "single_beam",
    "Spectrum": "spectrum",
    "ValidationError": "errors",
    "VerificationError": "errors",
    "axial_coefficients": "core",
    "bstar_pairs": "bimodal",
    "cubic_check": "core",
    "dimensionless_params": "convert",
    "dirichlet_mode_count": "modesets",
    "effective_modes": "modesets",
    "enumerate_ee_families": "ee_families",
    "enumerate_foundation": "single_beam",
    "enumerate_general_bimodal": "bimodal",
    "enumerate_plain": "single_beam",
    "enumerate_unimodal": "unimodal",
    "galerkin_solve": "oracle",
    "match_against": "oracle",
    "modal_residual": "core",
    "sample_family": "ee_families",
}

__all__ = list(_HOME)


def __getattr__(name):
    # read through the submodule on every access and never bound here, so
    # a name patched on its home module (a tracer's wrapper) is seen here
    # while it is patched and gone once it is restored
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
