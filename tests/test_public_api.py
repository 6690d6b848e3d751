from collections import Counter

import beamforge

PUBLIC = [
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


def test_star_import_resolves_every_public_name_once():
    namespace: dict = {}
    # raises AttributeError for a name in __all__ that the package lacks
    exec("from beamforge import *", namespace)
    assert [name for name, n in Counter(beamforge.__all__).items() if n > 1] == []
    for name in beamforge.__all__:
        assert namespace[name] is getattr(beamforge, name)


def test_public_names_are_pinned():
    # a name added to or dropped from the package's surface shows here
    assert sorted(beamforge.__all__) == PUBLIC
