import math

import numpy as np
import pytest

from beamforge import (
    EEFamily,
    ModalSolution,
    Params,
    Spectrum,
    ValidationError,
    enumerate_ee_families,
    modal_residual,
    sample_family,
)
from pair_reference import is_ee


def family_on(p, spec, modes):
    """The family of ``enumerate_ee_families`` on these modes, or ``None``."""
    return next((f for f in enumerate_ee_families(p, spec) if f.modes == modes), None)


def test_b1_family_constants(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    fam = family_on(p, scaled, (1, 2))
    assert fam.kind == "B1"
    assert fam.coeffs == (1.0, 4.0)
    assert fam.constant == -5.0  # quadric x^2 + 4 y^2 = 5
    assert fam.sign_pattern == (-1, -1)
    # the member (1, 1) lies on the quadric and verifies
    member = ModalSolution({1: (1.0, -1.0), 2: (1.0, -1.0)})
    assert fam.quadric_residual((1.0, 1.0)) == 0.0
    assert modal_residual(member, p, scaled).relative < 1e-10
    assert is_ee(member, p, scaled, 1e-12)


def test_b2_family_constants(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=1.5)
    fam = family_on(p, scaled, (1, 2))
    assert fam.kind == "B2"
    assert fam.constant == -6.0  # x^2 + 4 y^2 = 6
    assert fam.sign_pattern == (-1, +1)


def test_trimodal_family_constants():
    spec = Spectrum.scaled(n_max=8)
    p = Params(beta=-30.0, varrho=1.0, k=72.0)
    fam = family_on(p, spec, (3, 4, 5))
    assert fam.kind == "T"
    assert fam.coeffs == (9.0, 16.0, 25.0)
    assert fam.constant == -5.0  # 9x^2 + 16y^2 + 25z^2 = 5
    assert fam.sign_pattern == (-1, -1, +1)
    # eigenvalue sum relation lam1 + lam2 = lam3
    assert spec.eigenvalue(3) + spec.eigenvalue(4) == spec.eigenvalue(5)


def test_non_member_is_none(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=3.0)
    assert family_on(p, scaled, (1, 2)) is None


def test_sampling_verifies(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    fam = family_on(p, scaled, (1, 2))
    samples = sample_family(fam, 50, seed=7)
    assert len(samples) == 50
    radii = [math.sqrt(-fam.constant / c) for c in fam.coeffs]
    for sol in samples:
        assert modal_residual(sol, p, scaled).relative < 1e-10
        assert is_ee(sol, p, scaled, 1e-10)
        for (n, (a, g)), r in zip(sol.modes.items(), radii):
            assert abs(a) == abs(g)  # per-mode energy balance
            assert abs(a) >= 1e-6 * r  # stays off the axes
    # reproducible for a fixed seed, different for another
    again = sample_family(fam, 50, seed=7)
    assert [s.modes for s in again] == [s.modes for s in samples]
    other = sample_family(fam, 50, seed=8)
    assert [s.modes for s in other] != [s.modes for s in samples]


def test_trimodal_sampling(scaled):
    spec = Spectrum.scaled(n_max=8)
    p = Params(beta=-30.0, varrho=1.0, k=72.0)
    fam = family_on(p, spec, (3, 4, 5))
    for sol in sample_family(fam, 25, seed=3):
        assert modal_residual(sol, p, spec).relative < 1e-10
        assert is_ee(sol, p, spec, 1e-10)
        assert sol.active == (3, 4, 5)


def test_sampling_edge_cases(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    fam = family_on(p, scaled, (1, 2))
    assert sample_family(fam, 0) == []
    degenerate = EEFamily("B1", (1, 2), (1.0, 4.0), 0.5, (-1, -1))
    with pytest.raises(ValidationError):
        sample_family(degenerate, 3)
    # random.Random(-1) would silently draw the stream of Random(1)
    with pytest.raises(ValidationError, match="seed"):
        sample_family(fam, 3, seed=-1)
    assert sample_family(fam, 3, seed=np.int64(3)) == sample_family(fam, 3, seed=3)


def test_perturbation_off_quadric_breaks_residual(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    fam = family_on(p, scaled, (1, 2))
    sol = sample_family(fam, 1, seed=11)[0]
    bumped = {
        n: (a * (1.0 + 1e-3), g * (1.0 + 1e-3)) for n, (a, g) in sol.modes.items()
    }
    assert modal_residual(ModalSolution(bumped), p, scaled).max_abs > 1e-5


def test_enumerate_families(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    fams = enumerate_ee_families(p, scaled)
    assert [f.kind for f in fams] == ["B1"]
    spec = Spectrum.scaled(n_max=8)
    p = Params(beta=-30.0, varrho=1.0, k=72.0)
    kinds = sorted(f.kind for f in enumerate_ee_families(p, spec))
    # (3,4) is B1 resonant, (3,5) and (4,5) are B2 resonant, (3,4,5) trimodal
    assert kinds == ["B1", "B2", "B2", "T"]


def test_family_serialization(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    doc = family_on(p, scaled, (1, 2)).to_json_dict()
    assert doc == {
        "kind": "B1",
        "modes": [1, 2],
        "quadric": {"coeffs": [1.0, 4.0], "constant": -5.0},
        "sign_pattern": [-1, -1],
    }
