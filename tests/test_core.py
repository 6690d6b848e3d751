import json
import math

import pytest

from beamforge import (
    ModalSolution,
    Params,
    ValidationError,
    axial_coefficients,
    Spectrum,
    cubic_check,
    modal_residual,
)
from pair_reference import is_ee

S3 = math.sqrt(3.0)


def test_params_validation():
    Params(beta=-3.0, varrho=1.0, k=2.0)
    with pytest.raises(ValidationError):
        Params(beta=0.0, varrho=0.0, k=1.0)
    with pytest.raises(ValidationError):
        Params(beta=0.0, varrho=1.0, k=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for kwargs in ({"beta": bad}, {"varrho": bad}, {"k": bad}):
            with pytest.raises(ValidationError):
                Params(**{"beta": -1.0, "varrho": 1.0, "k": 1.0, **kwargs})


def test_trivial_axial_coefficients(scaled):
    p = Params(beta=-2.5, varrho=3.0, k=1.0)
    assert axial_coefficients(ModalSolution.trivial(), p, scaled) == (-2.5, -2.5)


def test_in_phase_axial_coefficients(scaled):
    # independent check: with C = -1 the first modal equation
    # lam^2 a + C lam a + k*(a-a) = a - a = 0 holds identically
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    a = math.sqrt(14.5)
    sol = ModalSolution({1: (a, a)})
    cu, cv = axial_coefficients(sol, p, scaled)
    assert cu == pytest.approx(-1.0, abs=1e-12)
    assert cv == pytest.approx(-1.0, abs=1e-12)
    assert 1.0 * a + cu * a == pytest.approx(0.0, abs=1e-12)
    assert modal_residual(sol, p, scaled).max_abs < 1e-10


def test_general_bimodal_axial_coefficients(scaled):
    # v-ratios (sqrt(3)-2, 4 sqrt(3)-7); tensions land on 3 sqrt(3)-10
    # and -3 sqrt(3)-10
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    r = -math.sqrt(2.0 + S3)
    t = -math.sqrt((7.0 + 4.0 * S3) / 8.0)
    sol = ModalSolution({1: (r, (S3 - 2.0) * r), 2: (t, (4.0 * S3 - 7.0) * t)})
    cu, cv = axial_coefficients(sol, p, scaled)
    assert cu == pytest.approx(3.0 * S3 - 10.0, abs=1e-12)
    assert cv == pytest.approx(-3.0 * S3 - 10.0, abs=1e-12)
    assert modal_residual(sol, p, scaled).relative < 1e-14
    assert not is_ee(sol, p, scaled, 1e-9)
    assert cu - cv == pytest.approx(6.0 * S3, abs=1e-12)


def test_trivial_residual_zero(scaled):
    p = Params(beta=-4.0, varrho=2.0, k=5.0)
    rep = modal_residual(ModalSolution.trivial(), p, scaled)
    assert rep.max_abs == 0.0
    assert rep.relative == 0.0


def test_perturbed_solution_residual_grows(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    a = math.sqrt(14.5)

    def res_at(alpha):
        return modal_residual(ModalSolution({1: (alpha, alpha)}), p, scaled).max_abs

    # finite-difference slope near the root: the residual grows at least
    # linearly, so a 0.1 kick must push it above 0.1
    h = 1e-6
    slope = (res_at(a + h) - res_at(a)) / h
    assert slope > 1.0
    assert res_at(a + 0.1) > 0.1


def test_is_ee_basic(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    assert is_ee(ModalSolution({1: (1.3, 1.3), 2: (0.4, 0.4)}), p, scaled, 1e-12)
    assert is_ee(ModalSolution({1: (1.0, -1.0), 2: (1.0, -1.0)}), p, scaled, 1e-12)
    with pytest.raises(ValidationError):
        is_ee(ModalSolution.trivial(), p, scaled, 0.0)


def test_cubic_check_unimodal(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    a = math.sqrt(14.5)
    report = cubic_check(ModalSolution({1: (a, a)}), p, scaled)
    (lam, val), = report.values
    assert lam == 1.0
    assert abs(val) < 1e-9


def test_cubic_check_rejects_random_coefficients(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    report = cubic_check(ModalSolution({1: (1.234, -0.777), 2: (0.5, 2.0)}), p, scaled)
    assert max(abs(v) for _, v in report.values) > 1e-3


def test_cubic_check_overflowed_cube_is_not_finite():
    # lam ** 3 overflows a Python float: the check reads a non-finite
    # value, for the emitter to reject, instead of raising OverflowError,
    # and the NaN value is the maximum, as check_inventory reads it
    p = Params(beta=-2e110, varrho=1.0, k=1.0)
    report = cubic_check(ModalSolution({1: (1.0, 1.0)}), p, Spectrum.explicit([1e110, 3e110]))
    (lam, val), = report.values
    assert lam == 1e110
    assert not math.isfinite(val)
    assert math.isnan(report.max_relative)


def test_modal_residual_keeps_a_nan_misfit():
    # lam^2 a overflows to inf and C_u lam a to -inf, so r1 is NaN; the
    # maximum is NaN, as check_inventory reads it, not the 0.0 before it
    p = Params(beta=-1e300, varrho=1.0, k=1.0)
    report = modal_residual(ModalSolution({1: (1.0, 1.0)}), p, Spectrum.explicit([1e155]))
    assert math.isnan(report.max_abs)
    assert math.isnan(report.relative)


def test_cubic_check_needs_nontrivial(scaled):
    p = Params(beta=-1.0, varrho=1.0, k=1.0)
    with pytest.raises(ValidationError):
        cubic_check(ModalSolution.trivial(), p, scaled)


def test_modal_solution_validation():
    with pytest.raises(ValidationError):
        ModalSolution({1: (1.0, 1.0), 2: (1.0, 1.0), 3: (1.0, 1.0), 4: (1.0, 1.0)})
    with pytest.raises(ValidationError):
        ModalSolution({1: (0.0, 1.0)})
    sol = ModalSolution({2: (1.0, -1.0), 5: (0.0, 0.0)})
    assert sol.active == (2,)
    assert not sol.is_trivial
    assert ModalSolution.trivial().is_trivial


def test_json_schema(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    a = math.sqrt(14.5)
    doc = ModalSolution({1: (a, a)}, tag="unimodal(1,+)").to_json_dict(p, scaled)
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["modes"] == [{"n": 1, "alpha": a, "gamma": a}]
    assert back["tag"] == "unimodal(1,+)"
    assert back["C_u"] == pytest.approx(-1.0)
    assert back["C_v"] == pytest.approx(-1.0)
