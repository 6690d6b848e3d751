import numpy as np
import pytest

from beamforge import Params, Spectrum
from beamforge import kernels
from beamforge.oracle import newton_scale, start_box_radius


@pytest.fixture(scope="module")
def problem():
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    spec = Spectrum.scaled()
    lams = spec.eigenvalues(3)
    tol = 1e-11 * newton_scale(p, spec, 3)
    radius = start_box_radius(p, spec)
    rng = np.random.default_rng(123)
    starts = rng.uniform(-radius, radius, (400, 6))
    return p, lams, tol, starts


def _max_residual(lams, p, roots):
    F = kernels.residual(lams, p.beta, p.varrho, p.k, roots)
    return np.abs(F).max(axis=1)


def test_converged_roots_have_small_residual(problem):
    p, lams, tol, starts = problem
    roots, conv, iters = kernels.newton_batch(lams, p.beta, p.varrho, p.k, starts, tol)
    assert conv.sum() > 350
    assert (_max_residual(lams, p, roots[conv]) < tol).all()
    assert (iters[conv] <= 200).all()


def test_zero_start_is_the_trivial_root(problem):
    p, lams, tol, _ = problem
    roots, conv, iters = kernels.newton_batch(lams, p.beta, p.varrho, p.k, np.zeros((1, 6)), tol)
    assert conv[0] and iters[0] == 0
    assert np.all(roots[0] == 0.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        kernels.newton_batch(np.array([1.0, 4.0]), 0.0, 1.0, 1.0, np.zeros((3, 3)), 1e-9)
    with pytest.raises(ValueError):
        kernels.newton_batch(np.array([1.0]), 0.0, 1.0, 1.0, np.zeros(2), 1e-9)
