"""Differential test of the two halves: the Galerkin oracle against the
closed forms, through ``beamforge oracle``.

Points sit just above or below a threshold ``lam_n``, ``mu_n`` or
``nu_n`` of one of the three modes the oracle solves for, where a band
changes and new branches leave the trivial state with small amplitudes.
``oracle`` exits 0 when it misses a closed-form state, so the test
reads the matching block instead of the exit code.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from beamforge import Spectrum
from beamforge.cli import main
from beamforge.modesets import mu_value, nu_value


@st.composite
def near_thresholds(draw):
    spectrum = draw(st.sampled_from(["scaled", "dirichlet", "power:2"]))
    k = draw(st.floats(min_value=0.1, max_value=100.0))
    varrho = draw(st.floats(min_value=0.25, max_value=4.0))
    lam = Spectrum.from_token(spectrum).eigenvalue(draw(st.integers(min_value=1, max_value=3)))
    threshold = draw(st.sampled_from([lam, mu_value(lam, k), nu_value(lam, k)]))
    rel = 10.0 ** draw(st.floats(min_value=-6.0, max_value=-2.0))
    minus_beta = threshold * (1.0 + draw(st.sampled_from([-rel, rel])))
    return spectrum, k, varrho, -minus_beta


@settings(max_examples=20, deadline=None, derandomize=True)
@given(near_thresholds())
# 1.2e-6 above nu_1: the search took points on the flat arc between the
# anti-phase root and the asymmetric roots leaving it for roots
@example(("dirichlet", 1.0, 2.0, -10.173578125584323))
def test_oracle_finds_every_closed_form_state_and_nothing_else(point):
    spectrum, k, varrho, beta = point
    argv = [
        "oracle", "--spectrum", spectrum, f"--k={k!r}", f"--varrho={varrho!r}",
        f"--beta={beta!r}", "--modes", "3", "--starts", "3000",
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    matching = json.loads(out.getvalue())["matching"]
    assert matching["unmatched_count"] == 0
    assert matching["missed_closed_count"] == 0
    assert code == 0
