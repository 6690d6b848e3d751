"""Byte-for-byte CLI outputs for a fixed argv corpus.

The files under ``tests/golden/`` were written by the implementation
that ran every pair invariant and the O(|E|^3) triple scan afresh at
each compression.  The one array evaluation of the pair algebra per
list of pairs, whose triple scan reads only the pairs on the B2
equality, must reproduce them exactly, and so must the sweep counts read
from tables built once per sweep; ``sweep_scaled_k72.csv``, the one
file with nonzero EE counts, was written by the last implementation
that still scanned the pairs at each compression.  Outputs too large to
keep are frozen by their sha256, written by the implementation that
decided each band, pair branch and family membership in more than one
module; the digest of ``enumerate --beta -45000`` was renewed only for
the note that reports truncation at ``n_max``, and
``sets_scaled_k72.json`` only for the ``notes`` key that carries it in
``sets`` output.  The solution records of
``enumerate_scaled_k72_samples.json`` (EE family samples) and
``unimodal_scaled.json`` were written by the last implementation that
verified each solution one object at a time and emitted it through the
recursive emitter; the array inventory, its vectorized checks and the
record template must reproduce them, and the digest, exactly.  The
samples of ``enumerate_scaled_k72_samples.json`` were drawn anew when ``sample_family`` moved from NumPy's
generator to ``random.Random(seed)``: the coordinates and loads of the
12 samples moved, and the family list, the counts and the verification
block held.  The
digest of the paper-case ``oracle`` run was renewed when the mode-support
blocks moved into one zero-padded Newton batch: a zero inside the
supports ``{1, 3}`` and ``{2, 3}`` changes the rounding of the coupling
sums, which moved the last digits of 11 of its 49 roots and nothing
else; the search must reproduce the new bytes exactly.  It was renewed
again for the removal of the ``backend`` key, which was always
``"numpy"``; no other line moved.  It was renewed a third time when the
oracle began to polish one sign representative per symmetry orbit and
to emit every other root as an exact image of one: each of the 49 roots
pairs one-to-one with its old value within 3.4e-14, four pairs of sign
images swapped places, and the counts and the matching report held.
It was renewed a fourth time when the Newton kernel began to sum
``C_u``, ``C_v`` and its line-search Gram matrix with elementwise adds
in mode order, so that a start's iterates no longer depend on its
batch: 56 lines of coefficients and loads moved in their last digits,
at most 4.2e-16 relative, and ``found_count``, ``converged_count``, the
matching report and the labels held.  It was renewed a fifth time when
the starts came from ``random.Random(seed)`` instead of NumPy's
generator: ``converged_count`` went 2974 -> 2968, the coefficients and
loads of 26 of its 49 roots moved by at most 1.6e-14 relative, and
``found_count``, the matching report and the labels held.
The digest of the benchmark's ``sweep`` and ``sweep_scaled_track_pairs.csv``
were written by the emitter that built one list per row, sorted all
rows by ``(beta, branch_id)`` and formatted them cell by cell; the
emitter that writes each compression's lines in order must reproduce
them.  Every general-bimodal byte above, and ``enumerate_scaled_pairs.json``
and ``sets_scaled.json``, was written by the implementation that solved
each pair's circle-ellipse systems one pair at a time with scalar floats;
the one array evaluation of a pair table must reproduce them exactly.
``unimodal_scaled.csv`` was written by the implementation that evaluated
each mode's amplitudes, band and reported families one grid point at a
time with scalar floats.  ``sets_scaled_k72_deep.json`` was written by
the implementation that scanned the pairs and triples one at a time,
each pair's resonances and invariants memoized per pair.
``single_foundation_scaled_k36.json`` was written by the implementation
whose foundation model scanned the modes ``1..n_max`` for its unimodal
states and tested each pair's ``lam1*lam2 == k`` with scalar floats.
``single_plain_scaled_k36.json`` and ``convert_rho.json`` were written
by the command line whose commands each returned their own exit code.
"""

import hashlib
from pathlib import Path

import pytest

from beamforge.cli import main

GOLDEN = Path(__file__).parent / "golden"

CORPUS = [
    # count columns run every pair and triple scan up to -beta = 45000
    ("sweep_dirichlet.csv", ["sweep", "--spectrum", "dirichlet", "--grid", "0:45000:9", "--track", "1,2,3"]),
    ("sweep_scaled_pairs.csv", ["sweep", "--spectrum", "scaled", "--k", "3", "--grid", "0:40:21", "--pairs", "1,2"]),
    ("enumerate_scaled.json", ["enumerate", "--spectrum", "scaled", "--k", "3", "--beta=-15.5"]),
    # the T triple (3, 4, 5) exists here
    ("sets_scaled_k72.json", ["sets", "--spectrum", "scaled", "--k", "72", "--beta", "-40"]),
    # every mode of n_max = 24 effective: B1 x3, B2 x2, T (3, 4, 5) and 258
    # B2* pairs in the pair-scan order
    (
        "sets_scaled_k72_deep.json",
        ["sets", "--spectrum", "scaled", "--k", "72", "--beta=-600", "--nmax", "24"],
    ),
    # EE counts 0, 4 and 5: four families start strictly above -beta = 25, a grid
    # point, and B1 (2, 6) above 40
    (
        "sweep_scaled_k72.csv",
        ["sweep", "--spectrum", "scaled", "--k", "72", "--grid", "0:60:13", "--track", "3,4,5"],
    ),
    # four EE families (B1, two B2, T) with 2- and 3-mode sample records
    (
        "enumerate_scaled_k72_samples.json",
        ["enumerate", "--spectrum", "scaled", "--k", "72", "--beta=-40", "--samples", "3"],
    ),
    ("unimodal_scaled.json", ["unimodal", "--spectrum", "scaled", "--k", "3", "--beta=-15.5"]),
    # a negative beta, mode 10 ordered before mode 1 (branch ids compare as
    # strings), several pairs and a repeated one
    (
        "sweep_scaled_track_pairs.csv",
        [
            "sweep", "--spectrum", "scaled", "--k", "3", "--grid", "-10:40:26",
            "--track", "1,2,10,11", "--pairs", "1,2", "--pairs", "2,3", "--pairs", "1,2",
        ],
    ),
    # pairs in argument order, and (3, 9), whose mode 9 is not effective
    (
        "enumerate_scaled_pairs.json",
        [
            "enumerate", "--spectrum", "scaled", "--k", "3", "--beta=-15.5",
            "--pairs", "2,3", "--pairs", "1,2", "--pairs", "3,9",
        ],
    ),
    # Bstar with a B1* pair (1, 2) beside the B2* pairs
    ("sets_scaled.json", ["sets", "--spectrum", "scaled", "--k", "3", "--beta=-15.5"]),
    # mode 1's branch table; the grid holds lam_1 = 1, mu_1 = 7 and nu_1 = 10 exactly
    (
        "unimodal_scaled.csv",
        ["unimodal", "--spectrum", "scaled", "--k", "3", "--csv", "--mode", "1", "--grid", "0:20:21"],
    ),
    # modes 2-5: modes 1 and 6 fail k/lam + lam < -beta; the family (2, 3)
    # only: (1, 6) is on lam1*lam2 == k but fails lam1 + lam2 < -beta
    (
        "single_foundation_scaled_k36.json",
        ["single", "--model", "foundation", "--spectrum", "scaled", "--k", "36", "--beta=-36.5"],
    ),
    # the plain model at the same load: modes 1-6, those with lam < -beta
    (
        "single_plain_scaled_k36.json",
        ["single", "--model", "plain", "--spectrum", "scaled", "--k", "36", "--beta=-36.5"],
    ),
    # steel beam data with a density, so tau0 is set; kappa is far from the
    # slenderness, which gives the one warning
    (
        "convert_rho.json",
        [
            "convert", "--ell", "1", "--h", "0.01", "--E", "2e11", "--nu", "0.3", "--D", "-0.001",
            "--kappa", "1e5", "--area", "1e-4", "--rho", "7800",
        ],
    ),
]

DIGESTS = [
    # 16,640 solutions on the default Dirichlet spectrum, 6.3 MB of JSON,
    # with the note that n_max = 64 cuts off 3 of the 67 effective modes
    (
        "f9fb355bd3b7625402aaeab0f42d49fc58c3358e77556589c6a780478f7a496a",
        ["enumerate", "--beta", "-45000"],
    ),
    # the Galerkin oracle on the paper case: 3000 seeded Newton starts over
    # the support blocks, polish of the sign representatives, their exact
    # symmetry images and the matching report
    (
        "65116bd0c90fdbe72232e7e18a1c7e34c487923e11474383d362abb8316ffc4a",
        [
            "oracle", "--spectrum", "scaled", "--k", "3", "--beta", "-15.5",
            "--modes", "3", "--starts", "3000", "--seed", "0",
        ],
    ),
    # the benchmark's sweep: 233 compressions, 63,744 rows of 64 tracked modes
    (
        "505fa20bb30d2026864699406a1cbb7dadf772e8a8487709d23a3dd5674637dd",
        ["sweep", "--spectrum", "dirichlet", "--grid", "0:45000:41"],
    ),
]


@pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
def test_golden_output(tmp_path, name, argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("digest,argv", DIGESTS, ids=[" ".join(argv) for _, argv in DIGESTS])
def test_golden_digest(tmp_path, digest, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
