import dataclasses
import random
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from beamforge import (
    EEFamily,
    ModalSolution,
    Params,
    Spectrum,
    ValidationError,
    enumerate_ee_families,
    enumerate_general_bimodal,
    enumerate_unimodal,
    galerkin_solve,
    match_against,
    modal_residual,
)
from beamforge import kernels, oracle
from beamforge.core import solution_sort_key
from beamforge.oracle import DEDUP_RTOL, _dedup_merge
from pair_reference import trimodal_candidates


def closed_inventory(p, spec):
    return sorted(
        enumerate_unimodal(p, spec) + enumerate_general_bimodal(p, spec),
        key=solution_sort_key,
    )


def test_trivial_only_when_uncompressed(scaled):
    p = Params(beta=-0.5, varrho=1.0, k=3.0)
    result = galerkin_solve(p, scaled, 4, 500, seed=0)
    assert len(result.found) == 1
    assert result.found[0].is_trivial
    assert result.converged_count > 0


def test_finds_full_inventory_small(scaled):
    # two effective modes: 16 unimodal + 8 general bimodal + trivial
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    spec = Spectrum.scaled(n_max=8)
    result = galerkin_solve(p, spec, 2, 4000, seed=1)
    closed = closed_inventory_for_modes(p, spec, 2)
    report = match_against(closed, [], result.found)
    assert len(result.found) == len(closed) + 1  # plus the trivial root
    assert not report.unmatched
    assert not report.missed_closed
    for sol in result.found:
        assert modal_residual(sol, p, spec).max_abs < result.newton_tol


def closed_inventory_for_modes(p, spec, n_modes):
    return [
        s
        for s in closed_inventory(p, spec)
        if all(n <= n_modes for n in s.active)
    ]


def test_family_roots_classified_on_family(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    result = galerkin_solve(p, scaled, 2, 600, seed=2)
    closed = closed_inventory_for_modes(p, scaled, 2)
    families = enumerate_ee_families(p, scaled)
    report = match_against(closed, families, result.found)
    assert not report.unmatched
    bimodal_roots = [s for s in result.found if len(s.active) == 2]
    assert bimodal_roots, "expected points on the EE continuum"
    fam = families[0]
    for sol in bimodal_roots:
        coords = [sol.modes[n][0] for n in fam.modes]
        assert abs(fam.quadric_residual(coords)) < 1e-6


def test_no_root_has_more_than_three_active_modes(scaled):
    for beta, k, n_modes in ((-15.5, 3.0, 4), (-30.0, 72.0, 5)):
        p = Params(beta=beta, varrho=1.0, k=k)
        spec = Spectrum.scaled(n_max=8)
        result = galerkin_solve(p, spec, n_modes, 800, seed=3)
        for sol in result.found:
            assert len(sol.active) <= 3


def test_fermat_scan_finds_no_trimodal_roots():
    # cubic and quartic spectra admit no trimodal states; try the
    # resonance-matched couplings for a few leading triples
    for pexp in (2, 3):
        spec = Spectrum.power(pexp, n_max=6)
        for triple in ((1, 2, 3), (2, 3, 4)):
            lam1 = spec.eigenvalue(triple[0])
            lam3 = spec.eigenvalue(triple[2])
            k = lam1 * (lam3 - lam1) / 2.0
            p = Params(beta=-1.3 * lam3, varrho=1.0, k=k)
            result = galerkin_solve(p, spec, triple[2], 300, seed=4)
            assert trimodal_candidates(spec, 20) == []
            for sol in result.found:
                assert len(sol.active) < 3


def test_match_against_empty_oracle(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    report = match_against(closed_inventory(p, scaled), [], [])
    assert report.matched == 0
    assert report.on_family == 0
    assert report.unmatched == []
    assert len(report.missed_closed) == 48


def test_match_against_flags_unknown_root(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    fake = ModalSolution({1: (0.123, 0.456)}, tag="oracle")
    report = match_against(closed_inventory(p, scaled), [], [fake])
    assert report.unmatched == [fake]
    assert report.labels == ["unmatched"]


def test_deduplication(scaled):
    p = Params(beta=-5.0, varrho=1.0, k=3.0)
    result = galerkin_solve(p, scaled, 1, 200, seed=5)
    # mode 1 in the two-branch band: trivial + 2 in-phase solutions
    assert len(result.found) == 3
    tags = [s.tag for s in result.found]
    assert all(t == "oracle" for t in tags)


@pytest.mark.parametrize("seed", range(8))
def test_paper_case_full_inventory_every_seed(scaled, seed):
    # all 48 isolated states plus the trivial one on every seed, not
    # just on a lucky one
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    result = galerkin_solve(p, scaled, 3, 3000, seed=seed)
    report = match_against(closed_inventory(p, scaled), [], result.found)
    assert report.missed_closed == []
    assert report.unmatched == []
    assert len(result.found) == 49


@pytest.mark.parametrize("seed", range(8))
def test_paper_case_polish_takes_a_few_jacobians(monkeypatch, scaled, seed):
    # the polish stops once its step moves no coordinate that can merge,
    # and the step test reads the Jacobian the loop already holds; steps
    # that only shrank sub-1e-7 mode pairs toward underflow took 22-25.
    # The search's Newton kernel builds its own, so every call counted
    # here is the polish's
    calls = []
    jacobian = kernels.jacobian
    monkeypatch.setattr(kernels, "jacobian", lambda *args: calls.append(args) or jacobian(*args))
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    assert len(galerkin_solve(p, scaled, 3, 3000, seed=seed).found) == 49
    assert 1 <= len(calls) <= 6


@pytest.mark.parametrize("seed", range(8))
def test_paper_case_full_inventory_at_1000_starts(scaled, seed):
    # a third of the budget above already finds every state
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    result = galerkin_solve(p, scaled, 3, 1000, seed=seed)
    report = match_against(closed_inventory(p, scaled), [], result.found)
    assert report.missed_closed == []
    assert report.unmatched == []
    assert len(result.found) == 49


def test_fixed_seed_is_repeatable(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    a = galerkin_solve(p, scaled, 3, 1000, seed=9)
    b = galerkin_solve(p, scaled, 3, 1000, seed=9)
    assert a.converged_count == b.converged_count
    assert [s.modes for s in a.found] == [s.modes for s in b.found]


def test_starts_validation(scaled):
    p = Params(beta=-5.0, varrho=1.0, k=3.0)
    for starts in (0, -3):
        with pytest.raises(ValidationError):
            galerkin_solve(p, scaled, 1, starts)


def test_seed_is_a_nonnegative_integer(scaled):
    # random.Random(-1) would silently draw the stream of Random(1), and
    # random.Random(np.int64(3)) raises TypeError on Python 3.11
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    with pytest.raises(ValidationError, match="seed"):
        galerkin_solve(p, scaled, 3, 100, seed=-1)
    want = galerkin_solve(p, scaled, 3, 1000, seed=3).found
    assert galerkin_solve(p, scaled, 3, 1000, seed=np.int64(3)).found == want


@pytest.mark.parametrize("seed", range(4))
def test_trimodal_case_full_inventory_every_seed(seed):
    # near the junctions of the EE continua the Jacobian is nearly rank
    # deficient; without the rank-cut polish some roots stay too far off
    # the manifold to match and are reported as unmatched, and the rest
    # keep the search's residual (1e-11 of the system scale)
    p = Params(beta=-30.0, varrho=1.0, k=72.0)
    spec = Spectrum.scaled(n_max=8)
    result = galerkin_solve(p, spec, 5, 5000, seed=seed)
    closed = closed_inventory_for_modes(p, spec, 5)
    families = [f for f in enumerate_ee_families(p, spec) if max(f.modes) <= 5]
    report = match_against(closed, families, result.found)
    assert report.unmatched == []
    assert report.missed_closed == []
    assert max(modal_residual(s, p, spec).relative for s in result.found) <= 1e-14


def _dedup_merge_row_by_row(roots, radius):
    """The greedy merge as a loop over the roots, each compared with
    every representative kept so far: the reference for the peeling
    merge."""
    tol = DEDUP_RTOL * radius
    reps = np.empty_like(roots)
    count = 0
    for row in roots:
        if count and (np.abs(reps[:count] - row).max(axis=1) <= tol).any():
            continue
        reps[count] = row
        count += 1
    return reps[:count].copy()


def _rows(count, width, values):
    shape = st.tuples(count, st.just(width))
    return hnp.arrays(np.float64, shape, elements=st.sampled_from(values))


@st.composite
def dedup_cases(draw):
    # coefficients on multiples of tol, so that distances fall exactly on
    # tol (0 to tol, tol to 2 tol), one ulp past it, or chain (0 ~ tol ~
    # 2 tol, but 0 and 2 tol differ); plus values far apart
    radius = draw(st.sampled_from([1.0, 2.5, 40.0]))
    tol = DEDUP_RTOL * radius
    past = np.nextafter(tol, np.inf)
    values = [0.0, tol, past, 2.0 * tol, -tol, -past, 0.5 * tol, 0.3 * radius, -0.7 * radius]
    width = draw(st.sampled_from([2, 4, 6]))
    return draw(_rows(st.integers(0, 16), width, values)), radius


_TOL = DEDUP_RTOL * 1.0
_PAST = np.nextafter(_TOL, np.inf)


@settings(max_examples=300, deadline=None)
@given(dedup_cases())
@example((np.array([[0.0, 0.0], [_TOL, 0.0], [2 * _TOL, 0.0], [2 * _PAST, 0]]), 1.0))
@example((np.array([[_TOL, -_TOL], [_PAST, 0.0], [_PAST, _TOL]]), 1.0))
def test_dedup_merge_matches_row_by_row_merge(case):
    roots, radius = case
    got = _dedup_merge(roots, radius)
    want = _dedup_merge_row_by_row(roots, radius)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _per_block_search(newton_batch, p, spec, n_modes, starts, seed):
    """The search as one ``newton_batch`` call per mode-support block,
    each on the restricted system of its own support, the reference for
    the one zero-padded batch.  Returns the starts embedded in the full
    layout, and the roots, flags and iterations in the same row order."""
    lams = spec.eigenvalues(n_modes)
    tol = oracle.NEWTON_TOL_FACTOR * oracle.newton_scale(p, spec, n_modes)
    radius = oracle.start_box_radius(p, spec)
    rng = random.Random(seed)
    subsets = oracle._mode_subsets(n_modes)
    proper = subsets[:-1]
    share = (starts // 2) // len(proper) if proper else 0
    x0 = np.zeros((starts, 2 * n_modes))
    roots = np.zeros((starts, 2 * n_modes))
    converged = np.zeros(starts, dtype=bool)
    iterations = np.zeros(starts, dtype=np.int64)
    row = 0
    for subset in subsets:
        budget = share if subset in proper else starts - share * len(proper)
        if budget < 1:
            continue
        cols = oracle._columns_for(subset, n_modes)
        block = slice(row, row + budget)
        low, high = -radius, radius
        for i in range(budget):
            for j in range(2 * len(subset)):
                x0[row + i, cols[j]] = low + (high - low) * rng.random()
        roots[block, cols], converged[block], iterations[block] = newton_batch(
            lams[[n - 1 for n in subset]], p.beta, p.varrho, p.k, x0[block, cols], tol
        )
        row += budget
    return x0, roots, converged, iterations


def _as_array(found, n_modes):
    out = np.zeros((len(found), 2 * n_modes))
    for i, sol in enumerate(found):
        for n, (a, g) in sol.modes.items():
            out[i, [n - 1, n_modes + n - 1]] = a, g
    return out


@pytest.mark.parametrize(
    "case,seed",
    [("paper", s) for s in range(4)] + [("b1", 1)],
)
def test_one_batch_reproduces_the_per_block_search(monkeypatch, case, seed):
    # a zero mode pair stays exactly zero under the full system's Newton
    # steps, so the blocks can share one batch; only the rounding of the
    # coupling sums may differ, never a root, a count or a label
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    spec = Spectrum.scaled() if case == "paper" else Spectrum.scaled(n_max=8)
    n_modes, starts = (3, 3000) if case == "paper" else (2, 4000)
    batched = galerkin_solve(p, spec, n_modes, starts, seed=seed)

    newton_batch = kernels.newton_batch

    def per_block(lams, beta, varrho, k, x0, tol):
        want, *out = _per_block_search(newton_batch, p, spec, n_modes, starts, seed)
        assert x0.tobytes() == want.tobytes()  # same draws, same rows
        return out

    monkeypatch.setattr(kernels, "newton_batch", per_block)
    reference = galerkin_solve(p, spec, n_modes, starts, seed=seed)

    assert batched.converged_count == reference.converged_count
    assert len(batched.found) == len(reference.found)
    radius = oracle.start_box_radius(p, spec)
    a = _as_array(batched.found, n_modes)
    b = _as_array(reference.found, n_modes)
    close = np.abs(a[:, None] - b[None]).max(axis=2) <= DEDUP_RTOL * radius
    assert (close.sum(axis=0) == 1).all() and (close.sum(axis=1) == 1).all()
    closed = closed_inventory_for_modes(p, spec, n_modes)
    labels = match_against(closed, [], batched.found).labels
    assert labels == match_against(closed, [], reference.found).labels


def _sign_patterns(found):
    """Each root's support with the signs of its coefficients there."""
    return tuple(
        tuple((n, np.sign(sol.modes[n][0]), np.sign(sol.modes[n][1])) for n in sol.active)
        for sol in found
    )


def _group_images(row, active):
    """Every image of a root in the kernel layout (3 modes) under the
    sign flips of its active mode pairs and the beam swap."""
    images = []
    for signs in product((1.0, -1.0), repeat=len(active)):
        flip = row.copy()
        for n, sign in zip(active, signs):
            flip[[n - 1, n + 2]] *= sign
        images += [flip, np.roll(flip, 3)]
    return np.array(images)


def test_found_is_exactly_orbit_closed_in_a_stable_order(scaled):
    # every root is a bit-exact image of one polished representative, so
    # the images of a state order by their signs alone, on every seed
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    tol = DEDUP_RTOL * oracle.start_box_radius(p, scaled)
    orders = set()
    for seed in range(8):
        found = galerkin_solve(p, scaled, 3, 3000, seed=seed).found
        orders.add(_sign_patterns(found))
        rows = _as_array(found, 3)
        for row, sol in zip(rows, found):
            images = _group_images(row, sol.active)
            near = (np.abs(rows[:, None] - images[None]).max(axis=2) <= tol).any(axis=1)
            exact = (rows[:, None] == images[None]).all(axis=2).any(axis=1)
            # every root found within tol of an image is an image bit for
            # bit, and every image lies within tol of a root found (an
            # image that a symmetry of the state maps near another image,
            # as the beam swap of an out-of-phase state, is kept once)
            assert np.array_equal(near, exact)
            assert (np.abs(images[:, None] - rows[None]).max(axis=2) <= tol).any(axis=1).all()
    assert len(orders) == 1


CLOSED_FORMS = (
    "unimodal_inventory",
    "_mode_states",
    "general_bimodal_inventory",
    "_circle_ellipse",
    "enumerate_ee_families",
)


def test_oracle_is_blind_to_the_closed_forms(monkeypatch, scaled):
    # the oracle checks the closed forms, so it must not read them
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    want = galerkin_solve(p, scaled, 3, 3000, seed=0).found

    def closed_form(*args, **kwargs):
        raise AssertionError("the oracle read a closed form")

    # patched where it is bound: the package resolves its public names
    # through their home modules, and hasattr would import one unpatched
    patched = set()
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "beamforge":
            continue
        for name in CLOSED_FORMS:
            if name in vars(module):
                monkeypatch.setattr(module, name, closed_form)
                patched.add(name)
    assert patched == set(CLOSED_FORMS)
    assert galerkin_solve(p, scaled, 3, 3000, seed=0).found == want


def _coeffs_match_reference(root, closed, tol):
    if root.active != closed.active:
        return False
    for n in closed.active:
        ra, rg = root.modes[n]
        ca, cg = closed.modes[n]
        if abs(ra - ca) > tol * max(1.0, abs(ca)):
            return False
        if abs(rg - cg) > tol * max(1.0, abs(cg)):
            return False
    return True


def _on_family_reference(fam, sol, tol):
    if sol.active != fam.modes:
        return False
    xs = [sol.modes[n][0] for n in fam.modes]
    if abs(fam.quadric_residual(xs)) > tol * max(1.0, abs(fam.constant)):
        return False
    for n, s, x in zip(fam.modes, fam.sign_pattern, xs):
        if abs(sol.modes[n][1] - s * x) > tol * max(1.0, abs(x)):
            return False
    return True


def _match_reference(closed, families, oracle_found, tol=oracle.MATCH_RTOL):
    """The matcher as a loop over the roots, each compared with every
    closed-form solution in turn: the reference for the array matcher."""
    matched = 0
    on_family = 0
    unmatched, labels = [], []
    hit_closed = [False] * len(closed)
    for root in oracle_found:
        if root.is_trivial:
            matched += 1
            labels.append("trivial")
            continue
        hit = next((i for i, sol in enumerate(closed) if _coeffs_match_reference(root, sol, tol)), None)
        if hit is not None:
            matched += 1
            hit_closed[hit] = True
            labels.append("isolated")
        elif any(_on_family_reference(fam, root, tol) for fam in families):
            on_family += 1
            labels.append("family")
        else:
            unmatched.append(root)
            labels.append("unmatched")
    missed = [sol for i, sol in enumerate(closed) if not hit_closed[i] and not sol.is_trivial]
    return oracle.MatchReport(matched, on_family, unmatched, labels, missed)


def _assert_same_report(got, want):
    assert got.describe() == want.describe()  # counts and labels
    assert [id(s) for s in got.unmatched] == [id(s) for s in want.unmatched]
    assert [id(s) for s in got.missed_closed] == [id(s) for s in want.missed_closed]


@pytest.mark.parametrize(
    "spectrum,k,beta,n_modes,starts",
    [
        (Spectrum.scaled(), 3.0, -15.5, 3, 3000),  # paper
        (Spectrum.scaled(n_max=8), 3.0, -15.5, 2, 4000),  # b1
        (Spectrum.scaled(n_max=8), 72.0, -30.0, 5, 5000),  # trimodal
        (Spectrum.dirichlet(), 1.0, -200.0, 3, 3000),
        # on the mode-2 threshold mu_2 = 40: family points, and unmatched
        # mode-2 roots of amplitude ~3e-5
        (Spectrum.scaled(), 72.0, -40.0, 5, 3000),
    ],
    ids=["paper", "b1", "trimodal", "dirichlet", "family"],
)
def test_match_against_equals_the_per_root_reference(spectrum, k, beta, n_modes, starts):
    p = Params(beta=beta, varrho=1.0, k=k)
    found = galerkin_solve(p, spectrum, n_modes, starts, seed=0).found
    closed = closed_inventory_for_modes(p, spectrum, n_modes)
    families = [f for f in enumerate_ee_families(p, spectrum) if max(f.modes) <= n_modes]
    got = match_against(closed, families, found)
    _assert_same_report(got, _match_reference(closed, families, found))
    assert len(got.labels) == len(found)
    # every closed row twice: the first copy takes every hit, the second is missed
    doubled = closed + [ModalSolution(s.modes, tag=s.tag) for s in closed]
    _assert_same_report(
        match_against(doubled, families, found), _match_reference(doubled, families, found)
    )


@pytest.mark.parametrize(
    "spectrum,k,beta,n_modes",
    [
        ("scaled", 3.0, -15.5, 3),  # paper
        ("dirichlet", 3.0, -200.0, 3),
        ("scaled", 72.0, -40.0, 5),
        ("dirichlet", 1.0, -45000.0, 3),
    ],
    ids=["paper", "dirichlet", "family", "deep"],
)
def test_capped_spectrum_gives_the_row_filtered_closed_forms(spectrum, k, beta, n_modes):
    # oracle reconciles on the closed forms of its spectrum capped at the
    # truncation: the solutions and families of the full spectrum whose
    # modes the truncation holds, in the same order
    p, spec = Params(beta=beta, varrho=1.0, k=k), Spectrum.from_token(spectrum)
    capped = dataclasses.replace(spec, n_max=n_modes)
    for enumerate_closed in (enumerate_unimodal, enumerate_general_bimodal, enumerate_ee_families):
        full = enumerate_closed(p, spec)
        assert enumerate_closed(p, capped) == [x for x in full if max(x.modes) <= n_modes]


_MATCH_TOL = 2.0 ** -20  # a power of two, so that c + tol * max(1, |c|) is exact
_COEFFS = [0.5, -1.0, 4.0, -96.0]


def _offsets(c):
    # the bound of ``c``, one ulp past it, or far off
    bound = _MATCH_TOL * max(1.0, abs(c))
    return [0.0, bound, -bound, np.nextafter(bound, np.inf), 3.0 * bound]


@st.composite
def synthetic_rows(draw):
    supports = [(1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    pool = [
        ModalSolution({n: (draw(st.sampled_from(_COEFFS)), draw(st.sampled_from(_COEFFS))) for n in s})
        for s in draw(st.lists(st.sampled_from(supports), max_size=5))
    ]
    # closed rows drawn with repeats, so that some are duplicated
    closed = [ModalSolution(s.modes) for s in draw(st.lists(st.sampled_from(pool), max_size=8))] if pool else []
    roots = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["near", "family", "trivial", "other"]))
        if kind == "near" and closed:
            base = draw(st.sampled_from(closed))
            modes = {
                n: (a + draw(st.sampled_from(_offsets(a))), g + draw(st.sampled_from(_offsets(g))))
                for n, (a, g) in base.modes.items()
            }
        elif kind == "family":
            # the B1 family x^2 + 4 y^2 = 5, v = -u, at its member (1, 1)
            x, y = 1.0 + draw(st.sampled_from(_offsets(1.0))), 1.0
            modes = {1: (x, -x + draw(st.sampled_from(_offsets(x)))), 2: (y, draw(st.sampled_from([-y, y])))}
        elif kind == "trivial":
            modes = draw(st.sampled_from([{}, {2: (0.0, 0.0)}]))
        else:
            # a support that no closed row may have, an inactive mode stored
            modes = {n: (0.25, -0.25) for n in draw(st.sampled_from([(4,), (2, 4), (1, 3, 4)]))}
            modes[5] = (0.0, 0.0)
        roots.append(ModalSolution(modes, tag="oracle"))
    return closed, roots


_B1 = EEFamily("B1", (1, 2), (1.0, 4.0), -5.0, (-1, -1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(synthetic_rows(), st.sampled_from([[], [_B1]]))
@example(  # a coefficient exactly at tol, and one ulp past it
    ([ModalSolution({1: (4.0, -4.0)})],
     [ModalSolution({1: (4.0 + 4.0 * _MATCH_TOL, -4.0)}),
      ModalSolution({1: (4.0, -4.0 - np.nextafter(4.0 * _MATCH_TOL, 1.0))})]),
    [],
)
@example(  # the first of two equal closed rows takes the hit; the second is missed
    ([ModalSolution({1: (0.5, 0.5)}), ModalSolution({1: (0.5, 0.5)}), ModalSolution({})],
     [ModalSolution({}), ModalSolution({1: (0.5, 0.5)}), ModalSolution({3: (1.0, 1.0)})]),
    [_B1],
)
def test_match_against_equals_the_reference_on_synthetic_rows(case, families):
    closed, roots = case
    got = match_against(closed, families, roots, tol=_MATCH_TOL)
    _assert_same_report(got, _match_reference(closed, families, roots, tol=_MATCH_TOL))
