import math
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from beamforge import Spectrum, ValidationError


def test_dirichlet_second_eigenvalue():
    spec = Spectrum.dirichlet()
    assert spec.eigenvalue(2) == pytest.approx(4 * math.pi**2, abs=1e-12)
    assert spec.eigenvalue(2) == pytest.approx(39.4784, abs=1e-4)


def test_scaled_third_eigenvalue():
    assert Spectrum.scaled().eigenvalue(3) == 9.0


def test_power_spectrum_value():
    # direct substitution: (2*pi)**(2+1)
    assert Spectrum.power(2).eigenvalue(2) == pytest.approx(8 * math.pi**3, rel=1e-15)


def test_power_one_matches_dirichlet_exactly():
    d = Spectrum.dirichlet()
    p1 = Spectrum.power(1)
    for n in range(1, 65):
        assert d.eigenvalue(n) == p1.eigenvalue(n)


def test_out_of_range_index():
    spec = Spectrum.scaled(n_max=8)
    with pytest.raises(IndexError):
        spec.eigenvalue(9)
    with pytest.raises(IndexError):
        spec.eigenvalue(0)


def test_explicit_validation():
    Spectrum.explicit([1.0, 2.5, 7.0])
    with pytest.raises(ValidationError):
        Spectrum.explicit([1.0, 1.0, 2.0])  # repeated eigenvalues rejected
    with pytest.raises(ValidationError):
        Spectrum.explicit([2.0, 1.0])
    with pytest.raises(ValidationError):
        Spectrum.explicit([-1.0, 2.0])
    with pytest.raises(ValidationError):
        Spectrum.explicit([])


def test_explicit_caps_n_max():
    spec = Spectrum.explicit([1.0, 4.0], n_max=64)
    assert spec.n_max == 2


@given(st.sampled_from(["dirichlet", "scaled", "power:2", "power:3"]), st.integers(1, 63))
def test_strictly_increasing(token, n):
    spec = Spectrum.from_token(token)
    assert spec.eigenvalue(n) < spec.eigenvalue(n + 1)
    assert spec.eigenvalue(n) > 0


def test_from_token_power_and_errors():
    assert Spectrum.from_token("power:3").p == 3
    with pytest.raises(ValidationError):
        Spectrum.from_token("power:x")
    with pytest.raises(ValidationError):
        Spectrum.from_token("weird")
    with pytest.raises(ValidationError):
        Spectrum.from_token("power:0")


def test_from_file(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("1.5\n\n4.25\n 9.0 \n", encoding="utf-8")
    spec = Spectrum.from_token(f"file:{path}")
    assert spec.eigenvalue(2) == 4.25
    assert spec.n_max == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("1.5\nabc\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        Spectrum.from_file(bad)


def test_eigenvalues_array(scaled):
    vals = scaled.eigenvalues(4)
    assert list(vals) == [1.0, 4.0, 9.0, 16.0]


def test_lookup_generates_only_the_modes_used(monkeypatch):
    # n_max only caps the index; a lookup near the bottom of a 10**6-mode
    # spectrum computes a handful of eigenvalues
    generated = []
    real = Spectrum._generate

    def counted(self, n):
        generated.append(n)
        return real(self, n)

    monkeypatch.setattr(Spectrum, "_generate", counted)
    spec = Spectrum.dirichlet(10**6)
    assert spec.eigenvalue(3) == (3 * math.pi) ** 2
    assert spec.eigenvalue(1) == math.pi ** 2
    assert len(generated) <= 4


@pytest.mark.parametrize("spec", [Spectrum.dirichlet(), Spectrum.scaled(), Spectrum.power(2)])
def test_eigenvalues_match_closed_forms_in_any_order(spec):
    def closed_form(n):
        if spec.generator == "dirichlet":
            return (n * math.pi) ** 2
        if spec.generator == "scaled":
            return float(n * n)
        return (n * math.pi) ** 3

    for n in (40, 3, 64, 1, 17, 33, 2):
        assert spec.eigenvalue(n) == closed_form(n)
    assert [spec.eigenvalue(n) for n in range(1, 65)] == [closed_form(n) for n in range(1, 65)]
    assert spec == type(spec)(spec.generator, spec.n_max, spec.p)


def test_concurrent_lookups_are_thread_safe():
    # threads look up one fresh spectrum side by side; any state they
    # shared and lost or misplaced would return the wrong eigenvalue
    wrong = []

    def reader(spec, seed, start):
        rng = random.Random(seed)
        start.wait(timeout=60)
        for n in list(range(1, 400)) + [rng.randint(1, spec.n_max) for _ in range(400)]:
            if spec.eigenvalue(n) != (n * math.pi) ** 2:
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rnd in range(10):
            spec = Spectrum.dirichlet(4000)
            start = threading.Barrier(6)
            threads = [
                threading.Thread(target=reader, args=(spec, 10 * rnd + i, start)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
