import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heckegaps.measures import (
    arcsine,
    atom,
    cdf,
    cdf_vec,
    cm_mixture,
    density_P_eps,
    mass,
    uniform01,
)


def test_arcsine_cdf_frozen():
    m = arcsine()
    assert cdf(m, -1.0) == pytest.approx(0.0)
    assert cdf(m, 0.0) == pytest.approx(0.5)
    assert cdf(m, 1.0) == pytest.approx(1.0)
    assert cdf(m, 0.5) == pytest.approx(0.5 + math.asin(0.5) / math.pi)
    assert atom(m, 0.0) == 0.0


def test_arcsine_interval_masses():
    m = arcsine()
    # closed form: mass([-1/2, 1/2]) = 2*asin(1/2)/pi = 1/3
    assert mass(m, (-0.5, 0.5)) == pytest.approx(1 / 3)
    assert mass(m, (-1.0, 1.0)) == pytest.approx(1.0)
    # symmetry
    assert mass(m, (-0.7, -0.2)) == pytest.approx(mass(m, (0.2, 0.7)))


def test_cm_mixture_frozen():
    m = cm_mixture()
    assert atom(m, 0.0) == pytest.approx(0.5)
    assert atom(m, 0.3) == 0.0
    assert cdf(m, -1.0) == pytest.approx(0.0)
    assert cdf(m, 1.0) == pytest.approx(1.0)
    # continuous part carries half the mass, arcsine-shaped
    assert mass(m, (0.0, 0.0)) == pytest.approx(0.5)
    assert mass(m, (-0.5, 0.5)) == pytest.approx(0.5 + 1 / 6)
    assert mass(m, (-1.0, 1.0)) == pytest.approx(1.0)


def test_density_P_eps_frozen():
    assert density_P_eps(1.0) == pytest.approx(0.5)
    assert density_P_eps(0.5) == pytest.approx(1 / 6)
    with pytest.raises(ValueError):
        density_P_eps(0.0)
    with pytest.raises(ValueError):
        density_P_eps(1.01)


def test_uniform01_shape():
    m = uniform01()
    assert cdf(m, 0.0) == pytest.approx(0.0)
    assert cdf(m, 0.25) == pytest.approx(0.25)
    assert cdf(m, 1.0) == pytest.approx(1.0)
    assert mass(m, (0.4, 0.6)) == pytest.approx(0.2)


def test_uniform01_cdf_matches_one_bin_formula():
    # equidist's printed bytes rest on the closed form agreeing bit for bit,
    # up to the sign of a zero, with one bin [0, 1] of mass 1 under the
    # binned formula 0 + w clip((t - lo) / (hi - lo), 0, 1)
    ts = np.array([-1.0, -0.5, -1e-300, -0.0, 0.0, 5e-324, 0.25, 1 / 3,
                   0.5, 0.7, 1 - 2.0**-53, 1.0])
    ts = np.concatenate([ts, np.random.default_rng(7).uniform(-1.0, 1.0, 1000)])
    lo, hi, w = 0.0, 1.0, 1.0
    one_bin = np.zeros_like(ts) + w * np.clip((ts - lo) / (hi - lo), 0.0, 1.0)
    got = cdf_vec(uniform01(), ts) + 0.0
    assert got.tobytes() == (one_bin + 0.0).tobytes()


def test_mass_domain_checked():
    m = arcsine()
    with pytest.raises(ValueError):
        mass(m, (-1.5, 0.0))
    with pytest.raises(ValueError):
        mass(m, (0.5, 0.2))


laws = st.sampled_from([arcsine(), cm_mixture(), uniform01()])


@given(laws, st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_cdf_monotone_and_bounded(m, t):
    assert 0.0 <= cdf(m, t) <= 1.0 + 1e-12
    assert cdf(m, -1.0) <= cdf(m, t) + 1e-12
    assert cdf(m, t) <= cdf(m, 1.0) + 1e-12


@given(
    laws,
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_mass_additive_up_to_shared_atom(m, a, b, c):
    a, b, c = sorted((a, b, c))
    lhs = mass(m, (a, c))
    rhs = mass(m, (a, b)) + mass(m, (b, c)) - atom(m, b)
    assert lhs == pytest.approx(rhs, abs=1e-9)
