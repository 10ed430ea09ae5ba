"""Classification checks for the three embedding regimes.

Analytic expectations for density measures come from the net-power
rule: with growth power b, discount s = mq, the criterion fields
behave like (1+|z|)^{b-s}, so sup-type regimes demand b - s <= 0
and integral-type regimes demand k(b - s) < -2n strictly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import focksobolev as fs
from focksobolev.carleson import growth_divergent


def params(p, q, m=0, n=1):
    return fs.Params(n=n, alpha=1.0, m=m, p=p, q=q)


def test_regime_selection():
    mu = fs.gaussian(1.0, 1)
    assert fs.classify_carleson(mu, params(2.0, 2.0)).regime == "sup"
    assert fs.classify_carleson(mu, params(1.0, 2.0)).regime == "sup"
    assert fs.classify_carleson(mu, params(4.0, 2.0)).regime == "integral"
    assert fs.classify_carleson(mu, params(math.inf, 2.0)).regime == "mass"


def test_infinite_target_exponent_rejected():
    with pytest.raises(ValueError):
        fs.classify_carleson(fs.gaussian(1.0, 1), params(2.0, math.inf))


def test_transform_exponent_must_be_positive():
    with pytest.raises(ValueError):
        fs.classify_carleson(fs.gaussian(1.0, 1), params(2.0, 2.0), t=-1.0)


def test_lebesgue_sup_regime_bounded():
    v = fs.classify_carleson(fs.lebesgue(1), params(2.0, 2.0))
    assert v.is_carleson
    assert not v.is_vanishing
    assert not v.divergent


def test_lebesgue_integral_regime_unbounded():
    v = fs.classify_carleson(fs.lebesgue(1), params(4.0, 2.0))
    assert not v.is_carleson
    assert v.divergent


def test_gaussian_vanishing_everywhere():
    mu = fs.gaussian(1.0, 1)
    for p, q in [(2.0, 2.0), (4.0, 2.0), (math.inf, 2.0)]:
        v = fs.classify_carleson(mu, params(p, q))
        assert v.is_carleson
        assert v.is_vanishing


def test_delta_all_regimes():
    mu = fs.AtomicMeasure(np.array([0.0 + 0.0j]), np.array([1.0]), 1)
    for p in (2.0, 4.0, math.inf):
        v = fs.classify_carleson(mu, params(p, 2.0))
        assert v.is_carleson
        assert v.is_vanishing


def test_mass_regime_reports_weighted_mass():
    mu = fs.AtomicMeasure(np.array([0.0 + 0.0j]), np.array([1.0]), 1)
    v = fs.classify_carleson(mu, params(math.inf, 2.0))
    assert v.regime == "mass"
    assert v.criterion_values["weighted_mass"] == pytest.approx(1.0)


def test_polygrowth_needs_enough_discount():
    mu = fs.polygrowth(2.0, 1)
    bounded = fs.classify_carleson(mu, params(2.0, 2.0, m=1), t=2.0)
    assert bounded.is_carleson
    unbounded = fs.classify_carleson(mu, params(2.0, 2.0, m=0), t=2.0)
    assert not unbounded.is_carleson


def test_ring_measure_is_vanishing():
    v = fs.classify_carleson(fs.ring(2.0, 0.2, 1), params(2.0, 2.0))
    assert v.is_carleson
    assert v.is_vanishing


def test_verdict_matches_analytic_rule_n1():
    cases = [
        (fs.lebesgue(1), 2.0, 2.0, 0),
        (fs.lebesgue(1), 2.0, 2.0, 1),
        (fs.lebesgue(1), 4.0, 2.0, 0),
        (fs.gaussian(1.0, 1), 4.0, 2.0, 0),
        (fs.polygrowth(2.0, 1), 2.0, 2.0, 1),
        (fs.polygrowth(2.0, 1), 4.0, 2.0, 2),
        (fs.polygrowth(2.0, 1), math.inf, 2.0, 2),
        (fs.lebesgue(1), math.inf, 2.0, 0),
    ]
    for mu, p, q, m in cases:
        P = params(p, q, m=m)
        got = fs.classify_carleson(mu, P).is_carleson
        want = fs.expected_measure_verdict(mu, P)
        assert got == want, (mu.kind, p, q, m)


def test_verdict_matches_analytic_rule_n2():
    """Below the diagonal at n=2, where the averaging function is the l^k
    size of the lattice ball masses of the stage's discretised measure."""
    cases = [
        (fs.lebesgue(2), 4.0, 2.0, 0),
        (fs.gaussian(1.0, 2), 4.0, 2.0, 0),
        (fs.lebesgue(2), math.inf, 2.0, 1),
        (fs.polygrowth(2.0, 2), math.inf, 2.0, 1),
    ]
    for mu, p, q, m in cases:
        P = params(p, q, m=m, n=2)
        got = fs.classify_carleson(mu, P).is_carleson
        want = fs.expected_measure_verdict(mu, P)
        assert got == want, (mu.kind, p, q, m)


def test_large_atomic_transform_is_exact():
    """A 38,416-atom contraction pullback at n=2: the transform supremum is
    the composition transform at w = 0, which is pi^2."""
    P = params(2.0, 2.0, n=2)
    lam = fs.pullback_measure(fs.affine_symbol(0.5 * np.eye(2)), P, radius=3.5, step=0.5)
    assert len(lam) == 38_416
    v = fs.classify_carleson(lam, P)
    assert v.criterion_values["transform"] == pytest.approx(math.pi ** 2, rel=1e-3)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
def test_measure_suite_expectations_follow_rule(n, p):
    """Fixed expectations of the measure suite agree with the analytic rule."""
    P = params(p, 2.0, n=n)
    for sc in fs.measure_suite(n):
        if sc.expect_carleson is not None:
            assert sc.expect_carleson == fs.expected_measure_verdict(sc.measure, P), sc.name


def test_comparability_band_reported():
    v = fs.classify_carleson(fs.gaussian(1.0, 1), params(2.0, 2.0), t=2.0)
    assert v.comparability_band is not None
    assert 1.0 <= v.comparability_band < 100.0


def test_embedding_lower_bound_when_probed():
    v = fs.classify_carleson(fs.lebesgue(1), params(2.0, 2.0), probe_budget=4)
    assert v.embedding_lower_bound is not None
    assert v.embedding_lower_bound > 0.5


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rate", [0.0, 4.0])
def test_kernel_embedding_ratio_closed_form(n, rate):
    """|k_w(z)|^2 e^{-|z|^2} = e^{-|z-w|^2}, and ||k_w|| = 1, so against
    Lebesgue measure (rate 0) the ratio is pi^{n/2} at every w, and against
    e^{-b|z|^2} it is ((pi/(1+b))^n e^{-b|w|^2/(1+b)})^{1/2}."""
    P = params(2.0, 2.0, n=n)
    mu = fs.lebesgue(n) if rate == 0.0 else fs.gaussian(rate, n)
    direction = np.array([1.0]) if n == 1 else np.array([0.6, 0.8j])
    for radius in (0.0, 2.0, 3.0, 4.0):
        ratio = fs.embedding_ratio(fs.kernel(radius * direction, n=n), mu, P)
        exact = math.sqrt((math.pi / (1.0 + rate)) ** n
                          * math.exp(-rate * radius ** 2 / (1.0 + rate)))
        assert abs(ratio - exact) <= 1e-12 * exact


def test_stage_radius_override():
    mu = fs.AtomicMeasure(np.array([0.0 + 0.0j]), np.array([1.0]), 1)
    v = fs.classify_carleson(mu, params(2.0, 2.0), stage_radius=4.0)
    assert v.stage_radii == (pytest.approx(4.0), pytest.approx(6.0))
    assert v.is_carleson


@pytest.mark.parametrize("n,mu,p,m", [
    (1, fs.lebesgue(1), 4.0, 1),
    (1, fs.atoms_on_lattice(fs.make_lattice(6.0, 1.0, 1)), 2.0, 0),
    (1, fs.atoms_on_lattice(fs.make_lattice(6.0, 1.0, 1)), math.inf, 0),
    (2, fs.atoms_on_lattice(fs.make_lattice(3.0, 1.0, 2)), 2.0, 0),
    (2, fs.atoms_on_lattice(fs.make_lattice(3.0, 1.0, 2)), 4.0, 1),
])
def test_sequence_is_size_of_averaging_sequence(n, mu, p, m):
    """The sequence criterion is the size of the averaging sequence over the
    outer stage's lattice centres |c| <= T2 - r: its max in the sup regime,
    its l^k norm below it. The n=2 atoms lie inside the stage cube, so the
    stage's discretised measure is mu itself."""
    T1, r = 4.0, 1.0
    P = params(p, 2.0, m=m, n=n)
    v = fs.classify_carleson(mu, P, r=r, stage_radius=T1)
    T2 = 1.5 * T1
    assert v.stage_radii == (pytest.approx(T1), pytest.approx(T2))
    lat = fs.make_lattice(T2, r, n)
    keep = np.linalg.norm(lat.as_complex(), axis=1) <= T2 - r
    vals = fs.averaging_sequence(mu, lat, r, m * P.q)[keep]
    if v.regime == "sup":
        want = float(np.max(vals))
    else:
        k = 1.0 if math.isinf(p) else p / (p - P.q)
        want = float(np.sum(vals ** k) ** (1.0 / k))
    assert v.criterion_values["sequence"] == pytest.approx(want, rel=1e-12)


def test_determinism():
    a = fs.classify_carleson(fs.gaussian(1.0, 1), params(4.0, 2.0))
    b = fs.classify_carleson(fs.gaussian(1.0, 1), params(4.0, 2.0))
    assert a == b


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=200),
    p=st.sampled_from([1.0, 2.0, 4.0, math.inf]),
)
def test_finite_atoms_always_carleson(seed, p):
    """Compactly supported measures embed in every regime."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    locs = rng.normal(scale=1.5, size=k) + 1j * rng.normal(scale=1.5, size=k)
    wts = rng.uniform(0.1, 2.0, size=k)
    mu = fs.AtomicMeasure(locs, wts, 1)
    v = fs.classify_carleson(mu, params(p, 2.0))
    assert v.is_carleson
    assert v.is_vanishing
    assert not v.divergent


@pytest.mark.parametrize("seed,p", [
    (13, 4.0), (13, math.inf),
    *[(seed, p) for seed in (3, 34, 69, 77, 125, 126, 148) for p in (4.0, math.inf)],
    (152, math.inf), (158, math.inf),
])
def test_finite_atoms_carleson_at_lattice_window_edge(seed, p):
    """The draws of test_finite_atoms_always_carleson whose outermost atom,
    at |z| between 3.7 and 5.4, lay outside the middle stage's sequence
    window |c| <= T - r when the base stage was reff + 1: its lattice balls
    counted only at the outer stage, and that growth read as divergence."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    locs = rng.normal(scale=1.5, size=k) + 1j * rng.normal(scale=1.5, size=k)
    wts = rng.uniform(0.1, 2.0, size=k)
    v = fs.classify_carleson(fs.AtomicMeasure(locs, wts, 1), params(p, 2.0))
    assert v.is_carleson
    assert v.is_vanishing
    assert not v.divergent


@pytest.mark.parametrize("logs,divergent", [
    ((-math.inf, -math.inf, -math.inf), False),  # nothing at any stage
    ((0.0, 1.0, math.log(1e-301)), False),       # nothing at the outer stage
    ((-math.inf, -math.inf, 0.0), True),         # mass appears at the outer stage
    ((-math.inf, 0.0, 0.5), True),               # ... or at the middle one
    ((0.0, 1.0, 1.04), False),                   # growth below the tolerance
    ((0.0, 1.0, 1.5), False),                    # shrinking increments
    ((0.0, 1.0, 2.0), True),                     # steady increments
    ((1.0, 0.5, 0.6), True),                     # growth after a decrease
])
def test_growth_rule_edge_triples(logs, divergent):
    assert growth_divergent(*logs, 0.05) is divergent


@settings(max_examples=8, deadline=None)
@given(rate=st.floats(min_value=0.5, max_value=2.0), m=st.sampled_from([0, 1]))
def test_gaussian_density_always_carleson(rate, m):
    v = fs.classify_carleson(fs.gaussian(rate, 1), params(2.0, 2.0, m=m))
    assert v.is_carleson
    assert v.is_vanishing
