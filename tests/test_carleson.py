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
from focksobolev import carleson, compop
from focksobolev.carleson import _capped_atoms, growth_divergent
from focksobolev.grid import cube_axis, grid_points, pattern_search, to_real
from focksobolev.measures import _radial_ball_masses


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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
def test_transform_exponent_does_not_move_a_suite_verdict(n, p):
    """The damping is m q, whatever the transform exponent t: at m = 1,
    q = 2, t = 4 and r = 1 every measure of the suite gets the verdict of
    the default t = q."""
    P = params(p, 2.0, m=1, n=n)
    for ms in fs.measure_suite(n):
        base = fs.classify_carleson(ms.measure, P)
        other = fs.classify_carleson(ms.measure, P, t=4.0, r=1.0)
        assert ((other.is_carleson, other.is_vanishing)
                == (base.is_carleson, base.is_vanishing)), ms.name


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


def test_large_atomic_transform_is_exact(monkeypatch):
    """A 38,416-atom contraction pullback at n=2, on a z-grid of radius 3.5
    and step 0.5: the transform supremum is the composition transform at
    w = 0, which is pi^2."""
    P = params(2.0, 2.0, n=2)
    monkeypatch.setattr(compop, "_pullback_geometry", lambda sym, n: (3.5, 0.5))
    lam = fs.pullback_measure(fs.affine_symbol(0.5 * np.eye(2)), P)
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
@pytest.mark.parametrize("rate", [0.0, 4.0, -0.75])
def test_kernel_embedding_ratio_closed_form(n, rate):
    """|k_w(z)|^2 e^{-|z|^2} = e^{-|z-w|^2}, and ||k_w|| = 1, so against
    Lebesgue measure (rate 0) the ratio is pi^{n/2} at every w, and against
    e^{-b|z|^2} it is ((pi/(1+b))^n e^{-b|w|^2/(1+b)})^{1/2}; a negative b
    is a power-gaussian's, e^{3|z|^2/4} that of the expansion 2z's pullback."""
    P = params(2.0, 2.0, n=n)
    mu = (fs.lebesgue(n) if rate == 0.0 else fs.gaussian(rate, n) if rate > 0
          else fs.DensityMeasure("power-gaussian", n, rate=rate))
    direction = np.array([1.0]) if n == 1 else np.array([0.6, 0.8j])
    for radius in (0.0, 2.0, 3.0, 4.0):
        ratio = fs.embedding_ratio(fs.kernel(radius * direction, n=n), mu, P)
        exact = math.sqrt((math.pi / (1.0 + rate)) ** n
                          * math.exp(-rate * radius ** 2 / (1.0 + rate)))
        assert abs(ratio - exact) <= 1e-12 * exact


def test_power_gaussian_embedding_ratio_adds_the_power():
    """With the power 2 and the rate -1/2, the ratio of the constant 1 at
    n = 1 is (scale * 2 pi * int s^3 e^{-s^2/2} ds)^{1/2} = (4 pi scale)^{1/2}."""
    mu = fs.DensityMeasure("power-gaussian", 1, scale=0.3, rate=-0.5, power=2.0)
    ratio = fs.embedding_ratio(fs.one(1), mu, params(2.0, 2.0))
    assert ratio == pytest.approx(math.sqrt(4.0 * math.pi * 0.3), rel=1e-12)


def test_power_gaussian_has_no_catalog_expectation():
    mu = fs.DensityMeasure("power-gaussian", 1, rate=3.0)
    with pytest.raises(ValueError, match="power-gaussian"):
        fs.expected_measure_verdict(mu, params(4.0, 2.0))


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


def _reference_refine(fn, start, radius, n):
    """The two-grid refine that the pattern search replaced: 13 points per
    axis about the best point so far, on a window of half-width radius and
    then one of radius / 6."""
    best_pt, best = start, float(fn(start.reshape(1, n))[0])
    for rad in (radius, radius / 6.0):
        offs = np.linspace(-rad, rad, 13)
        axes = [x + offs for x in to_real(best_pt[None, :])[0]]
        vals = fn(axes).ravel()
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_pt = float(vals[i]), grid_points(axes)[i]
    return best


def _sup_cases():
    """Atomic measures in the sup regime: the lattice atoms at n = 1, 2 and
    the n = 1 pullbacks of criterion 7, with their classify_carleson
    arguments."""
    for n in (1, 2):
        mu = next(sc.measure for sc in fs.measure_suite(n) if sc.name == "lattice-atoms")
        for m in (0, 1):
            yield f"lattice-atoms-n{n}-m{m}", mu, params(2.0, 2.0, m=m, n=n), None
    for m in (0, 1):
        P = params(2.0, 2.0, m=m)
        for sc in fs.composition_suite(P):
            yield f"{sc.name}-m{m}", fs.pullback_measure(sc.symbol, P), P, 6.0


def test_sup_transform_never_below_the_two_grid_refine(monkeypatch):
    """The outer stage's sup-regime transform is at least its best coarse
    candidate and at least what the old two-grid refine finds from it. The
    candidate, its value, the w-grid step and the transform are the ones
    the outer stage hands the pattern search; the candidate is no lower
    than any heavy atom."""
    starts = []

    def spy(evaluate, at, best, step, stop):
        starts.append((evaluate, at[0], float(best[0]), step))
        return pattern_search(evaluate, at, best, step, stop)

    monkeypatch.setattr(carleson, "pattern_search", spy)
    for name, mu, P, stage_radius in _sup_cases():
        starts.clear()
        v = fs.classify_carleson(mu, P, stage_radius=stage_radius)
        assert v.regime == "sup" and starts, name
        transform, at, coarse, w_step = starts[-1]
        got = v.criterion_values["transform"]
        assert coarse >= np.max(transform(_capped_atoms(mu)), initial=-np.inf), name
        assert got >= coarse, name
        assert got >= _reference_refine(transform, at, w_step, P.n) * (1.0 - 1e-8), name


def _stage_centres(mu, regime, T, T2, r, n):
    """A stage's ball-mass centres built on their own: its lattice centres,
    at n = 1 its own scan grid, then the sup regime's heavy atoms."""
    lat = carleson._stage_lattice(T2, r, n).as_complex()
    parts = [lat[np.linalg.norm(lat, axis=1) <= T]]
    if n == 1:
        scan = grid_points([cube_axis(T, carleson._SCAN_STEP)] * 2)
        parts.append(scan[np.linalg.norm(scan, axis=1) <= T])
    if regime == "sup":
        parts.append(_capped_atoms(mu))
    return np.concatenate(parts)


def _mass_read_cases():
    below, diag = params(4.0, 2.0, m=1), params(2.0, 2.0)
    suite = {sc.name: sc for sc in fs.composition_suite(below)}
    lattice_atoms = {n: next(sc.measure for sc in fs.measure_suite(n)
                             if sc.name == "lattice-atoms") for n in (1, 2)}
    # square's 784 atoms are read in one block, damped-contraction's 9216 in
    # nine
    yield "lattice-atoms-sup", lattice_atoms[1], diag, 1
    yield "lattice-atoms-integral", lattice_atoms[1], below, 1
    yield "square-pullback", suite["square"].symbol, below, 1
    yield "damped-contraction-pullback", suite["damped-contraction"].symbol, below, 1
    yield "gaussian", fs.gaussian(1.0, 1), diag, 1
    yield "polygrowth", fs.polygrowth(2.0, 1), below, 1
    yield "lattice-atoms-n2", lattice_atoms[2], params(2.0, 2.0, n=2), 2
    yield "gaussian-n2", fs.gaussian(1.0, 2), params(4.0, 2.0, n=2), 2
    # three blocks, some beyond each inner stage
    rng = np.random.default_rng(2)
    xy = rng.normal(scale=1.5, size=(3000, 4))
    atoms = fs.AtomicMeasure(xy[:, :2] + 1j * xy[:, 2:], rng.uniform(0.1, 2.0, 3000), 2)
    yield "random-atoms-n2", atoms, params(4.0, 2.0, n=2), 2


@pytest.mark.parametrize("name, mu, P, n", list(_mass_read_cases()),
                         ids=[c[0] for c in _mass_read_cases()])
def test_one_ball_mass_read_per_n1_verdict(monkeypatch, name, mu, P, n):
    """A verdict reads its atomic ball masses once, at the outer stage's
    centres, at n = 1 and n = 2 alike, and each stage keeps its own: they
    equal a direct read on that stage's centres, bit for bit. At n = 1 the
    masses read mu itself. At n = 2 they read the stage measure: the one
    atomic read walks the outer stage's atoms, each stage with the weights
    of the atoms beyond it set to 0, and a density is read once per stage."""
    calls = []
    for fn in ("ball_mass_many", "_atom_ball_masses", "_radial_ball_masses"):
        real = getattr(carleson, fn)
        monkeypatch.setattr(carleson, fn, lambda *a, real=real: calls.append(a) or real(*a))
    stages = []
    real_stage = carleson._stage_values

    def stage_spy(mu, params, t, s, r, regime, k, T, w_step, extra, cnorm, part, mass):
        stages.append((mu, regime, T, r, cnorm, mass))
        return real_stage(mu, params, t, s, r, regime, k, T, w_step, extra, cnorm, part, mass)

    monkeypatch.setattr(carleson, "_stage_values", stage_spy)
    if isinstance(mu, fs.SymbolPair):
        fs.classify_compop(mu, P)
    else:
        fs.classify_carleson(mu, P)
    density_n2 = n == 2 and not isinstance(mu, fs.AtomicMeasure)
    assert len(calls) == (3 if density_n2 else 1)
    assert len(stages) == 3
    T2 = stages[-1][2]
    for lam, regime, T, r, cnorm, mass in stages:
        centres = _stage_centres(lam, regime, T, T2, r, n)
        assert np.array_equal(cnorm, np.linalg.norm(centres, axis=1))
        if not isinstance(lam, fs.AtomicMeasure):
            direct = _radial_ball_masses(lam, cnorm, r, math.inf if n == 1 else T)
        elif n == 1:
            direct = fs.ball_mass_many(lam, centres, r)
        else:
            outer = fs.discretize(lam, T2)
            cut = np.where(np.linalg.norm(outer.locations, axis=1) <= T, outer.weights, 0.0)
            direct = fs.ball_mass_many(fs.AtomicMeasure(outer.locations, cut, n), centres, r)
            np.testing.assert_allclose(
                mass, fs.ball_mass_many(fs.discretize(lam, T), centres, r), rtol=1e-14)
        assert np.array_equal(mass, direct)
