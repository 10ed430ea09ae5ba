import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma, gammainc

import focksobolev as fs
from focksobolev import compop, measures
from focksobolev.carleson import _stage_lattice
from focksobolev.grid import cube_axis, grid_points
from focksobolev.measures import _gauss_transform, _radial_ball_masses, _radial_transform


def delta(w=0.0 + 0.0j, weight=1.0):
    return fs.AtomicMeasure(np.array([w]), np.array([weight]), 1)


def test_atomic_measure_validates_lengths():
    with pytest.raises(ValueError):
        fs.AtomicMeasure(np.array([0.0 + 0.0j]), np.array([1.0, 2.0]), 1)


@pytest.mark.parametrize("location,weight", [
    (complex(math.nan, 0.0), 1.0),
    (complex(0.0, math.inf), 1.0),
    (0.0 + 0.0j, math.nan),
    (0.0 + 0.0j, math.inf),
])
def test_atomic_measure_rejects_non_finite_input(location, weight):
    with pytest.raises(ValueError, match="finite"):
        fs.AtomicMeasure(np.array([location]), np.array([weight]), 1)


@pytest.mark.parametrize("kind,field", [
    ("lebesgue", "scale"), ("polygrowth", "power"),
    ("ring", "ring_radius"), ("ring", "ring_width"),
    ("power-gaussian", "rate"), ("power-gaussian", "power"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_density_measure_rejects_non_finite_input(kind, field, value):
    base = {"ring_radius": 1.0, "ring_width": 0.5} if kind == "ring" else {}
    with pytest.raises(ValueError, match="finite"):
        fs.DensityMeasure(kind=kind, n=1, **{**base, field: value})


def test_ball_mass_lebesgue_n1():
    val = fs.ball_mass_many(fs.lebesgue(1), 0.0 + 0.0j, 1.0)[0]
    assert abs(val - math.pi) / math.pi < 1e-13


def test_ball_mass_lebesgue_n2():
    val = fs.ball_mass_many(fs.lebesgue(2), np.array([0.0 + 0.0j, 0.0 + 0.0j]), 1.0)[0]
    expect = math.pi ** 2 / 2.0
    assert abs(val - expect) / expect < 1e-13


def test_ball_mass_translation_invariance():
    a = fs.ball_mass_many(fs.lebesgue(1), 0.0 + 0.0j, 1.0)[0]
    b = fs.ball_mass_many(fs.lebesgue(1), 3.0 + 2.0j, 1.0)[0]
    assert a == pytest.approx(b, rel=1e-9)


def test_ball_mass_atomic_counts_inside():
    mu = fs.AtomicMeasure(np.array([0.0 + 0.0j, 2.0 + 0.0j]), np.array([1.0, 5.0]), 1)
    assert fs.ball_mass_many(mu, 0.0 + 0.0j, 1.0)[0] == pytest.approx(1.0)
    assert fs.ball_mass_many(mu, 2.0 + 0.0j, 0.5)[0] == pytest.approx(5.0)
    assert fs.ball_mass_many(mu, 1.0 + 0.0j, 0.5)[0] == pytest.approx(0.0)


def single_ball_mass(mu, center, radius):
    """The per-centre ball mass: a strict sum over atoms, or for a radial
    density an adaptive quadrature in polar coordinates about the centre.
    The sphere |z - c| = t meets |z| = e at the angle phi to c with
    cos phi = (e^2 - |c|^2 - t^2) / (2 |c| t); at n = 2 the angle phi has
    the density (2 / pi) sin^2 phi on the unit sphere of C^2."""
    c = np.asarray(center, dtype=complex).reshape(-1)
    if isinstance(mu, fs.AtomicMeasure):
        d = np.linalg.norm(mu.locations - c[None, :], axis=1)
        return float(mu.weights[d < radius].sum())
    a = float(np.linalg.norm(c))
    edges = ([mu.ring_radius - mu.ring_width / 2.0, mu.ring_radius + mu.ring_width / 2.0]
             if mu.kind == "ring" else [])

    def shell(t):
        """Mass density of the sphere |z - c| = t, per unit t."""
        cuts = [math.acos(x) for e in edges if a * t > 0
                for x in [(e * e - a * a - t * t) / (2.0 * a * t)] if -1.0 < x < 1.0]

        def f(phi):
            rho = mu.profile(np.array([math.sqrt(max(a * a + t * t + 2.0 * a * t
                                                     * math.cos(phi), 0.0))]))[0]
            return rho if mu.n == 1 else rho * 2.0 / math.pi * math.sin(phi) ** 2

        inner = quad(f, 0.0, math.pi, points=cuts or None, epsabs=0.0, epsrel=1e-13,
                     limit=200)[0]
        return 2.0 * t * inner if mu.n == 1 else 2.0 * math.pi ** 2 * t ** 3 * inner

    kinks = [t for e in edges for t in (abs(a - e), a + e) if 0.0 < t < radius]
    return quad(shell, 0.0, radius, points=kinks or None, epsabs=0.0, epsrel=1e-12,
                limit=200)[0]


def test_ball_mass_many_matches_single():
    """Centres of equal |c| share one radial integral; each batched value
    equals the single-centre one."""
    mu = fs.gaussian(1.0, 1)
    centers = np.array([[0.0 + 0.0j], [1.0 + 0.0j], [2.0 + 1.0j], [0.0 - 1.0j], [1.0 - 2.0j]])
    many = fs.ball_mass_many(mu, centers, 0.8)
    singles = [fs.ball_mass_many(mu, c, 0.8)[0] for c in centers]
    np.testing.assert_array_equal(many, singles)
    assert many[1] == many[3] and many[2] == many[4]


def _ball_cases():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        # atoms off the grid, plus atoms exactly on spheres |z - c| = 1
        # around the integer centres
        xy = np.concatenate([rng.normal(scale=1.5, size=(300, 2 * n)),
                             np.eye(2 * n), -np.eye(2 * n), np.full((1, 2 * n), 0.5)])
        atoms = fs.AtomicMeasure(xy[:, :n] + 1j * xy[:, n:], rng.uniform(0.1, 2.0, len(xy)), n)
        on_sphere = grid_points([np.arange(-2.0, 3.0)] * 2 + [np.array([0.0])] * (2 * n - 2))
        yield f"atoms{n}", atoms, on_sphere
        yield f"empty{n}", fs.AtomicMeasure(np.empty((0, n)), np.empty(0), n), on_sphere
        yield f"no-centres{n}", atoms, np.empty((0, n), dtype=complex)
        xy = rng.uniform(-2.5, 2.5, size=(4 if n == 2 else 12, 2 * n))
        scattered = xy[:, :n] + 1j * xy[:, n:]
        for mu in (fs.lebesgue(n), fs.gaussian(0.7, n, scale=2.0), fs.polygrowth(-1.5, n)):
            yield f"{mu.kind}{n}", mu, scattered
        # and centres whose balls hold the ring's hole, cross an edge or both
        near = np.outer([0.0, 0.4, 0.7, 1.5, 2.2], np.ones(n) / math.sqrt(n))
        yield f"ring{n}", fs.ring(1.5, 0.6, n), np.concatenate([scattered, near])
    # about 100,000 atoms against separated D4 lattice centres: several
    # atom blocks, each atom in more than one ball
    xy = rng.normal(scale=1.5, size=(100_000, 4))
    atoms = fs.AtomicMeasure(xy[:, :2] + 1j * xy[:, 2:], rng.uniform(0.1, 2.0, 100_000), 2)
    yield "lattice2", atoms, fs.make_lattice(2.5, 1.0, 2).as_complex()


@pytest.mark.parametrize("case", list(_ball_cases()), ids=lambda case: case[0])
def test_ball_mass_many_matches_brute_force(case):
    """Batched ball masses against the per-centre formula, for atoms and
    for every density kind, at n = 1 and n = 2."""
    _, mu, centers = case
    expect = np.array([single_ball_mass(mu, c, 1.0) for c in centers])
    got = fs.ball_mass_many(mu, centers, 1.0)
    assert got.shape == (centers.shape[0],)
    rtol = 1e-12 if isinstance(mu, fs.AtomicMeasure) else 1e-10
    np.testing.assert_allclose(got, expect, rtol=rtol)


@pytest.mark.parametrize("n", [1, 2])
def test_density_ball_masses_closed_form(n):
    """Lebesgue balls pi^n r^{2n} / n! at 2000 random centres, at |c| = 0
    and at |c| within 1e-9 of r, where the cap has a boundary layer; the
    same inside the n = 2 stage measure |z| <= T at the stage's lattice
    centres |c| <= T - r; and Gaussian balls at the origin,
    pi (1 - e^{-1}) and pi^2 (1 - 2 e^{-1})."""
    rng = np.random.default_rng(3)
    r = 1.3
    xy = rng.uniform(-2.0, 2.0, size=(2000, 2 * n))
    near = np.outer(np.array([0.0, 1e-12, r - 1e-9, r, r + 1e-9, r - 1e-3, r + 1e-3]),
                    np.eye(2 * n)[0])
    xy = np.concatenate([xy, near])
    got = fs.ball_mass_many(fs.lebesgue(n), xy[:, :n] + 1j * xy[:, n:], r)
    expect = math.pi ** n * r ** (2 * n) / math.factorial(n)
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    if n == 2:
        T = 4.0
        lat = _stage_lattice(T, 1.0, 2).as_complex()
        norms = np.linalg.norm(lat, axis=1)
        got = _radial_ball_masses(fs.lebesgue(2), norms[norms <= T - 1.0], 1.0, T)
        np.testing.assert_allclose(got, math.pi ** 2 / 2.0, rtol=1e-12)
    gauss = fs.ball_mass_many(fs.gaussian(1.0, n), np.zeros(n), 1.0)[0]
    expect = math.pi * (1.0 - math.exp(-1.0)) if n == 1 else math.pi ** 2 * (1.0 - 2.0 / math.e)
    assert gauss == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2])
def test_density_transform_closed_form(n):
    """The transform of Lebesgue measure in the ball |z| <= 13.5 is
    (pi / c)^n at every radius whose Gaussian window lies in the ball, and
    it falls off past that."""
    c, T = 0.8, 13.5
    radii, values, weights = _radial_transform(fs.lebesgue(n), c, 0.0, T)
    inner = radii <= T - math.sqrt(40.0 / c)
    assert inner.sum() > 100 and np.all(np.diff(radii) > 0)
    np.testing.assert_allclose(values[inner], (math.pi / c) ** n, rtol=1e-13)
    assert values[-1] < 0.6 * (math.pi / c) ** n
    # the weights integrate over the ball |w| <= T
    assert weights.sum() == pytest.approx(math.pi ** n * T ** (2 * n) / math.factorial(n),
                                          rel=1e-13)


@pytest.mark.parametrize("rate", [3.0, 0.0, -0.75])
def test_power_gaussian_validation(rate):
    """A rate of either sign is a power-gaussian; a negative power is not.
    (A rate or power that is not finite is refused with the other kinds'.)"""
    mu = fs.DensityMeasure("power-gaussian", 2, scale=2.0, rate=rate, power=2.0)
    s = np.array([0.0, 1.5])
    np.testing.assert_allclose(mu.profile(s), 2.0 * s ** 2 * np.exp(-rate * s ** 2), rtol=1e-15)
    with pytest.raises(ValueError, match="nonnegative power"):
        fs.DensityMeasure("power-gaussian", 2, rate=rate, power=-1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_radial_pullback_transform_closed_form(n):
    """The contraction z/2 at m = 0, q = 2, a = 1 pulls back to the density
    4^n exp(-3|z|^2), whose transform at kernel rate 1 is pi^n exp(-3 rho^2 / 4),
    the composition transform that criterion 6 pins at w = 0 and 2. On the
    stage |z| <= 4 every radius's integrand, a Gaussian of rate 4 about rho / 4,
    has its window |s - rho / 4| <= (40 / 4)^(1/2) inside the stage."""
    P = fs.Params(n=n, alpha=1.0, m=0, p=4.0, q=2.0)
    lam = compop._radial_pullback(fs.affine_symbol(0.5 * np.eye(n)), P)
    assert (lam.kind, lam.scale, lam.rate, lam.power) == ("power-gaussian", 4.0 ** n, 3.0, 0.0)
    T = 4.0
    radii, values, _ = _radial_transform(lam, 1.0, 0.0, T)
    inner = radii / 4.0 + math.sqrt(10.0) <= T
    assert inner.sum() > 150
    np.testing.assert_allclose(values[inner], math.pi ** n * np.exp(-0.75 * radii[inner] ** 2),
                               rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("power", [0.0, 2.0])
@pytest.mark.parametrize("rate", [1e4, 1e6])
def test_narrow_power_gaussian_transform_closed_form(n, power, rate):
    """A power-gaussian |z|^P exp(-R |z|^2) of rate R >= 1e4 lies far inside
    the first unit panel of the radial rule. Its panels stop at its bulk, so
    at kernel rate c its transform is pinned to 1e-13 (at most 1.7e-14
    measured; 0.61 before the panels stopped) against
    (pi/a)^n (|c rho/a|^2 + n/a)^{P/2} exp(-c R rho^2 / a), a = R + c, at
    every radius of the stage |z| <= 6, whose Gaussian window reaches 0."""
    c, T = 1.0, 6.0
    mu = fs.DensityMeasure("power-gaussian", n, rate=rate, power=power)
    radii, values, _ = _radial_transform(mu, c, 0.0, T)
    a = rate + c
    moment = (c * radii / a) ** 2 + n / a if power else 1.0
    exact = (math.pi / a) ** n * moment * np.exp(-c * rate * radii ** 2 / a)
    np.testing.assert_allclose(values, exact, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("power", [0.0, 2.0])
@pytest.mark.parametrize("rate", [1.0, 1e4, 1e6])
def test_power_gaussian_ball_mass_at_the_origin(n, power, rate):
    """The mass of a power-gaussian in B(0, r) is the incomplete gamma
    pi^n / (n-1)! R^{-k} gamma(k, R r^2), k = n + P/2: pinned to 1e-13 (at
    most 4.7e-15 measured) for balls inside the bulk and past it."""
    mu = fs.DensityMeasure("power-gaussian", n, rate=rate, power=power)
    rs = np.array([0.5 / math.sqrt(rate), 3.0 / math.sqrt(rate), 1.0, 2.5])
    got = [_radial_ball_masses(mu, np.zeros(1), r, math.inf)[0] for r in rs]
    k = n + power / 2.0
    exact = (math.pi ** n / math.factorial(n - 1) * gamma(k) * rate ** -k
             * gammainc(k, rate * rs ** 2))
    np.testing.assert_allclose(got, exact, rtol=1e-13)


def test_gaussian_transform_closed_form_n2():
    """gaussian(b) at kernel rate c has the transform
    (pi/(b+c))^2 exp(-b c rho^2/(b+c)) at n = 2, pinned to 1e-14 down to the
    first radial node, where the sphere average 2 I_1(x) e^{-x} / x is taken
    at its smallest arguments."""
    b, c, T = 1.0, 1.0, 9.0
    radii, values, _ = _radial_transform(fs.gaussian(b, 2), c, 0.0, T)
    inner = radii <= T - math.sqrt(40.0 / c)
    assert inner[0] and radii[0] < 1e-6
    exact = (math.pi / (b + c)) ** 2 * np.exp(-b * c * radii[inner] ** 2 / (b + c))
    np.testing.assert_allclose(values[inner], exact, rtol=1e-14)


@pytest.mark.parametrize("n", [1, 2])
def test_density_weighted_mass_closed_form(n):
    """Weighted masses against their closed forms: ring(2, 0.5) is
    |S^{2n-1}| (2.25^{2n} - 1.75^{2n}) / (2n), 80.19053575885103 at n = 2,
    and the Gaussian of rate 1 has total mass pi^n."""
    area = 2.0 * math.pi ** n / math.factorial(n - 1)
    ring = fs.total_weighted_mass(fs.ring(2.0, 0.5, n), 0.0, 4.0)
    assert ring == pytest.approx(area * (2.25 ** (2 * n) - 1.75 ** (2 * n)) / (2 * n), rel=1e-13)
    assert fs.total_weighted_mass(fs.gaussian(1.0, n), 0.0, 9.0) == pytest.approx(
        math.pi ** n, rel=1e-13)
    # the ring truncated inside its hole holds nothing
    assert fs.total_weighted_mass(fs.ring(2.0, 0.5, n), 0.0, 1.5) == 0.0


def test_ball_mass_many_memory_is_bounded():
    """Candidate pairs are enumerated in blocks of 1024 atoms, so 200,000
    atoms against a fine centre grid (2.5 million pairs) stay within a
    small traced peak (about 4 MB); enumerating every pair at once peaks
    near 140 MB."""
    rng = np.random.default_rng(5)
    xy = rng.uniform(-5.0, 5.0, size=(200_000, 2))
    mu = fs.AtomicMeasure(xy[:, 0] + 1j * xy[:, 1], rng.uniform(0.1, 1.0, 200_000), 1)
    centers = grid_points([cube_axis(5.0, 0.25)] * 2)
    tracemalloc.start()
    try:
        fs.ball_mass_many(mu, centers, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _call_independence_cases():
    below = fs.Params(n=1, alpha=1.0, m=1, p=4.0, q=2.0)
    suite = {sc.name: sc for sc in fs.composition_suite(below)}
    # 9216 atoms, the n = 1 outer stage's lattice and scan grid at T2 = 9
    pullback = fs.pullback_measure(suite["damped-contraction"].symbol, below)
    lat = _stage_lattice(9.0, 1.0, 1).as_complex()
    scan = grid_points([cube_axis(9.0, 0.25)] * 2)
    yield "damped-contraction-n1", pullback, np.concatenate([lat, scan])
    # about 80 centres per ball, so the pair count per atom moves with the
    # centres asked
    rng = np.random.default_rng(11)
    xy = rng.uniform(-2.0, 2.0, size=(6000, 4))
    atoms = fs.AtomicMeasure(xy[:, :2] + 1j * xy[:, 2:], rng.uniform(0.1, 2.0, 6000), 2)
    yield "random-atoms-n2", atoms, grid_points([cube_axis(2.0, 0.5)] * 4)


@pytest.mark.parametrize("name, mu, centres", list(_call_independence_cases()),
                         ids=[c[0] for c in _call_independence_cases()])
def test_ball_masses_do_not_depend_on_the_other_centres(name, mu, centres):
    """Atoms are read in blocks of a fixed size, so a ball's mass is the
    same, bit for bit, whichever other centres share the read: for the
    inner half of the centres and for a random subset, on measures of more
    than two blocks."""
    assert len(mu) > 2 * measures._ATOMS_PER_BLOCK
    masses = fs.ball_mass_many(mu, centres, 1.0)
    norms = np.linalg.norm(centres, axis=1)
    subset = np.random.default_rng(3).random(len(centres)) < 0.3
    for sel in (norms <= np.median(norms), subset):
        np.testing.assert_array_equal(masses[sel], fs.ball_mass_many(mu, centres[sel], 1.0))


def test_berezin_of_lebesgue_is_constant():
    """Smoothing Lebesgue measure gives exactly (2 pi / (t alpha))^n."""
    t, alpha = 2.0, 1.0
    pts = grid_points([cube_axis(8.0, 0.1)] * 2)
    atoms = fs.AtomicMeasure(pts, np.full(len(pts), 0.1 ** 2), 1)
    for w in (0.0 + 0.0j, 1.0 + 1.0j):
        val = _gauss_transform(atoms, t * alpha / 2.0, 0.0, np.array([[w]]))[0]
        expect = 2.0 * math.pi / (t * alpha)
        assert abs(val - expect) / expect < 1e-3


def test_berezin_value_matches_direct_sum():
    rng = np.random.default_rng(7)
    locs = rng.normal(size=5) + 1j * rng.normal(size=5)
    wts = rng.uniform(0.5, 2.0, size=5)
    mu = fs.AtomicMeasure(locs, wts, 1)
    w = 0.5 + 0.25j
    t, s, alpha = 2.0, 1.0, 1.0
    direct = float(
        (wts * (1.0 + np.abs(locs)) ** (-s) * np.exp(-t * alpha * np.abs(locs - w) ** 2 / 2.0)).sum()
    )
    got = _gauss_transform(mu, t * alpha / 2.0, s, np.array([[w]]))[0]
    assert got == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("on_nodes", [False, True])
def test_gauss_transform_matches_brute_force(n, on_nodes):
    """Grid and scattered values of the transform kernel against a plain
    sum over atoms: for atoms off the grid and the empty measure, and for
    Gaussian cell masses on the grid's nodes and on those nodes shifted
    off the grid (the translation layout: a tensor grid of their own)."""
    radius, step, c, s = 2.0, 0.5, 0.8, 1.5
    rng = np.random.default_rng(11)
    if on_nodes:
        nodes = grid_points([cube_axis(radius, step)] * (2 * n))
        cases = [fs.AtomicMeasure(pts, fs.gaussian(1.0, n).density(pts) * step ** (2 * n), n)
                 for pts in (nodes, nodes + (0.3 - 0.2j))]
    else:
        loc = rng.normal(scale=1.2, size=(40, 2 * n))
        cases = [fs.AtomicMeasure(loc[:, :n] + 1j * loc[:, n:], rng.uniform(0.1, 2.0, 40), n),
                 fs.AtomicMeasure(np.empty((0, n), dtype=complex), np.empty(0), n)]
    axes = [cube_axis(radius, step)] * (2 * n)
    xy = rng.uniform(-radius, radius, size=(50, 2 * n))
    scattered = xy[:, :n] + 1j * xy[:, n:]
    for mu in cases:
        damp = mu.weights * (1.0 + np.linalg.norm(mu.locations, axis=1)) ** (-s)

        def brute(pts):
            return np.array([
                np.sum(damp * np.exp(-c * np.sum(np.abs(mu.locations - w) ** 2, axis=1)))
                for w in pts
            ])

        on_grid = _gauss_transform(mu, c, s, axes)
        assert on_grid.shape == (axes[0].size,) * (2 * n)
        np.testing.assert_allclose(on_grid.ravel(), brute(grid_points(axes)), rtol=1e-12)
        np.testing.assert_allclose(_gauss_transform(mu, c, s, scattered), brute(scattered),
                                   rtol=1e-12)


def test_khatri_rao_serves_only_atoms_without_a_small_grid(monkeypatch):
    """The n = 1 translation, damped-contraction and square pullbacks are
    read on their atoms' own tensor grid; 40 scattered atoms at n = 2 have
    none that is cheaper than the Khatri-Rao product."""
    calls = []
    real = measures._khatri_rao

    def spy(factors):
        calls.append(len(factors))
        return real(factors)

    monkeypatch.setattr(measures, "_khatri_rao", spy)
    P = fs.Params(n=1, alpha=1.0, m=1, p=4.0, q=2.0)
    names = {"translation", "damped-contraction", "square"}
    for sc in fs.composition_suite(P):
        if sc.name in names:
            names.remove(sc.name)
            assert "atomic sums are exact" in fs.classify_compop(sc.symbol, P).carleson.notes
    assert not names and not calls
    loc = np.random.default_rng(3).normal(size=(40, 4))
    mu = fs.AtomicMeasure(loc[:, :2] + 1j * loc[:, 2:], np.ones(40), 2)
    _gauss_transform(mu, 1.0, 0.0, [cube_axis(2.0, 0.5)] * 4)
    assert calls


def test_gauss_transform_never_builds_an_oversized_own_grid():
    """60 scattered atoms at n = 2 span a 60^4-node grid of their own, 104
    MB of weights, above the transform's budget: it is never allocated."""
    loc = np.random.default_rng(4).normal(size=(60, 4))
    mu = fs.AtomicMeasure(loc[:, :2] + 1j * loc[:, 2:], np.ones(60), 2)
    axes = [cube_axis(2.0, 0.5)] * 4
    tracemalloc.start()
    try:
        _gauss_transform(mu, 1.0, 0.0, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_averaging_sequence_on_lattice(unit_lattice):
    vals = fs.averaging_sequence(delta(), unit_lattice, 1.0, 0.0)
    assert vals.shape == (len(unit_lattice),)
    # the origin atom is seen by every lattice ball within distance 1
    assert vals.max() == pytest.approx(1.0)
    assert vals.min() == 0.0


def test_discretize_atomic_passthrough():
    """The stage measure keeps the atoms in the ball, not in the cube."""
    mu = fs.AtomicMeasure(np.array([0.0 + 0.0j, 5.0 + 0.0j, 1.5 + 1.5j]),
                          np.array([1.0, 2.0, 3.0]), 1)
    kept = fs.discretize(mu, radius=2.0)
    assert len(kept.weights) == 1
    assert kept.weights[0] == pytest.approx(1.0)


def test_effective_radius_kinds():
    assert fs.effective_radius(fs.lebesgue(1)) is None
    assert fs.effective_radius(fs.polygrowth(2.0, 1)) is None
    assert fs.effective_radius(fs.DensityMeasure("power-gaussian", 1, rate=3.0)) is None
    assert fs.effective_radius(fs.gaussian(1.0, 1)) is not None
    ring = fs.ring(2.0, 0.2, 1)
    assert fs.effective_radius(ring) == pytest.approx(ring.compact_extent)
    atoms = delta(3.0 + 4.0j)
    assert fs.effective_radius(atoms) >= 5.0


def test_total_weighted_mass_delta():
    assert fs.total_weighted_mass(delta(), 2.0, 5.0) == pytest.approx(1.0)
    assert fs.total_weighted_mass(delta(1.0 + 0.0j), 2.0, 5.0) == pytest.approx(0.25)


def test_weighted_mass_divergence_rule():
    # p = inf: net power - s >= -2n, with s = mq, marks a divergent
    # discounted mass integral
    def bounded(mu, m, q):
        return fs.expected_measure_verdict(mu, fs.Params(1, 1.0, m, math.inf, q))

    assert not bounded(fs.lebesgue(1), 0, 2.0)
    assert bounded(fs.lebesgue(1), 1, 3.0)
    assert not bounded(fs.polygrowth(2.0, 1), 2, 2.0)
    assert bounded(fs.polygrowth(2.0, 1), 1, 4.5)
    assert bounded(fs.gaussian(1.0, 1), 0, 2.0)


def test_ring_mass():
    ring = fs.ring(2.0, 0.2, 1)
    total = fs.total_weighted_mass(ring, 0.0, 4.0)
    expect = 2.0 * math.pi * 2.0 * 0.2
    assert abs(total - expect) / expect < 1e-13


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_density_scale_linearity(scale):
    base = fs.ball_mass_many(fs.gaussian(1.0, 1), 0.0 + 0.0j, 1.0)[0]
    scaled = fs.ball_mass_many(fs.gaussian(1.0, 1, scale=scale), 0.0 + 0.0j, 1.0)[0]
    assert scaled == pytest.approx(scale * base, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    t=st.floats(min_value=0.5, max_value=4.0),
    s=st.floats(min_value=0.0, max_value=3.0),
)
def test_berezin_positive_and_monotone_in_weights(seed, t, s):
    rng = np.random.default_rng(seed)
    locs = rng.normal(size=4) + 1j * rng.normal(size=4)
    wts = rng.uniform(0.1, 1.0, size=4)
    mu = fs.AtomicMeasure(locs, wts, 1)
    mu2 = fs.AtomicMeasure(locs, 2.0 * wts, 1)
    w = complex(rng.normal(), rng.normal())
    a = _gauss_transform(mu, t / 2.0, s, np.array([[w]]))[0]
    b = _gauss_transform(mu2, t / 2.0, s, np.array([[w]]))[0]
    assert a > 0.0
    assert b == pytest.approx(2.0 * a, rel=1e-12)
