import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import focksobolev as fs
from focksobolev.carleson import _stage_geometry, _stage_lattice
from focksobolev.grid import cube_axis, grid_points, to_real
from focksobolev.measures import _ball_step, _gauss_transform, _node_grid


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
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_density_measure_rejects_non_finite_input(kind, field, value):
    base = {"ring_radius": 1.0, "ring_width": 0.5} if kind == "ring" else {}
    with pytest.raises(ValueError, match="finite"):
        fs.DensityMeasure(kind=kind, n=1, **{**base, field: value})


def test_ball_mass_lebesgue_n1():
    val = fs.ball_mass(fs.lebesgue(1), 0.0 + 0.0j, 1.0)
    assert abs(val - math.pi) / math.pi < 2e-3


def test_ball_mass_lebesgue_n2():
    val = fs.ball_mass(fs.lebesgue(2), np.array([0.0 + 0.0j, 0.0 + 0.0j]), 1.0)
    expect = math.pi ** 2 / 2.0
    assert abs(val - expect) / expect < 2e-2


def test_ball_mass_translation_invariance():
    a = fs.ball_mass(fs.lebesgue(1), 0.0 + 0.0j, 1.0)
    b = fs.ball_mass(fs.lebesgue(1), 3.0 + 2.0j, 1.0)
    assert a == pytest.approx(b, rel=1e-9)


def test_ball_mass_atomic_counts_inside():
    mu = fs.AtomicMeasure(np.array([0.0 + 0.0j, 2.0 + 0.0j]), np.array([1.0, 5.0]), 1)
    assert fs.ball_mass(mu, 0.0 + 0.0j, 1.0) == pytest.approx(1.0)
    assert fs.ball_mass(mu, 2.0 + 0.0j, 0.5) == pytest.approx(5.0)
    assert fs.ball_mass(mu, 1.0 + 0.0j, 0.5) == pytest.approx(0.0)


def single_ball_mass(mu, center, radius):
    """The per-centre ball-mass formula: a strict sum over atoms, or a
    density on the local cube grid with a boundary fraction linear in the
    signed distance across one cell."""
    c = np.asarray(center, dtype=complex).reshape(-1)
    if isinstance(mu, fs.AtomicMeasure):
        d = np.linalg.norm(mu.locations - c[None, :], axis=1)
        return float(mu.weights[d < radius].sum())
    h = _ball_step(radius, mu.n, None, mu)
    pts = grid_points([x + cube_axis(radius, h) for x in to_real(c[None, :])[0]])
    frac = np.clip((radius - np.linalg.norm(pts - c[None, :], axis=1)) / h + 0.5, 0.0, 1.0)
    return float((mu.density(pts) * frac).sum() * h ** (2 * mu.n))


def test_ball_mass_many_matches_single():
    mu = fs.gaussian(1.0, 1)
    centers = np.array([[0.0 + 0.0j], [1.0 + 0.0j], [2.0 + 1.0j]])
    many = fs.ball_mass_many(mu, centers, 0.8)
    singles = [single_ball_mass(mu, c, 0.8) for c in centers]
    assert np.allclose(many, singles, rtol=1e-9)


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
        yield f"ring{n}", fs.ring(1.5, 0.6, n), scattered
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
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def _stage_centres(T: float, h: float, n: int) -> np.ndarray:
    """The stage's lattice centres |c| <= T, centres on, just inside and
    just outside each cube face, one on cell boundaries, a cube corner, and
    one with nodes at distance exactly 1 when h = 0.4 (the node 1.0)."""
    lat = _stage_lattice(T, 1.0, n).as_complex()
    face = np.concatenate([np.eye(2 * n) * x for x in (T, T - h / 4, T + 0.7, -T, -T + h / 4)])
    edge = np.array([[h, 2 * h, -h, 0.0], [T, T, -T, T], [2.0, 1.0, 1.0, 1.0]])[:, :2 * n]
    xy = np.concatenate([face, edge])
    return np.concatenate([lat[np.linalg.norm(lat, axis=1) <= T], xy[:, 0::2] + 1j * xy[:, 1::2]])


@pytest.mark.parametrize("mu", [fs.lebesgue(2), fs.gaussian(1.0, 2), fs.polygrowth(1.5, 2),
                                fs.ring(2.0, 0.5, 2), fs.gaussian(0.7, 1)],
                         ids=lambda mu: f"{mu.kind}{mu.n}")
def test_node_grid_ball_masses_match_atoms(mu):
    """Ball masses gathered from a density's node grid against the
    kd-tree sum over the atoms ``discretize`` gives on the same grid, at
    the middle stage's radius and step (h = 0.4, where 2r/h is whole, for
    Lebesgue and polygrowth): the same nodes are inside every ball, so
    unit weights give equal counts, and the masses differ only by
    summation order."""
    T, h = _stage_geometry(mu, mu.n, 1.0)
    centres = _stage_centres(T, h, mu.n)
    grid, atoms = _node_grid(mu, T, h), fs.discretize(mu, T, h)
    got = fs.ball_mass_many(grid, centres, 1.0)
    np.testing.assert_allclose(got, fs.ball_mass_many(atoms, centres, 1.0), rtol=1e-13)
    ones = dataclasses.replace(grid, weights=(grid.weights > 0).astype(float))
    unit = fs.AtomicMeasure(atoms.locations, np.ones(len(atoms)), mu.n)
    assert np.array_equal(fs.ball_mass_many(ones, centres, 1.0),
                          fs.ball_mass_many(unit, centres, 1.0))


def test_node_grid_ball_mass_lebesgue_n2():
    """Lebesgue ball masses on the n = 2 stage node grid (T = 4, h = 0.4)
    against pi^2 r^4 / 2 at every stage lattice centre whose ball lies in
    the grid. The node sum has no boundary fraction, so its error depends
    on where the centre falls: measured from -8.7% to +14.6% over these
    625 centres, and the tolerance is that maximum rounded up."""
    T, r = 4.0, 1.0
    lat = _stage_lattice(T, r, 2).as_complex()
    lat = lat[np.linalg.norm(lat, axis=1) <= T - r]
    got = fs.ball_mass_many(_node_grid(fs.lebesgue(2), T, 0.4), lat, r)
    expect = math.pi ** 2 * r ** 4 / 2.0
    assert np.max(np.abs(got - expect)) / expect < 0.15


def test_ball_mass_many_memory_is_bounded():
    """Candidate pairs are enumerated in blocks of atoms, so 200,000 atoms
    against a fine centre grid (2.5 million pairs) stay within a small
    traced peak; enumerating every pair at once peaks near 140 MB."""
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
    assert peak < 35e6


def test_berezin_of_lebesgue_is_constant():
    """Smoothing Lebesgue measure gives exactly (2 pi / (t alpha))^n."""
    t, alpha = 2.0, 1.0
    atoms = fs.discretize(fs.lebesgue(1), radius=8.0, step=0.1)
    for w in (0.0 + 0.0j, 1.0 + 1.0j):
        val = fs.berezin_value(atoms, w, t, 0.0, alpha)
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
    assert fs.berezin_value(mu, w, t, s, alpha) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("on_nodes", [False, True])
def test_gauss_transform_matches_brute_force(n, on_nodes):
    """Grid and scattered values of the transform kernel against a plain
    sum over atoms, for atoms off the grid and for a discretised density
    whose atoms sit on the grid's nodes."""
    radius, step, c, s = 2.0, 0.5, 0.8, 1.5
    rng = np.random.default_rng(11)
    if on_nodes:
        mu = fs.discretize(fs.gaussian(1.0, n), radius, step)
    else:
        loc = rng.normal(scale=1.2, size=(40, 2 * n))
        mu = fs.AtomicMeasure(loc[:, :n] + 1j * loc[:, n:], rng.uniform(0.1, 2.0, 40), n)
    damp = mu.weights * (1.0 + np.linalg.norm(mu.locations, axis=1)) ** (-s)

    def brute(pts):
        return np.array([
            np.sum(damp * np.exp(-c * np.sum(np.abs(mu.locations - w) ** 2, axis=1)))
            for w in pts
        ])

    axes = [cube_axis(radius, step)] * (2 * n)
    on_grid = _gauss_transform(mu, c, s, axes)
    assert on_grid.shape == (axes[0].size,) * (2 * n)
    np.testing.assert_allclose(on_grid.ravel(), brute(grid_points(axes)), rtol=1e-12)
    xy = rng.uniform(-radius, radius, size=(50, 2 * n))
    pts = xy[:, :n] + 1j * xy[:, n:]
    np.testing.assert_allclose(_gauss_transform(mu, c, s, pts), brute(pts), rtol=1e-12)


@pytest.mark.parametrize("mu", [fs.gaussian(1.0, 1), fs.ring(1.0, 0.5, 1),
                                fs.gaussian(1.0, 2), fs.ring(1.0, 0.5, 2)],
                         ids=lambda mu: f"{mu.kind}{mu.n}")
def test_node_grid_transform_matches_on_node_atoms(mu):
    """The grid transform of a density's node grid equals, bit for bit,
    the one of the atoms ``discretize`` puts on the same nodes (0 where it
    drops one)."""
    radius, step, c, s = 2.0, 0.5, 0.8, 1.5
    axes = [cube_axis(radius, step)] * (2 * mu.n)
    assert np.array_equal(_gauss_transform(_node_grid(mu, radius, step), c, s, axes),
                          _gauss_transform(fs.discretize(mu, radius, step), c, s, axes))


def test_averaging_sequence_on_lattice(unit_lattice):
    vals = fs.averaging_sequence(delta(), unit_lattice, 1.0, 0.0)
    assert vals.shape == (len(unit_lattice),)
    # the origin atom is seen by every lattice ball within distance 1
    assert vals.max() == pytest.approx(1.0)
    assert vals.min() == 0.0


def test_sequence_lp_matches_numpy():
    v = np.array([3.0, 4.0, 0.0])
    assert fs.sequence_lp(v, 2.0) == pytest.approx(5.0)
    assert fs.sequence_lp(v, 1.0) == pytest.approx(7.0)
    assert fs.sequence_lp(v, math.inf) == pytest.approx(4.0)


def test_discretize_conserves_mass():
    atoms = fs.discretize(fs.gaussian(1.0, 1), radius=8.0, step=0.1)
    total = float(atoms.weights.sum())
    assert abs(total - math.pi) / math.pi < 1e-3


def test_discretize_atomic_passthrough():
    mu = fs.AtomicMeasure(np.array([0.0 + 0.0j, 5.0 + 0.0j]), np.array([1.0, 2.0]), 1)
    kept = fs.discretize(mu, radius=2.0, step=0.1)
    assert len(kept.weights) == 1
    assert kept.weights[0] == pytest.approx(1.0)


def test_effective_radius_kinds():
    assert fs.effective_radius(fs.lebesgue(1)) is None
    assert fs.effective_radius(fs.polygrowth(2.0, 1)) is None
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
    assert abs(total - expect) / expect < 2e-2


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_density_scale_linearity(scale):
    base = fs.ball_mass(fs.gaussian(1.0, 1), 0.0 + 0.0j, 1.0)
    scaled = fs.ball_mass(fs.gaussian(1.0, 1, scale=scale), 0.0 + 0.0j, 1.0)
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
    a = fs.berezin_value(mu, w, t, s, 1.0)
    b = fs.berezin_value(mu2, w, t, s, 1.0)
    assert a > 0.0
    assert b == pytest.approx(2.0 * a, rel=1e-12)
