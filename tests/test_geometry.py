import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import focksobolev as fs
from focksobolev import carleson, geometry


def test_make_lattice_rejects_tiny_domain():
    with pytest.raises(ValueError):
        fs.make_lattice(1.0, 1.0, n=1)


def test_lattice_basic_shape(unit_lattice):
    lat = unit_lattice
    assert lat.centers.shape == (len(lat), 2)
    assert lat.n == 1
    zs = lat.as_complex()
    assert zs.shape == (len(lat), 1)
    assert np.allclose(zs[:, 0].real, lat.centers[:, 0])
    assert np.allclose(zs[:, 0].imag, lat.centers[:, 1])


def test_lattice_separation_exact(unit_lattice):
    tree = cKDTree(unit_lattice.centers)
    d, _ = tree.query(unit_lattice.centers, k=2)
    assert d[:, 1].min() >= unit_lattice.r


def test_lattice_points_inside_domain(unit_lattice):
    radii = np.linalg.norm(unit_lattice.centers, axis=1)
    assert radii.max() <= unit_lattice.domain_radius + 1e-12


def test_verify_lattice_covers(unit_lattice):
    rep = fs.verify_lattice(unit_lattice, 20_000, seed=3)
    assert rep.uncovered_probe_count == 0
    assert rep.min_pair_distance >= unit_lattice.r
    assert rep.max_probe_distance < unit_lattice.r
    assert rep.probe_count == 20_000


def test_verify_lattice_deterministic(unit_lattice):
    a = fs.verify_lattice(unit_lattice, 5_000, seed=9)
    b = fs.verify_lattice(unit_lattice, 5_000, seed=9)
    assert a == b


def test_covering_multiplicity_bound(unit_lattice):
    rng = np.random.default_rng(1)
    probes = rng.uniform(-5.0, 5.0, size=(5_000, 2))
    mult = fs.covering_multiplicity(unit_lattice, 2.0 * unit_lattice.r, probes)
    assert 1 <= mult <= 25


def test_covering_multiplicity_single_ball():
    lat = fs.make_lattice(6.0, 1.0, n=1)
    probes = lat.centers[:1] + 0.01
    assert fs.covering_multiplicity(lat, 0.05, probes) == 1


def test_d4_lattice_n2():
    lat = fs.make_lattice(4.0, 1.0, n=2)
    assert lat.centers.shape[1] == 4
    assert lat.construction == "d4"
    tree = cKDTree(lat.centers)
    d, _ = tree.query(lat.centers, k=2)
    assert d[:, 1].min() >= lat.r
    rep = fs.verify_lattice(lat, 20_000, seed=5)
    assert rep.uncovered_probe_count == 0


@settings(max_examples=20, deadline=None)
@given(
    r=st.floats(min_value=0.4, max_value=1.5),
    dom=st.floats(min_value=3.5, max_value=7.0),
    n=st.sampled_from([1, 2]),
)
def test_lattice_separation_property(r, dom, n):
    """Pairwise separation at least r holds for any admissible geometry."""
    lat = fs.make_lattice(dom, r, n=n)
    tree = cKDTree(lat.centers)
    d, _ = tree.query(lat.centers, k=2)
    assert d[:, 1].min() >= r - 1e-12
    assert np.linalg.norm(lat.centers, axis=1).max() <= dom + 1e-12


@settings(max_examples=15, deadline=None)
@given(r=st.floats(min_value=0.4, max_value=1.2), seed=st.integers(min_value=0, max_value=50))
def test_lattice_covering_property(r, seed):
    lat = fs.make_lattice(5.0, r, n=1)
    rep = fs.verify_lattice(lat, 2_000, seed=seed)
    assert rep.uncovered_probe_count == 0


def _greedy_brute(pts, r):
    """The plain greedy scan: each candidate against every accepted centre."""
    r2 = r * r
    chosen = np.empty_like(pts)
    count = 0
    for p in pts:
        if count == 0 or (((chosen[:count] - p) ** 2).sum(axis=1) > r2).all():
            chosen[count] = p
            count += 1
    return chosen[:count].copy()


# the (R, r) grid of the plain scan's reach: R / r above about 24 means
# more than 30000 candidates, on which the quadratic plain scan takes up
# to 44 s
_GREEDY_CASES = [(R, r) for R in (2.0, 4.0, 6.0, 7.3, 9.0, 13.5, 20.0)
                 for r in (0.3, 0.5, 0.7, 1.0, 1.3) if 2 * r <= R <= 24.5 * r]


def _candidate_grid(R, r):
    """The nodes of step r/4 in the disk of radius R, in order of norm, then
    x, then y."""
    h = r / 4.0
    k = int(math.floor(R / h))
    ax = np.arange(-k, k + 1) * h
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    nrm = (pts ** 2).sum(axis=1)
    keep = nrm <= R ** 2 * (1 + 1e-12)
    pts, nrm = pts[keep], nrm[keep]
    return pts[np.lexsort((pts[:, 1], pts[:, 0], nrm))]


@pytest.mark.parametrize("R, r", _GREEDY_CASES)
def test_bucketed_greedy_matches_brute_force(R, r):
    """The stencil-blocking scan accepts exactly the centres of the plain
    one, in the same order."""
    got = geometry._greedy_n1(R, r)
    want = _greedy_brute(_candidate_grid(R, r), r)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _d4_cube_reference(domain_radius, r):
    """The D4 points from the whole integer cube, as four meshgrids."""
    a = (r / math.sqrt(2.0)) * (1.0 + geometry._D4_PAD)
    k = int(math.ceil(domain_radius / a)) + 1
    rng = np.arange(-k, k + 1)
    g = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 4)
    g = g[(g.sum(axis=1) % 2) == 0]
    pts = g * a
    nrm2 = (pts ** 2).sum(axis=1)
    keep = nrm2 <= domain_radius ** 2 * (1 + 1e-12)
    pts, nrm2 = pts[keep], nrm2[keep]
    return pts[np.lexsort((pts[:, 3], pts[:, 2], pts[:, 1], pts[:, 0], nrm2))]


# T = 10.5 at r = 0.5 is left out: its reference cube holds 15.8M points
# and takes about 1.5 GB
@pytest.mark.parametrize("T, r", [(T, r) for T in (3.5, 5.25, 6.0, 6.75, 10.5)
                                  for r in (0.5, 0.8, 1.0, 1.3) if (T, r) != (10.5, 0.5)])
def test_d4_points_match_cube_reference(T, r):
    """The broadcast norm cube gives the D4 points of the four-meshgrid
    cube, bit for bit and in the same order."""
    got = geometry._d4_points(T, r)
    want = _d4_cube_reference(T, r)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_d4_lattice_memory_is_bounded():
    """The largest outer-stage D4 lattice the classifier builds, at T2 = 10.5
    and r = 1, peaks at 20.5 MB traced; the four-meshgrid cube took 75.9 MB."""
    tracemalloc.start()
    try:
        fs.make_lattice(10.5, 1.0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_stage_lattice_cache_is_bounded():
    """Lattices for 40 distinct radii leave at most the cache bound."""
    carleson._stage_lattice.cache_clear()
    for T in np.linspace(2.0, 6.0, 40):
        carleson._stage_lattice(float(T), 1.0, 1)
    assert carleson._stage_lattice.cache_info().currsize <= carleson._stage_lattice.cache_parameters()["maxsize"]


def _catalogue_stage_radii(n):
    """Base stage radii classify_carleson uses on the measure suite and on
    the pullback measures, whose base stage is fixed."""
    radii = {carleson.STAGE_RADIUS[n]}
    for sc in fs.measure_suite(n):
        radii.add(carleson._stage_geometry(sc.measure, n, 1.0)[0])
    return sorted(radii)


@pytest.mark.parametrize("n", [1, 2])
def test_outer_stage_lattice_restricts_to_inner_stages(n):
    """A classification reads every stage's centres off the outer stage's
    lattice: restricted to |c| <= T they equal the lattice built for T,
    element for element and in the same order."""
    r = 1.0
    for T1 in _catalogue_stage_radii(n):
        T2 = carleson.EXPANSION * T1
        outer = fs.make_lattice(max(T2, 2 * r), r, n).as_complex()
        for T in (T1 / carleson.EXPANSION, T1):
            inner = fs.make_lattice(max(T, 2 * r), r, n).as_complex()
            got = outer[np.linalg.norm(outer, axis=1) <= T]
            want = inner[np.linalg.norm(inner, axis=1) <= T]
            assert got.shape == want.shape
            assert np.array_equal(got, want), (T1, T)
