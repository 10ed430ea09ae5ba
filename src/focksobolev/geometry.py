"""Separated covering lattices on C^n.

An (r/2)-lattice is a point set whose r-balls cover the working disk while
the r/2-balls around distinct centers stay pairwise disjoint. For n=1 the
construction is a greedy scan of a fine grid (step r/4) ordered by distance
from the origin; acceptance requires strict separation, which keeps nearest
neighbours a little above r and makes covering holes detectable when a
center is knocked out. For n=2 the grid is far too large to scan greedily
at the required density, so the centers are drawn from a scaled D4
checkerboard lattice, which has exact minimal distance and covering radius
about 0.70 r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .grid import to_complex

__all__ = ["Lattice", "LatticeReport", "make_lattice", "covering_multiplicity", "verify_lattice"]

# D4 separation overshoot: keeps pairwise distances strictly above r in floats.
_D4_PAD = 1e-9


@dataclass(frozen=True, eq=False)
class Lattice:
    """Centers are stored as real coordinates, shape (k, 2n)."""

    centers: np.ndarray
    r: float
    domain_radius: float
    n: int
    construction: str

    def __len__(self) -> int:
        return self.centers.shape[0]

    def as_complex(self) -> np.ndarray:
        """Centers as a complex array of shape (k, n)."""
        return to_complex(self.centers)


@dataclass(frozen=True)
class LatticeReport:
    min_pair_distance: float
    uncovered_probe_count: int
    max_probe_distance: float
    probe_count: int
    seed: int


def _candidate_grid_n1(domain_radius: float, r: float) -> np.ndarray:
    h = r / 4.0
    k = int(math.floor(domain_radius / h))
    ax = np.arange(-k, k + 1) * h
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    keep = (pts ** 2).sum(axis=1) <= domain_radius ** 2 * (1 + 1e-12)
    pts = pts[keep]
    nrm = (pts ** 2).sum(axis=1)
    order = np.lexsort((pts[:, 1], pts[:, 0], nrm))
    return pts[order]


def _greedy_select(pts: np.ndarray, r: float) -> np.ndarray:
    """Greedy maximal scan: accept a candidate when strictly farther than r
    from every accepted center.

    Accepted centers are bucketed in square cells of side a hair over r,
    so only the 3x3 cells about a candidate can hold one within r of it;
    the hair keeps rounding in x / side from putting one two cells away.
    """
    r2 = r * r
    side = r * (1.0 + 1e-9)
    cells: dict = {}
    chosen = []
    for x, y in pts.tolist():
        i, j = math.floor(x / side), math.floor(y / side)
        near = (c for di in (-1, 0, 1) for dj in (-1, 0, 1)
                for c in cells.get((i + di, j + dj), ()))
        if all((cx - x) * (cx - x) + (cy - y) * (cy - y) > r2 for cx, cy in near):
            chosen.append((x, y))
            cells.setdefault((i, j), []).append((x, y))
    return np.array(chosen, dtype=float).reshape(-1, 2)


def _d4_points(domain_radius: float, r: float) -> np.ndarray:
    a = (r / math.sqrt(2.0)) * (1.0 + _D4_PAD)
    k = int(math.ceil(domain_radius / a)) + 1
    rng = np.arange(-k, k + 1)
    g = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 4)
    g = g[(g.sum(axis=1) % 2) == 0]
    pts = g * a
    nrm2 = (pts ** 2).sum(axis=1)
    keep = nrm2 <= domain_radius ** 2 * (1 + 1e-12)
    pts = pts[keep]
    nrm2 = nrm2[keep]
    order = np.lexsort((pts[:, 3], pts[:, 2], pts[:, 1], pts[:, 0], nrm2))
    return pts[order]


def make_lattice(domain_radius: float, r: float, n: int = 1) -> Lattice:
    """Build an (r/2)-lattice on {|z| <= domain_radius}.

    Requires domain_radius >= 2r so the covering claim on the shrunken disk
    {|z| <= domain_radius - r} is nonvacuous. The first center is the grid
    point nearest the origin (the origin itself).
    """
    if r <= 0:
        raise ValueError("separation r must be positive")
    if domain_radius < 2 * r:
        raise ValueError("domain_radius must be at least 2r")
    if n == 1:
        centers = _greedy_select(_candidate_grid_n1(domain_radius, r), r)
        kind = "greedy-grid"
    elif n == 2:
        centers = _d4_points(domain_radius, r)
        kind = "d4"
    else:
        raise ValueError("only n in {1, 2} is supported")
    return Lattice(centers=centers, r=r, domain_radius=domain_radius, n=n, construction=kind)


def covering_multiplicity(lat: Lattice, rho: float, probes: np.ndarray) -> int:
    """Largest number of rho-balls around centers containing a single probe.

    probes: real coordinates, shape (P, 2n).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    probes = np.asarray(probes, dtype=float).reshape(-1, 2 * lat.n)
    tree = cKDTree(lat.centers)
    counts = tree.query_ball_point(probes, rho, return_length=True)
    return int(np.max(counts)) if len(counts) else 0


def _uniform_ball_probes(radius: float, dim: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = []
    have = 0
    while have < count:
        cand = rng.uniform(-radius, radius, size=(2 * count, dim))
        cand = cand[(cand ** 2).sum(axis=1) <= radius * radius]
        out.append(cand)
        have += len(cand)
    return np.concatenate(out)[:count]


def verify_lattice(lat: Lattice, probe_count: int, seed: int) -> LatticeReport:
    """Check separation and covering with seeded uniform probes.

    Probes are uniform on {|z| <= domain_radius - r}. A probe is uncovered
    when no center lies strictly within r of it.
    """
    tree = cKDTree(lat.centers)
    dd, _ = tree.query(lat.centers, k=min(2, len(lat)))
    min_pair = float(dd[:, 1].min()) if len(lat) > 1 else math.inf
    probes = _uniform_ball_probes(lat.domain_radius - lat.r, 2 * lat.n, probe_count, seed)
    dist, _ = tree.query(probes)
    uncovered = int((dist >= lat.r).sum())
    return LatticeReport(
        min_pair_distance=min_pair,
        uncovered_probe_count=uncovered,
        max_probe_distance=float(dist.max()),
        probe_count=probe_count,
        seed=seed,
    )
