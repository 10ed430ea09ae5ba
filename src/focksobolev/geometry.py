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


def _greedy_n1(domain_radius: float, r: float) -> np.ndarray:
    """Greedy scan of the step-r/4 grid in the disk, by norm, then x, then
    y: a node is accepted when strictly farther than r from every accepted
    center. Each accepted center blocks the nodes within r of it by the
    float test (cx - x)^2 + (cy - y)^2 <= r^2, on a stencil of 5 steps."""
    reach, h, r2 = 5, r / 4.0, r * r
    width = 2 * reach + 1
    k = int(math.floor(domain_radius / h))
    # the node axis, padded by the stencil's reach
    ax = np.arange(-k - reach, k + reach + 1) * h
    inner = ax[reach:-reach]
    nrm = inner[:, None] ** 2 + inner ** 2
    i, j = np.nonzero(nrm <= domain_radius ** 2 * (1 + 1e-12))
    order = np.lexsort((inner[j], inner[i], nrm[i, j]))
    blocked = np.zeros((ax.size, ax.size), dtype=bool)
    chosen = []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if not blocked[a + reach, b + reach]:
            chosen.append((a, b))
            dx, dy = inner[a] - ax[a:a + width, None], inner[b] - ax[b:b + width]
            blocked[a:a + width, b:b + width] |= dx * dx + dy * dy <= r2
    return inner[np.array(chosen)]


def _d4_points(domain_radius: float, r: float) -> np.ndarray:
    """Points of the scaled D4 checkerboard (integer points with an even
    coordinate sum, times a) in the ball, in order of norm, then of the
    coordinates. The squared norms are one broadcast cube over the axis,
    summed in coordinate order."""
    a = (r / math.sqrt(2.0)) * (1.0 + _D4_PAD)
    k = int(math.ceil(domain_radius / a)) + 1
    v = np.arange(-k, k + 1) * a
    sq, odd = v ** 2, np.arange(-k, k + 1) % 2 == 1
    nrm2 = sq[:, None, None, None] + sq[:, None, None] + sq[:, None] + sq
    even = ~(odd[:, None, None, None] ^ odd[:, None, None] ^ odd[:, None] ^ odd)
    keep = even & (nrm2 <= domain_radius ** 2 * (1 + 1e-12))
    pts = v[np.stack(np.nonzero(keep), axis=1)]
    order = np.lexsort((pts[:, 3], pts[:, 2], pts[:, 1], pts[:, 0], nrm2[keep]))
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
        centers = _greedy_n1(domain_radius, r)
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
    from scipy.spatial import cKDTree  # the lattice report alone needs scipy
    if rho <= 0:
        raise ValueError("rho must be positive")
    probes = np.asarray(probes, dtype=float).reshape(-1, 2 * lat.n)
    tree = cKDTree(lat.centers)
    counts = tree.query_ball_point(probes, rho, return_length=True)
    return int(np.max(counts)) if len(counts) else 0


def _uniform_ball_probes(radius: float, dim: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out, have = [], 0
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
    from scipy.spatial import cKDTree
    tree = cKDTree(lat.centers)
    dd, _ = tree.query(lat.centers, k=min(2, len(lat)))
    min_pair = float(dd[:, 1].min()) if len(lat) > 1 else math.inf
    probes = _uniform_ball_probes(lat.domain_radius - lat.r, 2 * lat.n, probe_count, seed)
    dist, _ = tree.query(probes)
    uncovered = int((dist >= lat.r).sum())
    return LatticeReport(min_pair_distance=min_pair, uncovered_probe_count=uncovered,
                         max_probe_distance=float(dist.max()), probe_count=probe_count, seed=seed)
