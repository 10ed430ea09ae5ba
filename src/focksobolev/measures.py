"""Positive Borel measures on C^n and their averaged transforms.

Measures come in two concrete flavours: finite atom lists and densities
against volume from a small catalog (Lebesgue, Gaussian, polynomial
growth, a compact ring). Densities are discretised onto cell-center
grids when a computation needs point masses; atomic sums are exact.

The two observables driving the embedding theory are the ball mass
``mu(B(w, r))`` scaled by ``(1 + |w|)^{-s}`` and the Gaussian-kernel
transform ``w -> int exp(-t a |z - w|^2 / 2) (1 + |z|)^{-s} dmu(z)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.spatial import cKDTree

from .grid import cell_axis, cube_axis, grid_points, to_complex, to_real
from .quadrature import QuasiNormError, truncation_radius

__all__ = [
    "AtomicMeasure",
    "DensityMeasure",
    "Measure",
    "lebesgue",
    "gaussian",
    "polygrowth",
    "ring",
    "atoms_on_lattice",
    "discretize",
    "ball_mass",
    "ball_mass_many",
    "averaging_sequence",
    "berezin_value",
    "sequence_lp",
    "total_weighted_mass",
    "effective_radius",
]

_BALL_CELLS = {1: 32, 2: 16}


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite sum of point masses: locations (k, n) complex, weights (k,)."""

    locations: np.ndarray
    weights: np.ndarray
    n: int

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=complex).reshape(-1, self.n)
        wts = np.asarray(self.weights, dtype=float).reshape(-1)
        if loc.shape[0] != wts.shape[0]:
            raise ValueError("locations and weights disagree in length")
        if np.any(wts < 0):
            raise ValueError("weights must be nonnegative")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(wts))):
            raise ValueError("locations and weights must be finite")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", wts)

    @property
    def extent(self) -> float:
        if self.locations.shape[0] == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.locations, axis=1)))

    def __len__(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True)
class DensityMeasure:
    """Measure rho(z) dV with rho from a fixed catalog.

    kind is one of "lebesgue", "gaussian", "polygrowth", "ring"; ``rate``
    is the Gaussian decay, ``power`` the polynomial growth exponent,
    ``ring_radius``/``ring_width`` the annulus geometry, ``scale`` a
    global multiplier.
    """

    kind: str
    n: int
    scale: float = 1.0
    rate: float = 0.0
    power: float = 0.0
    ring_radius: float = 0.0
    ring_width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("lebesgue", "gaussian", "polygrowth", "ring"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if not all(map(math.isfinite, (self.scale, self.rate, self.power,
                                       self.ring_radius, self.ring_width))):
            raise ValueError("density parameters must be finite")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if self.kind == "gaussian" and not (self.rate > 0):
            raise ValueError("gaussian density needs a positive rate")
        if self.kind == "ring" and not (self.ring_radius > 0 and self.ring_width > 0):
            raise ValueError("ring density needs positive radius and width")

    def density(self, pts: np.ndarray) -> np.ndarray:
        """Density values on a batch (N, n) of complex points."""
        r = np.linalg.norm(pts, axis=1)
        if self.kind == "lebesgue":
            out = np.ones_like(r)
        elif self.kind == "gaussian":
            out = np.exp(-self.rate * r ** 2)
        elif self.kind == "polygrowth":
            with np.errstate(over="ignore"):  # a large power is inf far out
                out = (1.0 + r) ** self.power
        else:
            half = self.ring_width / 2.0
            out = (np.abs(r - self.ring_radius) <= half).astype(float)
        return self.scale * out

    @property
    def compact_extent(self) -> Optional[float]:
        if self.kind == "ring":
            return self.ring_radius + self.ring_width / 2.0
        return None


Measure = Union[AtomicMeasure, DensityMeasure]


def lebesgue(n: int, scale: float = 1.0) -> DensityMeasure:
    return DensityMeasure(kind="lebesgue", n=n, scale=scale)


def gaussian(rate: float, n: int, scale: float = 1.0) -> DensityMeasure:
    return DensityMeasure(kind="gaussian", n=n, scale=scale, rate=rate)


def polygrowth(power: float, n: int, scale: float = 1.0) -> DensityMeasure:
    return DensityMeasure(kind="polygrowth", n=n, scale=scale, power=power)


def ring(ring_radius: float, ring_width: float, n: int, scale: float = 1.0) -> DensityMeasure:
    return DensityMeasure(
        kind="ring", n=n, scale=scale, ring_radius=ring_radius, ring_width=ring_width
    )


def atoms_on_lattice(lat) -> AtomicMeasure:
    """Unit point masses on the centers of a lattice."""
    return AtomicMeasure(locations=lat.as_complex(), weights=np.ones(len(lat)), n=lat.n)


def effective_radius(mu: Measure) -> Optional[float]:
    """Radius holding all but a 1e-12 fraction of decaying mass, if finite."""
    if isinstance(mu, AtomicMeasure):
        return mu.extent
    if mu.compact_extent is not None:
        return mu.compact_extent
    if mu.kind == "gaussian":
        return truncation_radius(mu.rate, 0.0, 1e-12 * max(mu.scale, 1e-300), mu.n)
    return None


def discretize(mu: Measure, radius: float, step: float) -> AtomicMeasure:
    """Cell-center point-mass approximation of a measure on a centred cube.

    Atomic input is filtered to the cube; density input becomes one atom
    per cell with weight density * step^(2n). Zero-weight atoms are
    dropped.
    """
    if isinstance(mu, AtomicMeasure):
        keep = np.max(np.abs(to_real(mu.locations)), axis=1) <= radius
        return AtomicMeasure(mu.locations[keep], mu.weights[keep], mu.n)
    n = mu.n
    pts = grid_points([cube_axis(radius, step)] * (2 * n))
    wts = mu.density(pts) * step ** (2 * n)
    keep = wts > 0
    return AtomicMeasure(locations=pts[keep], weights=wts[keep], n=n)


@dataclass(frozen=True)
class _NodeGrid:
    """A density's cell masses on the nodes of its cube grid, in the grid's
    shape (``discretize``'s weights, 0 where it drops an atom), and |z|."""

    weights: np.ndarray
    norms: np.ndarray
    step: float
    n: int


def _node_grid(mu: DensityMeasure, radius: float, step: float) -> _NodeGrid:
    axes = [cube_axis(radius, step)] * (2 * mu.n)
    pts = grid_points(axes)
    shape = tuple(ax.size for ax in axes)
    return _NodeGrid(weights=(mu.density(pts) * step ** (2 * mu.n)).reshape(shape),
                     norms=np.linalg.norm(pts, axis=1).reshape(shape), step=step, n=mu.n)


def _ball_step(radius: float, n: int, step_cap: Optional[float],
               mu: Optional["DensityMeasure"] = None) -> float:
    h = 2.0 * radius / _BALL_CELLS[n]
    if step_cap is not None:
        h = min(h, step_cap)
    if mu is not None and mu.kind == "ring":
        h = min(h, mu.ring_width / 4.0)
    return h


def ball_mass(mu: Measure, center, radius: float) -> float:
    """mu(B(center, radius)), the strict Euclidean ball; see ``ball_mass_many``."""
    return float(ball_mass_many(mu, center, radius)[0])


# Block sizes bound the temporaries, and with them peak memory: candidate
# (centre, atom or node) pairs per block, and stencil points per centre block.
_PAIR_BUDGET = 250_000
_ATOM_BLOCK = (1_000, 100_000)
_STENCIL_BUDGET = 20_000


def _node_ball_masses(grid: _NodeGrid, cs: np.ndarray, radius: float) -> np.ndarray:
    """Strict ball masses of a node grid, gathered from one stencil of node
    offsets around each centre's nearest node. |z - c| is summed as
    ``np.linalg.norm`` sums it, so a node is inside exactly when its atom
    from ``discretize`` is."""
    h, n = grid.step, grid.n
    cells = grid.weights.shape[0]
    reach = math.ceil(radius / h + 0.5)
    span = 2 * reach + 1
    offs = np.indices((span,) * (2 * n)).reshape(2 * n, -1).T
    # the offsets whose cell can meet the ball, the radius padded like the
    # kd-tree search's
    gap = np.linalg.norm(np.maximum(np.abs(offs - reach) - 0.5, 0.0), axis=1) * h
    offs = offs[gap < radius * (1.0 + 1e-12)]
    padded = np.pad(grid.weights, reach)
    xs = cell_axis(cells + 2 * reach, h)
    real = to_real(cs)
    # the stencil starts reach nodes below the nearest node; off the grid,
    # below the edge node, whose stencil still holds the ball
    first = np.clip(np.rint((real - xs[reach]) / h), 0, cells - 1).astype(int)
    start = np.ravel_multi_index(tuple(first.T), padded.shape)
    step = np.ravel_multi_index(tuple(offs.T), padded.shape)
    pair = (offs[:, 0::2] * span + offs[:, 1::2]).T
    out = np.empty(cs.shape[0])
    chunk = max(1, _PAIR_BUDGET // offs.shape[0])
    for lo in range(0, cs.shape[0], chunk):
        blk = slice(lo, lo + chunk)
        # |z_j - c_j|^2 of each complex coordinate over its span x span offsets
        diff = xs[first[blk, :, None] + np.arange(span)] - real[blk, :, None]
        zj = diff[:, 0::2, :, None] + 1j * diff[:, 1::2, None, :]
        sq = (zj.conj() * zj).real.reshape(-1, n, span * span)
        d2 = sq[:, np.arange(n)[:, None], pair].sum(axis=1)
        wts = padded.ravel()[start[blk, None] + step]
        out[blk] = np.where(np.sqrt(d2) < radius, wts, 0.0).sum(axis=1)
    return out


def ball_mass_many(mu: Union[Measure, _NodeGrid], centers: np.ndarray,
                   radius: float) -> np.ndarray:
    """Ball masses mu(B(c, radius)) of strict Euclidean balls at centers (N, n).

    Atomic measures are summed exactly: the atoms are walked in blocks
    whose candidate (centre, atom) pairs come from a kd-tree over the
    centres, and a density's node grid by a stencil gather. Densities are
    integrated on a cell-centre stencil over the bounding cube of each
    ball, with step from ``_ball_step``; cells crossing the boundary
    sphere contribute fractionally, with the covered fraction taken linear
    in the signed distance across one cell width.
    """
    cs = np.asarray(centers, dtype=complex).reshape(-1, mu.n)
    out = np.zeros(cs.shape[0])
    if cs.shape[0] == 0:
        return out
    if isinstance(mu, _NodeGrid):
        return _node_ball_masses(mu, cs, radius)
    if isinstance(mu, AtomicMeasure):
        tree = cKDTree(to_real(cs))
        real = to_real(mu.locations)
        lo, block = 0, _ATOM_BLOCK[0]
        while lo < len(mu):
            # the padded radius keeps every pair the strict test below accepts
            pairs = cKDTree(real[lo:lo + block]).sparse_distance_matrix(
                tree, radius * (1.0 + 1e-12), output_type="ndarray")
            i, j = pairs["i"] + lo, pairs["j"]
            inside = np.linalg.norm(mu.locations[i] - cs[j], axis=1) < radius
            out += np.bincount(j[inside], weights=mu.weights[i[inside]],
                               minlength=out.size)
            lo += block
            # size the next block from this block's pairs per atom
            block = int(np.clip(_PAIR_BUDGET * block // max(pairs.size, 1), *_ATOM_BLOCK))
        return out
    n = mu.n
    h = _ball_step(radius, n, None, mu)
    off = to_real(grid_points([cube_axis(radius, h)] * (2 * n)))
    # cells at distance radius + h/2 or more have a covered fraction of 0
    off = off[np.linalg.norm(off, axis=1) < radius + h]
    chunk = max(1, _STENCIL_BUDGET // off.shape[0])
    for lo in range(0, cs.shape[0], chunk):
        c = cs[lo:lo + chunk]
        pts = to_complex(to_real(c)[:, None, :] + off)
        frac = np.clip((radius - np.linalg.norm(pts - c[:, None, :], axis=2)) / h + 0.5,
                       0.0, 1.0)
        dens = mu.density(pts.reshape(-1, n)).reshape(frac.shape)
        out[lo:lo + chunk] = (dens * frac).sum(axis=1) * h ** (2 * n)
    return out


# averaging_sequence, berezin_value, sequence_lp and ball_mass have no library
# caller (carleson reads these objects in bulk): tests use them as references,
# and perfbench's tracer looks up averaging_sequence by name.
def averaging_sequence(mu: Measure, lat, r: float, s: float) -> np.ndarray:
    """Averaging-function values mu(B(c, r)) / (1 + |c|)^s at the lattice centers."""
    centers = lat.as_complex()
    mass = ball_mass_many(mu, centers, r)
    return mass / (1.0 + np.linalg.norm(centers, axis=1)) ** s


def _gaussian(x: np.ndarray, r: np.ndarray, c: float) -> np.ndarray:
    """exp(-c |x_i - r_j|^2) between real coordinate rows x (P, d) and r (N, d)."""
    d2 = np.zeros((x.shape[0], r.shape[0]))
    diff = np.empty_like(d2)
    for k in range(x.shape[1]):
        np.subtract.outer(x[:, k], r[:, k], out=diff)
        d2 += np.square(diff, out=diff)
    return np.exp(np.multiply(d2, -c, out=d2), out=d2)


def _khatri_rao(factors: list) -> np.ndarray:
    """Row-wise Khatri-Rao product (L_1 ... L_k, N) of factors (L_i, N), ij order."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, f.shape[1])
    return out


def _node_index(axes, real: np.ndarray) -> Optional[np.ndarray]:
    """Flat grid index of every atom if all sit on grid nodes, else None."""
    idx = []
    for k, ax in enumerate(axes):
        i = np.minimum(np.searchsorted(ax, real[:, k]), ax.size - 1)
        if not np.array_equal(ax[i], real[:, k]):
            return None
        idx.append(i)
    return np.ravel_multi_index(tuple(idx), [ax.size for ax in axes])


def _gauss_transform(mu: Union[AtomicMeasure, _NodeGrid], c: float, s: float,
                     where) -> np.ndarray:
    """Exact transform w -> sum_j mu_j (1 + |z_j|)^{-s} exp(-c |w - z_j|^2).

    ``where`` is either a complex (P, n) array of points, giving P values,
    or the 2n real axes of a tensor grid, giving values in the grid's
    shape, ij-ordered like ``grid.grid_points``. On a grid the Gaussian
    factors over the real axes. Weights on the grid's nodes are contracted
    axis by axis: a node grid (``_node_grid``) read on its own axes, and
    atoms that all sit on nodes (the pullback through a map that takes
    its z-grid onto the w-grid). Any other atoms go through the matrix
    product (A_1 .. A_n) diag(mu) (A_n+1 .. A_2n)^T of the per-axis
    factors A_k[i, j] = exp(-c (x_k,i - z_j,k)^2), with each group of n
    combined by a row-wise Khatri-Rao product.
    """
    if isinstance(mu, _NodeGrid):
        return _contract(mu.weights * (1.0 + mu.norms) ** (-s), c, where)
    n = mu.n
    real = to_real(mu.locations)
    dw = mu.weights * (1.0 + np.linalg.norm(mu.locations, axis=1)) ** (-s)
    budget = 4_000_000  # elements in one temporary pair block
    if isinstance(where, np.ndarray):
        x = to_real(where.reshape(-1, n))
        out = np.zeros(x.shape[0])
        chunk = max(1, budget // max(len(mu), 1))
        for lo in range(0, x.shape[0], chunk):
            out[lo:lo + chunk] = _gaussian(x[lo:lo + chunk], real, c) @ dw
        return out
    shape = tuple(ax.size for ax in where)
    nodes = _node_index(where, real)
    if nodes is not None:
        dense = np.bincount(nodes, weights=dw, minlength=math.prod(shape))
        return _contract(dense.reshape(shape), c, where)
    rows = (math.prod(shape[:n]), math.prod(shape[n:]))
    out = np.zeros(rows)
    chunk = max(1, budget // max(rows))
    for lo in range(0, len(mu), chunk):
        part = slice(lo, lo + chunk)
        fac = [_gaussian(ax[:, None], real[part, k:k + 1], c) for k, ax in enumerate(where)]
        out += (_khatri_rao(fac[:n]) * dw[part]) @ _khatri_rao(fac[n:]).T
    return out.reshape(shape)


def _contract(out: np.ndarray, c: float, axes) -> np.ndarray:
    """The grid transform of damped weights on the grid's own nodes."""
    for k, ax in enumerate(axes):
        factor = _gaussian(ax[:, None], ax[:, None], c)
        out = np.moveaxis(np.tensordot(factor, out, axes=(1, k)), 0, k)
    return out


def berezin_value(mu: AtomicMeasure, w, t: float, s: float, alpha: float) -> float:
    """int exp(-t alpha |z - w|^2 / 2) (1 + |z|)^{-s} dmu(z), atomic mu."""
    wv = np.asarray(w, dtype=complex).reshape(1, mu.n)
    return float(_gauss_transform(mu, t * alpha / 2.0, s, wv)[0])


def sequence_lp(values: np.ndarray, k: float) -> float:
    """l^k size of a nonnegative sequence; k = inf takes the supremum."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0
    if math.isinf(k):
        return float(np.max(v))
    if k < 1:
        raise QuasiNormError(f"sequence exponent {k} is below 1")
    return float(np.sum(v ** k) ** (1.0 / k))


def total_weighted_mass(mu: Measure, s: float, radius: float,
                        step_cap: Optional[float] = None) -> float:
    """int_{|z| <= radius} (1 + |z|)^{-s} dmu(z), truncated at the radius.

    A density is summed over its discretisation on the cube of the radius.
    """
    if isinstance(mu, DensityMeasure):
        mu = discretize(mu, radius, _ball_step(radius, mu.n, step_cap, mu))
    r = np.linalg.norm(mu.locations, axis=1)
    keep = r <= radius
    return float(np.sum(mu.weights[keep] * (1.0 + r[keep]) ** (-s)))
