"""Tensor grids on C^n = R^{2n}, real coordinates interleaved as
(Re z1, Im z1, Re z2, Im z2). A grid is given by its 2n real axes and its
points are laid out in ij order, the last axis varying fastest.
``pattern_search`` is the one local maximiser.
``directions`` is the one set of unit directions that radial profiles
and probe centres scan; ``eight_directions`` is the sparser eight of
them that kernel centres and envelope fits sample.
``leggauss`` is the one cache of Gauss-Legendre nodes.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

# Gauss-Legendre nodes and weights on [-1, 1] by node count, for every rule
# that needs them; the arrays are shared, so callers never write to them.
# leggauss runs an eigensolver: the nodes are built on first use, not at
# import.
leggauss = functools.cache(np.polynomial.legendre.leggauss)


def cell_axis(cells: int, step: float) -> np.ndarray:
    """Centres of ``cells`` cells of width ``step``, symmetric about zero."""
    return (np.arange(cells) - cells / 2.0 + 0.5) * step


def cube_axis(radius: float, step: float) -> np.ndarray:
    """Cell centres covering [-radius, radius] with whole cells of width step."""
    return cell_axis(2 * math.ceil(radius / step), step)


def to_real(pts: np.ndarray) -> np.ndarray:
    """Complex points (N, n) as interleaved real coordinates (N, 2n)."""
    return np.stack([pts.real, pts.imag], axis=-1).reshape(pts.shape[0], 2 * pts.shape[1])


def to_complex(xy: np.ndarray) -> np.ndarray:
    """Interleaved real coordinates (..., 2n) as complex points (..., n)."""
    return xy[..., 0::2] + 1j * xy[..., 1::2]


def directions(n: int) -> list:
    """Unit vectors (n,): 16 angles k pi/8 at n = 1, eight at n = 2."""
    if n == 1:
        return [np.array([np.exp(1j * k * math.pi / 8.0)]) for k in range(16)]
    s = 1.0 / math.sqrt(2.0)
    raw = [
        [1.0, 0.0], [0.0, 1.0], [s, s], [1j, 0.0],
        [0.0, 1j], [s, s * 1j], [s * 1j, s], [s, -s],
    ]
    return [np.array(d, dtype=complex) for d in raw]


def eight_directions(n: int) -> list:
    """Eight of :func:`directions`: every other one at n = 1, all at n = 2."""
    return directions(n)[::2] if n == 1 else directions(n)


def grid_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Complex points (N, n) of the tensor grid on the 2n real axes, ij order."""
    xy = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)
    return xy.reshape(-1, len(axes)).view(complex)  # (Re, Im) pairs read as complex


def centred_grid(radius: float, cells: int, n: int) -> tuple:
    """Points (cells^{2n}, n) of the cube of half-width radius, and the step."""
    step = 2.0 * radius / cells
    return grid_points([cell_axis(cells, step)] * (2 * n)), step


def pattern_search(evaluate: Callable[[np.ndarray], np.ndarray], at: np.ndarray,
                   best: np.ndarray, step: float, stop: float) -> tuple:
    """Climb from the start points at (complex (S, n)) with values best (S,).

    Each round makes one evaluate call on the 3^{2n} - 1 neighbours of
    every live start, at its step along each real axis and diagonal. A
    start moves to its best neighbour if that is larger and halves its
    step otherwise; it stops once the step is below stop.

    Returns (value, complex point (n,)) of the best start.
    """
    n = at.shape[1]
    at, best, steps = at.copy(), best.copy(), np.full(len(at), float(step))
    moves = np.delete(grid_points([np.array([-1.0, 0.0, 1.0])] * (2 * n)), 3 ** (2 * n) // 2, 0)
    while (live := np.flatnonzero(steps >= stop)).size:
        trial = at[live, None] + steps[live, None, None] * moves
        tv = np.asarray(evaluate(trial.reshape(-1, n)), dtype=float).reshape(len(live), -1)
        k = np.argmax(tv, axis=1)
        up = tv[np.arange(len(live)), k] > best[live]
        at[live[up]], best[live[up]] = trial[up, k[up]], tv[up, k[up]]
        steps[live[~up]] /= 2.0
    i = int(np.argmax(best))
    return float(best[i]), at[i]
