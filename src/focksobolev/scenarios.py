"""Curated symbol pairs and measures with their expected verdicts.

The composition suite walks the qualitative map of the affine theory:
isometries that are never compact (and bounded only at or above the
diagonal), strict contractions that are compact, translations and
expansions that break boundedness, a quadratic symbol outside the
affine classification, and weights that switch the verdict on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .compop import AffineMap, PolynomialMap, SymbolPair, one
from .funcspace import Params, kernel, polynomial
from .geometry import make_lattice
from .measures import (
    Measure,
    atoms_on_lattice,
    gaussian,
    lebesgue,
    polygrowth,
)


@dataclass(frozen=True)
class CompOpScenario:
    name: str
    symbol: SymbolPair
    expect_bounded: bool
    expect_compact: bool
    description: str
    outside_affine: bool = False


@dataclass(frozen=True)
class MeasureScenario:
    name: str
    measure: Measure
    expect_carleson: bool
    expect_vanishing: Optional[bool]
    description: str


def _scale(n: int, factor: complex) -> AffineMap:
    return AffineMap(factor * np.eye(n), np.zeros(n))


def composition_suite(params: Params) -> list:
    """Eight symbol pairs spanning the boundedness/compactness map."""
    n = params.n
    rot = _scale(n, np.exp(1j * math.pi / 4.0))
    # below the diagonal (p > q, p = inf included) bounded means compact,
    # which no isometry is
    iso_bounded = not params.p > params.q
    scenarios = [
        CompOpScenario(
            name="identity",
            symbol=SymbolPair(psi=_scale(n, 1.0), u=one(n)),
            expect_bounded=iso_bounded,
            expect_compact=False,
            description="unit symbol: the embedding itself",
        ),
        CompOpScenario(
            name="contraction",
            symbol=SymbolPair(psi=_scale(n, 0.5), u=one(n)),
            expect_bounded=True,
            expect_compact=True,
            description="strict contraction: operator norm below one",
        ),
        CompOpScenario(
            name="rotation",
            symbol=SymbolPair(psi=rot, u=one(n)),
            expect_bounded=iso_bounded,
            expect_compact=False,
            description="isometry: never compact",
        ),
        CompOpScenario(
            name="expansion",
            symbol=SymbolPair(psi=_scale(n, 2.0), u=one(n)),
            expect_bounded=False,
            expect_compact=False,
            description="expanding symbol: transform grows without bound",
        ),
        CompOpScenario(
            name="translation",
            symbol=SymbolPair(
                psi=AffineMap(np.eye(n), np.concatenate([[1.0], np.zeros(n - 1)])),
                u=one(n),
            ),
            expect_bounded=False,
            expect_compact=False,
            description="unit shift: isometric part moves the offset",
        ),
        CompOpScenario(
            name="zero-weight",
            symbol=SymbolPair(psi=_scale(n, 1.0), u=polynomial({}, n)),
            expect_bounded=True,
            expect_compact=True,
            description="vanishing weight: the zero operator",
        ),
        CompOpScenario(
            name="damped-contraction",
            symbol=SymbolPair(
                psi=_scale(n, 0.5),
                u=kernel(np.concatenate([[1.0], np.zeros(n - 1)]), n=n),
            ),
            expect_bounded=True,
            expect_compact=True,
            description="kernel weight over a contraction: still compact",
        ),
    ]
    if n == 1:
        square = PolynomialMap(components=(polynomial({(2,): 1.0}, 1),))
        scenarios.append(
            CompOpScenario(
                name="square",
                symbol=SymbolPair(psi=square, u=one(1)),
                expect_bounded=False,
                expect_compact=False,
                description="quadratic symbol: diverging z-integral",
                outside_affine=True,
            )
        )
    else:
        swap = AffineMap(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        scenarios.append(
            CompOpScenario(
                name="swap",
                symbol=SymbolPair(psi=swap, u=one(2)),
                expect_bounded=iso_bounded,
                expect_compact=False,
                description="coordinate swap: a unitary symbol",
            )
        )
    return scenarios


def expected_measure_verdict(mu: Measure, params: Params) -> bool:
    """Analytic boundedness expectation for the catalog measures.

    Atomic, Gaussian and ring measures embed for every admissible pair.
    A density growing like (1+|z|)^a faces the damped exponent a - mq:
    nonpositive growth suffices at or above the diagonal, while below it
    (and for a sup-norm source) the k-th power must be integrable.
    """
    from .measures import AtomicMeasure

    if isinstance(mu, AtomicMeasure):
        return True
    if mu.kind in ("gaussian", "ring") or mu.scale == 0:
        return True
    power = mu.power if mu.kind == "polygrowth" else 0.0
    p, q, n = params.p, params.q, params.n
    net = power - params.m * q
    if math.isinf(q):
        raise ValueError("expectations need a finite target exponent")
    if math.isinf(p):
        k = 1.0
    elif p <= q:
        return net <= 1e-12
    else:
        k = p / (p - q)
    return net * k < -2 * n - 1e-12


def measure_suite(n: int) -> list:
    """Reference measures; expectations of None follow expected_measure_verdict."""
    lat = make_lattice(4.0 if n == 1 else 3.0, 1.0, n)
    out = [
        MeasureScenario(
            name="lattice-atoms",
            measure=atoms_on_lattice(lat),
            expect_carleson=True,
            expect_vanishing=True,
            description="finitely many unit atoms on a separated lattice",
        ),
        MeasureScenario(
            name="gaussian",
            measure=gaussian(1.0, n),
            expect_carleson=True,
            expect_vanishing=True,
            description="Gaussian density: decays faster than any criterion needs",
        ),
        MeasureScenario(
            name="lebesgue",
            measure=lebesgue(n),
            expect_carleson=None,
            expect_vanishing=None,
            description="volume itself: below the diagonal it embeds only with damping",
        ),
        MeasureScenario(
            name="polygrowth",
            measure=polygrowth(2.0, n),
            expect_carleson=None,
            expect_vanishing=None,
            description="quadratic growth: verdict depends on the damping order",
        ),
    ]
    return out
