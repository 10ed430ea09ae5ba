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

from .compop import AffineMap, PolynomialMap, SymbolPair, linear_symbol_check, one
from .funcspace import Params, Polynomial, kernel, polynomial
from .geometry import make_lattice
from .measures import (
    AtomicMeasure,
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


@dataclass(frozen=True)
class MeasureScenario:
    name: str
    measure: Measure
    expect_carleson: bool
    expect_vanishing: Optional[bool]
    description: str


def _scale(n: int, factor: complex) -> AffineMap:
    return AffineMap(factor * np.eye(n))


def _affine_expectation(psi: AffineMap, u, params: Params) -> tuple:
    """(bounded, compact) of an affine scenario, from linear_symbol_check.

    The zero weight gives the zero operator. Below the diagonal, a
    sup-norm source included, bounded means compact.
    """
    if isinstance(u, Polynomial) and u.is_zero():
        return True, True
    chk = linear_symbol_check(psi.matrix, psi.offset)
    if params.p > params.q:
        return chk["admissible_compact"], chk["admissible_compact"]
    return chk["admissible_bounded"], chk["admissible_compact"]


def composition_suite(params: Params) -> list:
    """Eight symbol pairs spanning the boundedness/compactness map.

    The affine scenarios take their expectations from the affine rule;
    only the quadratic symbol's are set by hand.
    """
    n = params.n
    e1 = np.concatenate([[1.0], np.zeros(n - 1)])
    affine = [
        ("identity", _scale(n, 1.0), one(n), "unit symbol: the embedding itself"),
        ("contraction", _scale(n, 0.5), one(n),
         "strict contraction: operator norm below one"),
        ("rotation", _scale(n, np.exp(1j * math.pi / 4.0)), one(n),
         "isometry: never compact"),
        ("expansion", _scale(n, 2.0), one(n),
         "expanding symbol: transform grows without bound"),
        ("translation", AffineMap(np.eye(n), e1), one(n),
         "unit shift: isometric part moves the offset"),
        ("zero-weight", _scale(n, 1.0), polynomial({}, n),
         "vanishing weight: the zero operator"),
        ("damped-contraction", _scale(n, 0.5), kernel(e1, n=n),
         "kernel weight over a contraction: still compact"),
    ]
    if n == 2:
        affine.append(("swap", AffineMap(np.array([[0.0, 1.0], [1.0, 0.0]])),
                       one(2), "coordinate swap: a unitary symbol"))
    scenarios = [
        CompOpScenario(name, SymbolPair(psi=psi, u=u),
                       *_affine_expectation(psi, u, params), description)
        for name, psi, u, description in affine
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
    if isinstance(mu, AtomicMeasure):
        return True
    if mu.kind == "power-gaussian":
        raise ValueError("no catalog expectation for a power-gaussian density")
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
