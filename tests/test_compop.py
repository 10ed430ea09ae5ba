import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import focksobolev as fs
from focksobolev import compop
from focksobolev.carleson import EXPANSION, GROWTH_TOL, STAGE_RADIUS, stage_grew
from focksobolev.grid import directions, to_real
from focksobolev.measures import _gauss_transform


def test_identity_bounded_not_compact(params_m0):
    v = fs.classify_compop(fs.identity_symbol(1), params_m0)
    assert v.bounded
    assert not v.compact
    assert not v.divergent


def test_contraction_compact(params_m0):
    sym = fs.affine_symbol([[0.5]])
    v = fs.classify_compop(sym, params_m0)
    assert v.bounded
    assert v.compact


def test_rotation_bounded_not_compact(params_m0):
    theta = 0.7
    sym = fs.affine_symbol([[complex(math.cos(theta), math.sin(theta))]])
    v = fs.classify_compop(sym, params_m0)
    assert v.bounded
    assert not v.compact


def test_expansion_unbounded(params_m0):
    v = fs.classify_compop(fs.affine_symbol([[2.0]]), params_m0)
    assert not v.bounded
    assert v.divergent
    assert math.isinf(v.norm_estimate)


def test_translation_unbounded(params_m0):
    v = fs.classify_compop(fs.affine_symbol([[1.0]], [1.0]), params_m0)
    assert not v.bounded


def test_zero_weight_trivial(params_m0):
    sym = fs.affine_symbol([[0.0]], None, fs.polynomial({}, 1))
    v = fs.classify_compop(sym, params_m0)
    assert v.bounded
    assert v.compact
    assert v.norm_estimate == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_zero_weight_builds_no_grid(monkeypatch, n):
    """The zero weight's transform is 0 and its pullback empty; neither
    builds a z-grid or evaluates the weight, at m > 0 too."""
    def refuse(*args, **kwargs):
        raise AssertionError("the zero weight built a grid")

    for fn in ("centred_grid", "log_abs", "norm_integrand_field"):
        monkeypatch.setattr(compop, fn, refuse)
    P = fs.Params(n=n, alpha=1.0, m=1, p=4.0, q=2.0)
    zero = fs.affine_symbol(np.eye(n), None, fs.polynomial({}, n))
    at = compop._log_transform_at(zero, P, P.q)
    assert at(np.zeros(n))[0] == -math.inf
    assert np.array_equal(at(np.full((3, n), 2.0 + 1.0j)), np.full(3, -math.inf))
    mu = compop.pullback_measure(zero, P)
    assert len(mu) == 0 and mu.locations.shape == (0, n)


def test_polynomial_symbol_flagged(params_m0):
    sq = fs.polynomial({(2,): 1.0}, 1)
    sym = fs.SymbolPair(fs.PolynomialMap((sq,)), fs.one(1))
    v = fs.classify_compop(sym, params_m0)
    assert not v.bounded
    assert any("outside" in note for note in v.notes)


def test_degree_one_polynomial_symbol_is_affine(params_m0):
    """A polynomial map of degree <= 1 becomes the same affine map: equal
    values, and at n = 1 the verdict of the matrix form (a fixed z-grid
    about the origin called psi = z/2 unbounded)."""
    comps = (fs.polynomial({(1, 0): 0.5, (0, 1): 0.25j, (0, 0): 0.1}, 2),
             fs.polynomial({(0, 1): -0.3}, 2))
    sym = fs.SymbolPair(fs.PolynomialMap(comps), fs.one(2))
    assert sym.is_affine
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    np.testing.assert_allclose(sym.psi.apply(pts), fs.PolynomialMap(comps).apply(pts),
                               rtol=1e-15, atol=1e-15)
    # its offset, a column of the coefficients, is kept as a contiguous copy
    P2 = fs.Params(n=2, alpha=1.0, m=0, p=2.0, q=2.0)
    assert np.isfinite(fs.log_berezin_compop(sym, P2, np.array([1.0, 0.5j])))
    half = fs.SymbolPair(fs.PolynomialMap((fs.polynomial({(1,): 0.5}, 1),)), fs.one(1))
    assert fs.classify_compop(half, params_m0) == fs.classify_compop(
        fs.affine_symbol([[0.5]]), params_m0)


def test_linear_symbol_check_witnesses():
    chk = fs.linear_symbol_check([[1.0]], [1.0])
    assert chk["op_norm"] == pytest.approx(1.0)
    assert not chk["admissible_bounded"]
    assert chk["offset_overlap"] == pytest.approx(1.0)
    ok = fs.linear_symbol_check([[0.5]], [3.0])
    assert ok["admissible_bounded"]
    assert ok["admissible_compact"]


def test_contraction_transform_closed_form(params_m0):
    """For psi = z/2 with unit weight the smoothed criterion is
    pi * exp(-3|w|^2 / 4) at alpha = 1, q = 2."""
    sym = fs.affine_symbol([[0.5]])
    for w, expect in [(0.0, math.pi), (2.0, math.pi * math.exp(-3.0))]:
        val = math.exp(fs.log_berezin_compop(sym, params_m0, np.array([w + 0.0j])))
        assert abs(val - expect) / expect < 1e-6


def test_transform_profile_shapes(params_m0):
    radii, logs, divergent = fs.transform_profile(fs.affine_symbol([[0.5]]), params_m0)
    assert len(radii) == len(logs) == 31
    assert radii[-1] == EXPANSION * STAGE_RADIUS[1]
    assert not divergent
    assert logs[-1] < logs[0]


def test_weight_profile_decay(params_m0):
    sym = fs.affine_symbol([[0.5]], None, fs.kernel([1.0 + 0.0j], n=1))
    radii, logs = fs.weight_profile(sym, params_m0)
    assert len(radii) == len(logs) == 40
    assert logs[-1] < logs[0]


def test_direct_norm_identity_exact(params_m0):
    assert fs.direct_operator_norm(fs.identity_symbol(1), params_m0) == 1.0


def test_direct_norm_contraction(params_m0):
    val = fs.direct_operator_norm(fs.affine_symbol([[0.5]]), params_m0)
    assert val == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("m", [0, 1])
def test_direct_norm_identity_exact_n2(m):
    """The identity's image field is f's own, so every probe ratio is 1."""
    P = fs.Params(n=2, alpha=1.0, m=m, p=2.0, q=2.0)
    assert fs.direct_operator_norm(fs.identity_symbol(2), P) == 1.0


@pytest.mark.parametrize("n,p,q,name,expect", [
    (1, math.inf, 2.0, "contraction", 1.0),
    (1, 2.0, math.inf, "identity", 1.0),
    (1, math.inf, 2.0, "translation", math.exp(3.0)),
    (2, 2.0, 2.0, "rotation", 1.0),
])
def test_direct_norm_pinned(n, p, q, name, expect):
    """Exact probe maxima at m = 0, where a unit kernel has norm 1 for every
    exponent. Under z/2, k_0 = 1 keeps its norm from p = inf to q = 2; the
    point bound |f(z)| e^{-|z|^2/2} <= ||f||_2 is sharp on kernels; z + 1
    takes k_w to e^{<1, w>} k_w, largest at the probe centre w = 3; and a
    unitary map is an isometry."""
    P = fs.Params(n=n, alpha=1.0, m=0, p=p, q=q)
    sym = next(sc.symbol for sc in fs.composition_suite(P) if sc.name == name)
    assert fs.direct_operator_norm(sym, P) == pytest.approx(expect, abs=1e-9)


def test_essential_norm_compact_case(params_m0):
    val = fs.essential_norm_estimate(fs.affine_symbol([[0.5]]), params_m0)
    assert val <= 1e-3


def test_essential_norm_requires_valid_exponents():
    P = fs.Params(n=1, alpha=1.0, m=0, p=1.0, q=2.0)
    with pytest.raises(ValueError):
        fs.essential_norm_estimate(fs.identity_symbol(1), P)


def test_pullback_transform_identity(params_m0):
    """The pulled-back measure reproduces the operator transform."""
    sym = fs.affine_symbol([[0.5]])
    lam = fs.pullback_measure(sym, params_m0)
    for w in (0.0 + 0.0j, 1.0 + 0.5j):
        a = _gauss_transform(lam, params_m0.q * params_m0.alpha / 2.0, 0.0, np.array([[w]]))[0]
        b = math.exp(fs.log_berezin_compop(sym, params_m0, np.array([w])))
        assert abs(a - b) / b < 1e-3


def test_pullback_measure_overflow_guard():
    """A weight exponent past the float range raises: here the unnormalised
    kernel at centre 100 under psi = z/2 at p = 4, q = 2 reaches 2266."""
    params = fs.Params(n=1, alpha=1.0, m=0, p=4.0, q=2.0)
    sym = fs.affine_symbol([[0.5]], u=fs.kernel([100.0], n=1, normalized=False))
    with pytest.raises(fs.EvaluationOverflow, match="exponent 2266 exceeds 700"):
        fs.pullback_measure(sym, params)


def test_classify_compop_raises_on_an_overflowing_pullback():
    """The overflow is not a verdict: by the affine rule (|A| = 0.5) this
    operator is compact, so reading the overflow as divergence was wrong."""
    params = fs.Params(n=1, alpha=1.0, m=0, p=4.0, q=2.0)
    sym = fs.affine_symbol([[0.5]], u=fs.kernel([100.0], n=1, normalized=False))
    assert fs.linear_symbol_check([[0.5]], None)["admissible_compact"]
    with pytest.raises(fs.EvaluationOverflow, match="exponent 2266 exceeds 700"):
        fs.classify_compop(sym, params)


def test_pullback_consistency_contraction(params_m0):
    sym = fs.affine_symbol([[0.5]])
    op = fs.classify_compop(sym, params_m0)
    lam = fs.pullback_measure(sym, params_m0)
    emb = fs.classify_carleson(lam, params_m0, t=params_m0.q, stage_radius=6.0)
    assert op.bounded == emb.is_carleson


@pytest.mark.parametrize("n", [1, 2])
def test_pullback_covers_outer_stage(n):
    """The pullback's z-cube holds the preimage A^-1(w - b) of every point
    w = EXPANSION * STAGE_RADIUS * d, d a profile direction, on the outer
    classification stage, for each affine suite symbol with a nonzero
    weight and no singular value below one; a truncated atom cloud would
    read as decay there. The tightest cases, the n = 2 identity,
    translation and swap, reach 6.0 against the radius 7.0."""
    P = fs.Params(n=n, alpha=1.0, m=1, p=4.0, q=2.0)
    T2 = EXPANSION * STAGE_RADIUS[n]
    checked = set()
    for sc in fs.composition_suite(P):
        sym = sc.symbol
        if not sym.is_affine or (isinstance(sym.u, fs.Polynomial) and sym.u.is_zero()):
            continue
        A, b = sym.psi.matrix, sym.psi.offset
        if np.linalg.svd(A, compute_uv=False)[-1] < 1.0 - 1e-12:
            continue
        checked.add(sc.name)
        radius, _ = compop._pullback_geometry(sym, n)
        pre = np.array([np.linalg.solve(A, T2 * d - b) for d in directions(n)])
        assert np.max(np.abs(to_real(pre))) <= radius, sc.name
    expected = {"identity", "rotation", "expansion", "translation"}
    assert checked == (expected | {"swap"} if n == 2 else expected)


def test_probe_family_nonempty(params_m0):
    fam = fs.probe_family(params_m0, seed=1)
    assert len(fam) > 0
    for name, f in fam:
        assert name
        norm = fs.fock_sobolev_norm(f, params_m0)
        assert 0.0 < norm < math.inf


def test_mixed_exponent_identity_unbounded():
    P = fs.Params(n=1, alpha=1.0, m=0, p=4.0, q=2.0)
    v = fs.classify_compop(fs.identity_symbol(1), P)
    assert not v.bounded


def test_sup_target_identity_bounded():
    P = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=math.inf)
    v = fs.classify_compop(fs.identity_symbol(1), P)
    assert v.bounded
    assert not v.compact


def test_suite_expectations_match(params_m0):
    for sc in fs.composition_suite(params_m0):
        v = fs.classify_compop(sc.symbol, params_m0)
        assert v.bounded == sc.expect_bounded, sc.name
        assert v.compact == sc.expect_compact, sc.name


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
def test_suite_expectations_follow_affine_rule(n, p):
    """Expected verdicts of the affine scenarios against linear_symbol_check.

    At or above the diagonal the admissibility flags decide; below it,
    a sup-norm source included, bounded and compact coincide and need
    operator norm below one. The zero weight gives the zero operator.
    """
    P = fs.Params(n=n, alpha=1.0, m=0, p=p, q=2.0)
    for sc in fs.composition_suite(P):
        if not sc.symbol.is_affine:
            continue
        chk = fs.linear_symbol_check(sc.symbol.psi.matrix, sc.symbol.psi.offset)
        zero = isinstance(sc.symbol.u, fs.Polynomial) and sc.symbol.u.is_zero()
        compact = zero or chk["admissible_compact"]
        bounded = compact if p > P.q else zero or chk["admissible_bounded"]
        assert (sc.expect_bounded, sc.expect_compact) == (bounded, compact), sc.name


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=-1.5, max_value=1.5),
    b=st.floats(min_value=-1.5, max_value=1.5),
    c=st.floats(min_value=-1.5, max_value=1.5),
    d=st.floats(min_value=-1.5, max_value=1.5),
)
def test_linear_check_matches_svd(a, b, c, d):
    mat = np.array([[a, b], [c, d]])
    chk = fs.linear_symbol_check(mat, [0.0, 0.0])
    expect = float(np.linalg.svd(mat, compute_uv=False)[0])
    assert chk["op_norm"] == pytest.approx(expect, abs=1e-12)
    assert chk["admissible_bounded"] == (expect <= 1.0 + 1e-8)
    assert chk["admissible_compact"] == (expect < 1.0 - 1e-8)
    if chk["admissible_compact"]:
        assert chk["admissible_bounded"]


@settings(max_examples=15, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=0.9))
def test_scalar_contractions_compact(scale):
    chk = fs.linear_symbol_check([[scale]], [0.0])
    assert chk["admissible_compact"]


def _profile_and_cells(sym, params):
    """transform_profile's output and the z-cells of its grid."""
    return fs.transform_profile(sym, params), compop._Z_CELLS[params.n]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [0, 1])
def test_profile_reads_the_probe_grid(n, m):
    """The profile at w = 0 is log_berezin_compop's value there, bit for
    bit: both read the same z-grid. Every affine pair of the suite; the
    square's profile reads the enlarged grid once its z-integral grew."""
    P = fs.Params(n=n, alpha=1.0, m=m, p=2.0, q=2.0)
    for sc in fs.composition_suite(P):
        if sc.symbol.is_affine:
            _, logs, _ = fs.transform_profile(sc.symbol, P)
            assert logs[0] == fs.log_berezin_compop(sc.symbol, P, np.zeros(n)), sc.name


def _affine_log_transform(A, b, w, q, alpha, c=None):
    """log B(w) for psi(z) = Az + b at m = 0, with u = 1 (c None) or the
    normalised kernel u = k_c: n log(2 pi/(q alpha))
    + (q alpha/2)(|A* w + c|^2 - |w|^2 - |c|^2) + q alpha Re<b, w>."""
    A = np.asarray(A, dtype=complex)
    c = np.zeros(len(w)) if c is None else np.asarray(c, dtype=complex)
    v = np.conj(A).T @ w + c
    return (len(w) * math.log(2.0 * math.pi / (q * alpha))
            + q * alpha / 2.0 * (np.vdot(v, v).real - np.vdot(w, w).real - np.vdot(c, c).real)
            + q * alpha * np.vdot(w, b).real)


AFFINE_CASES = [
    ([[0.5]], [0.0]),
    ([[np.exp(0.7j)]], [0.0]),
    ([[1.0]], [1.0]),
    ([[2.0]], [0.3 - 0.2j]),
    ([[0.5, 0.0], [0.0, 1.0]], [0.0, 0.0]),
    ([[0.3, 0.2], [-0.1, 0.6]], [0.2, 0.5j]),
]


KERNEL_CENTERS = {1: [None, [1.0 + 0.5j], [-2.0]], 2: [None, [1.0, -0.5j], [0.0, 2.0]]}


@pytest.mark.parametrize("A,b", AFFINE_CASES)
def test_affine_transform_closed_form(A, b):
    """The transform of an affine symbol at m = 0 with u = 1 or a one-kernel
    weight u = k_c completes the square about A*w + c; the z-grid follows
    the weight's envelope to that centre. Measured log errors: at most
    1.4e-13 at n = 1 (128 z-cells in log_berezin_compop and the profile)
    and 1.9e-7 at n = 2 (16 z-cells in both), over alpha in {0.7, 1}, q in
    {2, 3}, these symbols and weights; the tolerances are about four times
    those."""
    n = len(b)
    tol = 5e-13 if n == 1 else 8e-7
    b = np.asarray(b, dtype=complex)
    P = fs.Params(n=n, alpha=0.7, m=0, p=3.0, q=3.0)
    dirs = directions(n)
    for c in KERNEL_CENTERS[n]:
        sym = fs.affine_symbol(A, b, None if c is None else fs.kernel(c, n=n))
        for rho in (0.0, 1.0, EXPANSION * STAGE_RADIUS[n]):
            for d in dirs if rho > 0 else dirs[:1]:
                exact = _affine_log_transform(A, b, rho * d, 3.0, 0.7, c)
                assert abs(fs.log_berezin_compop(sym, P, rho * d) - exact) <= tol
        (radii, logs, _), cells = _profile_and_cells(sym, P)
        assert cells == (128 if n == 1 else 16)
        exact = [max(_affine_log_transform(A, b, r * d, 3.0, 0.7, c) for d in dirs)
                 for r in radii]
        assert np.max(np.abs(logs - exact)) <= tol


def _log_integrand(sym, params, q, w, pts):
    """The log integrand at w on the points, unfolded: the log weight plus
    q a Re<psi(z), w> - q a |w|^2 / 2 less the m > 0 discount, with the
    pairing taken as a complex matmul."""
    psi_v, L, discount = compop._w_free_terms(sym, params, q, pts)
    qa = q * params.alpha
    return L + qa * (psi_v @ np.conj(w)).real - qa * float(np.vdot(w, w).real) / 2.0 - discount


def _per_w_profile(sym, params, radii, cells):
    """The profile from one _log_integrand sum at every w, on the z-grid
    the profile reads: for an affine symbol the cube of the weight's norm
    integrand envelope re-centred at A*w plus its centre, and for a
    non-affine one the fixed cube enlarged by half, whose z-staging is on."""
    n, q = params.n, params.q
    env = fs.norm_integrand_field(sym.u, params, q)
    if sym.is_affine:
        radius = env.tail_radius + env.pad
        shift = np.asarray(env.center or np.zeros(n), dtype=complex)
    else:
        radius, cells = 1.5 * compop._POLY_Z_RADIUS[n], int(round(1.5 * cells))
    offs, h = compop.centred_grid(radius, cells, n)
    dirs = directions(n)
    out = []
    for rho in radii:
        logs = []
        for d in dirs if rho > 0 else dirs[:1]:
            w = rho * d
            center = sym.psi.adjoint(w) + shift if sym.is_affine else np.zeros(n)
            L = _log_integrand(sym, params, q, w, offs + center[None, :])
            with np.errstate(over="ignore", divide="ignore"):
                logs.append(float(logsumexp(L)) + 2 * n * math.log(h))
        out.append(max(logs))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2])
def test_profile_matches_per_w_integrand(n):
    """At m = 0 an affine symbol with a constant or one-kernel weight has
    log B(w) - kappa(w) fixed, and the profile reads kappa(w), taken for
    every point in one array expression, plus G, summed over one cell
    axis. It matches a sum at every w to rounding: at most 2.8e-14
    measured on these cases (the constant 3 over 2z at n = 1), tolerance
    1e-13. Every other profile sums at each w, as
    the reference does: m = 1, a degree-1 polynomial weight, and the
    square, whose w-free terms are kept. They differ only by the terms
    that compop's log-sum-exp drops, which move a sum by under 2^-53 of it,
    and by the rounding that follows: at most 8.9e-16 measured at n = 1
    and n = 2, tolerance 4e-15."""
    eye, e1 = np.eye(n), np.eye(n)[0]
    P0 = fs.Params(n=n, alpha=1.0, m=0, p=2.0, q=2.0)
    P1 = fs.Params(n=n, alpha=1.0, m=1, p=2.0, q=2.0)
    near = [
        (fs.affine_symbol(0.5 * eye, 0.3 * e1), P0),
        (fs.affine_symbol(0.5 * eye, None, fs.kernel(e1, n=n)), P0),
        (fs.affine_symbol(eye, None, fs.kernel(0.7j * e1, n=n, coeff=2.0,
                                               normalized=False)), P0),
        (fs.affine_symbol(2.0 * eye, None, fs.polynomial({(0,) * n: 3.0}, n)), P0),
        (fs.affine_symbol(eye, None, fs.polynomial({}, n)), P0),
    ]
    per_w = [
        (fs.affine_symbol(0.5 * eye, 0.3 * e1), P1),
        (fs.affine_symbol(0.5 * eye, None, fs.polynomial({(1,) + (0,) * (n - 1): 1.0}, n)),
         P0),
    ]
    if n == 1:
        per_w.append((fs.SymbolPair(fs.PolynomialMap((fs.polynomial({(2,): 1.0}, 1),)),
                                    fs.one(1)), P0))
    for cases, tol in ((near, 1e-13), (per_w, 4e-15)):
        for sym, P in cases:
            (radii, logs, _), cells = _profile_and_cells(sym, P)
            # every fifth radius, both ends of the stage window included
            np.testing.assert_allclose(logs[::5], _per_w_profile(sym, P, radii[::5], cells),
                                       rtol=0.0, atol=tol)


def test_square_profile_stops_summing_the_base_grid(monkeypatch):
    """Once the n = 1 square's z-integral has grown on the grid enlarged by
    half, its profile stops summing the base grid: 499 sums, where summing
    both grids at every w took 1013. The flag is already set and the
    profile reads only the enlarged grid, so it matches such a reference
    bit for bit."""
    sym = fs.SymbolPair(fs.PolynomialMap((fs.polynomial({(2,): 1.0}, 1),)), fs.one(1))
    P = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)
    real = compop._logsumexp
    sums = []
    monkeypatch.setattr(compop, "_logsumexp", lambda L: sums.append(1) or real(L))
    radii, logs, z_div = fs.transform_profile(sym, P)
    assert len(sums) == 499
    base = compop._log_transform_at(sym, P, P.q)
    enlarged = compop._log_transform_at(sym, P, P.q, 1.5)
    dirs = directions(1)
    grew, ref = False, []
    for rho in radii:
        vals = [(base(rho * d)[0], enlarged(rho * d)[0]) for d in (dirs if rho > 0 else dirs[:1])]
        grew = grew or any(stage_grew(v[0], v[1], GROWTH_TOL) for v in vals)
        ref.append(max(v[1] for v in vals))
    assert z_div and grew
    assert np.array_equal(logs, ref)


def test_rigid_profile_builds_no_grid(monkeypatch):
    """A rigid profile (m = 0, a constant or one-kernel weight) at n = 1 and
    n = 2 sums the cell axis alone: it builds no z-grid and makes no
    :func:`compop._folded_sum`."""
    def refuse(*args, **kwargs):
        raise AssertionError("a rigid profile summed a z-grid")

    monkeypatch.setattr(compop, "centred_grid", refuse)
    monkeypatch.setattr(compop, "_folded_sum", refuse)
    for n in (1, 2):
        P = fs.Params(n=n, alpha=1.0, m=0, p=2.0, q=2.0)
        for u in (None, fs.kernel(np.eye(n)[0], n=n)):
            radii, logs, z_div = fs.transform_profile(fs.affine_symbol(0.5 * np.eye(n), None, u), P)
            assert np.all(np.isfinite(logs)) and not z_div


def _full_grid_log_transform(sym, params, w):
    """log B(w) of a rigid pair as one sum over its whole z-grid re-centred
    at A*w + c: :func:`compop.centred_grid`, the log integrand from
    :func:`compop._w_free_terms` and one :func:`compop._logsumexp`: the
    reference the cell-axis factorisation is checked against."""
    n, q = params.n, params.q
    env = fs.norm_integrand_field(sym.u, params, q)
    c = np.asarray(env.center or np.zeros(n), dtype=complex)
    offs, h = compop.centred_grid(env.tail_radius, compop._Z_CELLS[n], n)
    pts = offs + (sym.psi.adjoint(w) + c)[None, :]
    return compop._logsumexp(_log_integrand(sym, params, q, w, pts)) + 2 * n * math.log(h)


def _kappa(sym, params, w):
    """kappa(w) = (q a/2)(|A*w + c|^2 - |w|^2) + q a Re<b, w>, c the weight's
    envelope centre, in complex arithmetic."""
    env = fs.norm_integrand_field(sym.u, params, params.q)
    c = np.zeros(params.n) if env.center is None else np.asarray(env.center, dtype=complex)
    v, qa = np.conj(sym.psi.matrix).T @ w + c, params.q * params.alpha
    return qa / 2.0 * (np.vdot(v, v).real - np.vdot(w, w).real) + qa * np.vdot(w, sym.psi.offset).real


@pytest.mark.parametrize("n", [1, 2])
def test_rigid_sum_is_the_full_grid_sum_on_the_suite(n):
    """At w = 0 the cell-axis sum of a rigid pair, kappa(0) + G, is the sum
    over its whole z-grid bit for bit, on every rigid pair of the suite at
    alpha = 1, q = 2; the zero weight's is -inf on both sides."""
    P = fs.Params(n=n, alpha=1.0, m=0, p=2.0, q=2.0)
    w0, seen = np.zeros(n, dtype=complex), 0
    for sc in fs.composition_suite(P):
        sym = sc.symbol
        env = fs.norm_integrand_field(sym.u, P, P.q)
        if sym.is_affine and env.growth == 0.0 and env.pad == 0.0:
            seen += 1
            assert compop._log_transform_at(sym, P, P.q)(w0)[0] == \
                _full_grid_log_transform(sym, P, w0), sc.name
    assert seen == (7 if n == 1 else 8)


def test_rigid_sum_matches_the_full_grid_on_random_pairs():
    """On 300 seeded random rigid pairs, affine maps under constant,
    normalised, unnormalised and sobolev_scaled one-kernel weights at
    alpha in {0.5, 1, 1.7, 3} and q in {1, 2, 2.5, 3, 4}, kappa(w) + G
    matches the sum over the whole z-grid re-centred at w, at w = 0 and at
    a random w, to rounding. Both sides round terms of the size of kappa,
    not of the result, so the error is taken relative to the largest of 1,
    |log B(w)|, |kappa(0)| and |kappa(w)|: at most 6.7e-15 measured over
    1,500 such pairs (five seeds), tolerance 4e-14."""
    rng = np.random.default_rng(35)
    kinds = ("constant", "normalized", "unnormalized", "sobolev_scaled")
    worst = 0.0
    for i in range(300):
        n, alpha = 1 + i % 2, (0.5, 1.0, 1.7, 3.0)[i % 4]
        q, kind = (1.0, 2.0, 2.5, 3.0, 4.0)[(i // 4) % 5], kinds[(i // 2) % 4]
        P = fs.Params(n=n, alpha=alpha, m=0, p=2.0, q=q)
        A = rng.normal(0, 0.6, (n, n)) + 1j * rng.normal(0, 0.6, (n, n))
        b = rng.normal(0, 0.5, n) + 1j * rng.normal(0, 0.5, n)
        coeff = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        if kind == "constant":
            u = fs.polynomial({(0,) * n: coeff}, n)
        else:
            u = fs.kernel(rng.normal(0, 1, n) + 1j * rng.normal(0, 1, n), n=n, coeff=coeff,
                          normalized=kind != "unnormalized",
                          sobolev_scaled=kind == "sobolev_scaled")
        sym = fs.affine_symbol(A, b, u)
        W = np.array([np.zeros(n), rng.normal(0, 1.5, n) + 1j * rng.normal(0, 1.5, n)])
        for w, got in zip(W, compop._log_transform_at(sym, P, q)(W)):
            want = _full_grid_log_transform(sym, P, w)
            scale = max(1.0, abs(want), abs(_kappa(sym, P, W[0])), abs(_kappa(sym, P, w)))
            worst = max(worst, abs(got - want) / scale)
    assert worst <= 4e-14


def _profile_points(n):
    """The (radius, direction) points of transform_profile, in its order."""
    radii = np.linspace(0.0, EXPANSION * STAGE_RADIUS[n], compop._PROFILE_RADII[n])
    dirs = directions(n)
    return np.array([rho * d for rho in radii for d in (dirs if rho > 0 else dirs[:1])])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [0, 1])
def test_batched_evaluator_matches_log_berezin_compop(n, m):
    """One call of the evaluator on every profile point gives
    log_berezin_compop's value at each, bit for bit, for every suite pair:
    a pair whose integrand moves with w sums its grid at each point, and a
    rigid pair (m = 0, a constant or one-kernel weight) reads kappa(w) + G,
    kappa taken row by row in one array expression. The profile is the
    shell maximum of the batch."""
    P = fs.Params(n=n, alpha=1.0, m=m, p=2.0, q=2.0)
    W = _profile_points(n)
    for sc in fs.composition_suite(P):
        sym = sc.symbol
        got = compop._log_transform_at(sym, P, P.q)(W)
        want = np.array([fs.log_berezin_compop(sym, P, w) for w in W])
        assert np.array_equal(got, want), sc.name
        if sym.is_affine:
            radii, logs, _ = fs.transform_profile(sym, P)
            shells = np.split(got, np.cumsum([len(directions(n)) if r > 0 else 1
                                              for r in radii])[:-1])
            assert np.array_equal(logs, [s.max() for s in shells]), sc.name


@pytest.mark.parametrize("n", [1, 2])
def test_affine_map_products_without_blas(n):
    """AffineMap.apply and adjoint sum over the n columns, each entry acting
    by its real and imaginary parts, instead of calling BLAS. On random
    complex matrices they match pts @ M.T + b and conj(M).T @ w exactly at
    n = 1, and at n = 2 within 4 eps of the sums of the absolute terms
    (2.2 eps measured); the identity and a real diagonal match exactly. A
    batch gives each row the bits of that row alone."""
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    pts = rng.normal(0, 3, (4096, n)) + 1j * rng.normal(0, 3, (4096, n))
    for _ in range(20):
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        A = fs.AffineMap(M, b)
        tol = 0 if n == 1 else 4 * eps
        assert np.all(np.abs(A.apply(pts) - (pts @ M.T + b))
                      <= tol * (np.abs(pts) @ np.abs(M).T + np.abs(b)))
        assert np.all(np.abs(A.adjoint(pts) - pts @ np.conj(M)) <= tol * (np.abs(pts) @ np.abs(M)))
        w = pts[0]
        assert np.all(np.abs(A.adjoint(w) - np.conj(M).T @ w) <= tol * (np.abs(M).T @ np.abs(w)))
        assert np.array_equal(A.adjoint(pts)[5], A.adjoint(pts[5]))
        assert np.array_equal(A.apply(pts)[:7], A.apply(pts[:7]))
    for M in (np.eye(n), np.diag(rng.normal(size=n))):
        A = fs.AffineMap(M)
        assert np.array_equal(A.apply(pts), pts @ M.T)
        assert np.array_equal(A.adjoint(pts), pts @ np.conj(M))
        assert np.array_equal(A.adjoint(pts[0]), np.conj(M).T @ pts[0])


def _lse_cases():
    rng = np.random.default_rng(11)
    cases = [rng.normal(0.0, scale, size) + shift
             for scale, size, shift in [(1.0, 1000, 0.0), (30.0, 5000, -40.0),
                                        (400.0, 16384, 10.0), (900.0, 37249, -300.0)]]
    # more than 90% of the terms below max - 746, many of them subnormal
    under = rng.uniform(-760.0, -746.5, 20000)
    under[:1500] = rng.uniform(-746.0, 0.0, 1500)
    cases.append(under)
    cases.append(np.concatenate([rng.normal(0.0, 1.0, 999), [5.0, 5.0, 5.0]]))  # ties
    cases.append(np.full(7, -3.25))
    cases.append(np.array([0.7]))
    cases.append(np.full(4, -math.inf))
    cases.append(np.array([1.0, math.inf, -2.0]))
    cases.append(np.array([1.0, math.nan, -2.0]))
    cases.append(np.array([-math.inf, -1.0, -math.inf]))
    return cases


@pytest.mark.parametrize("L", _lse_cases(), ids=range(len(_lse_cases())))
def test_logsumexp_bit_equal_to_scipy(L):
    """compop's log-sum-exp keeps the terms within log(2^-53 / N) of the max
    of N and is bit-identical to scipy's logsumexp of those. The terms it
    drops add under 2^-53 of the sum, so it is within 2^-53 of the exact
    log-sum (an extended-precision sum of every term), plus the rounding of
    the float sum: 2^-53 per exp and per level of the pairwise sum, and one
    ulp of the result. A single term and a max that is not finite compare
    exactly with scipy's, nan against nan."""
    with np.errstate(over="ignore"):
        want = float(logsumexp(L))
    got = compop._logsumexp(L)
    top = np.max(L)
    if L.size == 1 or not np.isfinite(top):
        assert got == want or (math.isnan(got) and math.isnan(want))
        return
    kept = L >= top + math.log(2.0 ** -53 / L.size)
    assert got == float(logsumexp(L[kept]))
    assert math.fsum(np.exp(L[~kept] - top)) < 2.0 ** -53 * math.fsum(np.exp(L[kept] - top))
    Ld = L.astype(np.longdouble) - np.longdouble(top)
    exact = float(np.longdouble(top) + np.log(np.sum(np.exp(Ld))))
    rounding = (2.0 + math.log2(kept.sum())) * 2.0 ** -53 + np.spacing(abs(exact))
    assert abs(got - exact) <= 2.0 ** -53 + rounding


def test_n1_pairing_bit_equal_to_matmul():
    """At n = 1 the folded integrand takes Re<psi(z), w> in real arithmetic,
    from the rows Re psi and Im psi; the integrand it builds equals the one
    from the complex matmul's real part to the bit."""
    rng = np.random.default_rng(5)
    psi_v = (rng.normal(0, 4, 37249) + 1j * rng.normal(0, 4, 37249))[:, None]
    L = rng.normal(0, 3, len(psi_v))
    terms = (np.ascontiguousarray(to_real(psi_v).T), L, 0.0)
    buf = (np.empty(len(L)), np.empty(len(L)))
    for w in rng.normal(0, 5, (200, 2)):
        wv = np.array([complex(*w)])
        compop._folded_sum(terms, wv, 1.0, buf)
        want = L + (psi_v @ np.conj(wv)).real - float(np.vdot(wv, wv).real) / 2.0
        assert np.array_equal(buf[0], want)


RADIAL_PAIRS = {"identity", "contraction", "rotation", "expansion", "swap"}
DENSITY_NOTE = "density integrated over the radius"


@pytest.mark.parametrize("m,p", [(1, 4.0), (0, math.inf)])
def test_radial_pairs_agree_with_their_atomic_pullback_n1(m, p):
    """Below the diagonal and for a sup-norm source, a radial pair is
    classified through its exact pullback density, and the verdict is that
    of the atomic pullback on the same stages."""
    P = fs.Params(n=1, alpha=1.0, m=m, p=p, q=2.0)
    seen = set()
    for sc in fs.composition_suite(P):
        if sc.name not in RADIAL_PAIRS:
            continue
        seen.add(sc.name)
        v = fs.classify_compop(sc.symbol, P)
        assert DENSITY_NOTE in v.carleson.notes, sc.name
        atoms = fs.classify_carleson(fs.pullback_measure(sc.symbol, P), P, t=P.q,
                                     stage_radius=STAGE_RADIUS[1])
        assert (v.bounded, v.divergent) == (atoms.is_carleson, atoms.divergent), sc.name
    assert seen == RADIAL_PAIRS - {"swap"}


@pytest.mark.parametrize("m,p", [(1, 4.0), (0, math.inf)])
def test_radial_pairs_follow_the_affine_rule_n2(m, p):
    """At n = 2 the radial route's verdicts are linear_symbol_check's: below
    the diagonal bounded and compact coincide and need |c| < 1."""
    P = fs.Params(n=2, alpha=1.0, m=m, p=p, q=2.0)
    seen = set()
    for sc in fs.composition_suite(P):
        if sc.name not in RADIAL_PAIRS:
            continue
        seen.add(sc.name)
        v = fs.classify_compop(sc.symbol, P)
        assert DENSITY_NOTE in v.carleson.notes, sc.name
        chk = fs.linear_symbol_check(sc.symbol.psi.matrix, sc.symbol.psi.offset)
        assert v.bounded == v.compact == chk["admissible_compact"], sc.name
    assert seen == RADIAL_PAIRS


@pytest.mark.parametrize("n,tol", [(1, {"transform": 0.05}),
                                   (2, {"transform": 1.6, "averaging": 0.6})], ids=["n1", "n2"])
def test_identity_pullback_atoms_read_as_its_density(n, tol):
    """Atoms and densities are both truncated to the stage ball, so the
    identity's atomic pullback reads the outer-stage criteria of its
    power-gaussian density, within the gap of its z-grid (measured 33.234
    against 33.279 at n = 1; 433.95 against 435.48 and, for the averaging,
    341.38 against 341.92 at n = 2)."""
    P = fs.Params(n=n, alpha=1.0, m=1, p=4.0, q=2.0)
    sym = fs.identity_symbol(n)
    atoms, density = (
        fs.classify_carleson(mu, P, t=P.q, stage_radius=STAGE_RADIUS[n]).criterion_values
        for mu in (fs.pullback_measure(sym, P), compop._radial_pullback(sym, P)))
    for key, err in tol.items():
        assert atoms[key] == pytest.approx(density[key], abs=err), key


ATOMIC_PAIRS = {
    "translation": fs.affine_symbol([[1.0]], [1.0]),
    "unequal-scales": fs.affine_symbol(np.diag([0.5, 0.25])),
    "degree-1-weight": fs.affine_symbol([[0.5]], u=fs.polynomial({(1,): 1.0}, 1)),
    "kernel-weight": fs.affine_symbol([[0.5]], u=fs.kernel([1.0], n=1)),
    "zero-weight": fs.affine_symbol([[1.0]], u=fs.polynomial({}, 1)),
    "zero-matrix": fs.affine_symbol([[0.0]]),
}


@pytest.mark.parametrize("name,sym", ATOMIC_PAIRS.items(), ids=list(ATOMIC_PAIRS))
def test_other_pairs_keep_the_atomic_pullback(monkeypatch, name, sym):
    """Pairs that are not radial keep the atoms of their z-grid (here a
    coarse one, to keep the n = 2 case cheap)."""
    monkeypatch.setattr(compop, "_pullback_geometry", lambda s, n: (3.0, 0.5))
    P = fs.Params(n=sym.n, alpha=1.0, m=1, p=4.0, q=2.0)
    assert compop._radial_pullback(sym, P) is None
    v = fs.classify_compop(sym, P)
    assert "atomic sums are exact" in v.carleson.notes, name


@pytest.mark.parametrize("m,p", [(1, 4.0), (0, math.inf)])
def test_narrow_radial_pair_reads_its_density(m, p):
    """psi(z) = z/20 pulls back to a power-gaussian of rate 399 at q = 2,
    a = 1, which lies inside the first of the radial rule's unit panels.
    Its panels stop at the density's bulk, so it is classified as that
    density, with the verdict of its atomic pullback on the same stages."""
    P = fs.Params(n=1, alpha=1.0, m=m, p=p, q=2.0)
    sym = fs.affine_symbol([[0.05]])
    assert compop._radial_pullback(sym, P).rate == pytest.approx(399.0)
    v = fs.classify_compop(sym, P)
    assert DENSITY_NOTE in v.carleson.notes
    atoms = fs.classify_carleson(fs.pullback_measure(sym, P), P, t=P.q,
                                 stage_radius=STAGE_RADIUS[1])
    assert (v.bounded, v.divergent) == (atoms.is_carleson, atoms.divergent)
    assert v.bounded
