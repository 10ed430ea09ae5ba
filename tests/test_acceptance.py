"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Budgets are wall-clock ceilings for the whole criterion; the numeric
tolerances are stated inline next to each assertion.
"""

import json
import math
import time

import numpy as np
import pytest

import focksobolev as fs

from conftest import run_cli


def report(label, ok):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_closed_form_quadrature():
    """Criterion 1: shifted Gaussian integrals against (pi/c)^n."""
    t_start = time.monotonic()
    ok = True
    for n in (1, 2):
        tol = 1e-6 if n == 1 else 1e-4
        for c in (0.5, 1.0, 2.0):
            for shift in (0.0, 2.0):
                center = np.zeros(n, dtype=complex)
                center[0] = shift

                def ev(pts, c=c, center=center):
                    return np.exp(-c * (np.abs(pts - center[None, :]) ** 2).sum(axis=1))

                field = fs.scalar_field(ev, n, decay=c, growth=0.0, center=tuple(center))
                t0 = time.monotonic()
                val, _, _ = fs.integrate_gaussian(field)
                single = time.monotonic() - t0
                expect = (math.pi / c) ** n
                ok &= abs(val - expect) / expect <= tol
                ok &= single < 5.0
    report("criterion 1, closed-form quadrature", ok)
    assert time.monotonic() - t_start < 60.0


def test_norm_identities():
    """Criterion 2: unit norms of 1 and of normalized kernels, kernel growth."""
    t_start = time.monotonic()
    ok = True
    for p in (1.0, 2.0, 4.0):
        for m in (0, 1, 2):
            P = fs.Params(n=1, alpha=1.0, m=m, p=p, q=p)
            ok &= abs(fs.fock_sobolev_norm(fs.one(1), P) - 1.0) <= 1e-5
        P0 = fs.Params(n=1, alpha=1.0, m=0, p=p, q=p)
        for w in (0.0 + 0.0j, 1.0 + 1.0j, 2.0 + 0.0j):
            ok &= abs(fs.fock_sobolev_norm(fs.kernel([w], n=1), P0) - 1.0) <= 1e-5
            growth = fs.fock_sobolev_norm(fs.kernel([w], n=1, normalized=False), P0)
            expect = math.exp(abs(w) ** 2 / 2.0)
            ok &= abs(growth - expect) / expect <= 1e-5
    elapsed = time.monotonic() - t_start
    report("criterion 2, norm identities", ok and elapsed < 60.0)


def test_lattice_quality():
    """Criterion 3: separation, covering, and overlap multiplicity."""
    from scipy.spatial import cKDTree

    t_start = time.monotonic()
    ok = True
    for n in (1, 2):
        for r in (0.5, 1.0):
            lat = fs.make_lattice(6.0, r, n=n)
            tree = cKDTree(lat.centers)
            d, _ = tree.query(lat.centers, k=2)
            ok &= d[:, 1].min() >= r
            rep = fs.verify_lattice(lat, 100_000, seed=11)
            ok &= rep.uncovered_probe_count == 0
            rng = np.random.default_rng(5)
            raw = rng.normal(size=(20_000, 2 * n))
            raw /= np.linalg.norm(raw, axis=1)[:, None]
            radii = (6.0 - r) * rng.random(20_000) ** (1.0 / (2 * n))
            probes = raw * radii[:, None]
            ok &= fs.covering_multiplicity(lat, 2.0 * r, probes) <= 5 ** (2 * n)
    elapsed = time.monotonic() - t_start
    report("criterion 3, lattice quality", ok and elapsed < 30.0)


def test_three_way_equivalence(unit_lattice):
    """Criterion 4: transform, averaging, and sequence criteria agree
    within a factor of 100 across the measure suite."""
    t_start = time.monotonic()
    ok = True
    atoms = fs.atoms_on_lattice(unit_lattice)
    for m in (0, 1):
        s = 2.0 * m
        cases = [("lattice-atoms", atoms), ("gaussian", fs.gaussian(1.0, 1)),
                 ("lebesgue", fs.lebesgue(1))]
        if s == 2.0:
            cases.append(("polygrowth", fs.polygrowth(2.0, 1)))
        for p in (1.0, 2.0, math.inf):
            P = fs.Params(n=1, alpha=1.0, m=m, p=p, q=2.0)
            for name, mu in cases:
                band = fs.classify_carleson(mu, P, t=2.0, r=1.0).comparability_band
                print(f"  s={s:.0f} p={p} {name}: band={band:.3f}")
                ok &= band is not None and 1.0 <= band <= 100.0
    elapsed = time.monotonic() - t_start
    report("criterion 4, three-way equivalence", ok and elapsed < 300.0)


def test_carleson_dichotomies():
    """Criterion 5: flat measure splits by regime, gaussian vanishes,
    the origin atom embeds everywhere."""
    t_start = time.monotonic()
    ok = True
    leb = fs.lebesgue(1)
    P22 = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)
    P42 = fs.Params(n=1, alpha=1.0, m=0, p=4.0, q=2.0)
    ok &= fs.classify_carleson(leb, P22).is_carleson
    ok &= not fs.classify_carleson(leb, P42).is_carleson
    gau = fs.gaussian(1.0, 1)
    ok &= fs.classify_carleson(gau, P22).is_vanishing
    ok &= fs.classify_carleson(gau, P42).is_vanishing
    delta = fs.AtomicMeasure(np.array([0.0 + 0.0j]), np.array([1.0]), 1)
    for p in (2.0, 4.0, math.inf):
        P = fs.Params(n=1, alpha=1.0, m=0, p=p, q=2.0)
        v = fs.classify_carleson(delta, P)
        ok &= v.is_carleson
        if p == math.inf:
            ok &= abs(v.criterion_values["weighted_mass"] - 1.0) < 1e-12
    elapsed = time.monotonic() - t_start
    report("criterion 5, regime dichotomies", ok and elapsed < 120.0)


def test_composition_suite():
    """Criterion 6: the eight-scenario suite at both derivative orders."""
    t_start = time.monotonic()
    ok = True
    for m in (0, 1):
        P = fs.Params(n=1, alpha=1.0, m=m, p=2.0, q=2.0)
        for sc in fs.composition_suite(P):
            v = fs.classify_compop(sc.symbol, P)
            ok &= v.bounded == sc.expect_bounded
            ok &= v.compact == sc.expect_compact
            direct = fs.direct_operator_norm(sc.symbol, P)
            if sc.name == "identity":
                ok &= direct == 1.0
            if sc.name == "expansion":
                finite = [x for x in v.profile_values if math.isfinite(x) and x > 0]
                ok &= max(finite) / v.profile_values[0] > 1e3
            if sc.name == "translation":
                chk = fs.linear_symbol_check([[1.0]], [1.0])
                ok &= not chk["admissible_bounded"]
                ok &= chk["offset_overlap"] > 0.0
            if sc.name == "square":
                ok &= any("outside" in note for note in v.notes)
                ok &= not v.bounded
            if sc.name == "zero-weight":
                ok &= v.compact and v.norm_estimate == 0.0
            if v.bounded and direct > 0.0:
                band = max(v.norm_estimate / direct, direct / v.norm_estimate)
                ok &= band <= 20.0
    sym = fs.affine_symbol([[0.5]])
    P0 = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)
    for w, expect in [(0.0, math.pi), (2.0, math.pi * math.exp(-3.0))]:
        val = math.exp(fs.log_berezin_compop(sym, P0, np.array([w + 0.0j])))
        ok &= abs(val - expect) / expect <= 1e-4
    elapsed = time.monotonic() - t_start
    report("criterion 6, composition suite", ok and elapsed < 600.0)


def test_pullback_consistency():
    """Criterion 7: operator verdict equals embedding verdict of the
    pulled-back measure on every scenario."""
    t_start = time.monotonic()
    ok = True
    for m in (0, 1):
        P = fs.Params(n=1, alpha=1.0, m=m, p=2.0, q=2.0)
        for sc in fs.composition_suite(P):
            op = fs.classify_compop(sc.symbol, P)
            lam = fs.pullback_measure(sc.symbol, P)
            emb = fs.classify_carleson(lam, P, t=P.q, stage_radius=6.0)
            ok &= op.bounded == emb.is_carleson
    elapsed = time.monotonic() - t_start
    report("criterion 7, pullback consistency", ok and elapsed < 300.0)


def test_essential_norm():
    """Criterion 8: compact symbol near zero, identity at the constant
    transform level, trivial weight at zero exactly."""
    t_start = time.monotonic()
    P0 = fs.Params(n=1, alpha=1.0, m=0, p=2.0, q=2.0)
    ok = fs.essential_norm_estimate(fs.affine_symbol([[0.5]]), P0) <= 1e-3
    ident = fs.essential_norm_estimate(fs.identity_symbol(1), P0)
    ok &= abs(ident - math.sqrt(math.pi)) / math.sqrt(math.pi) <= 0.02
    zero = fs.affine_symbol([[0.0]], None, fs.polynomial({}, 1))
    ok &= fs.essential_norm_estimate(zero, P0) == 0.0
    elapsed = time.monotonic() - t_start
    report("criterion 8, essential norm", ok and elapsed < 120.0)


def test_report_determinism(tmp_path):
    """Criterion 9: suite reports and n = 2 norm reports are byte-identical
    across repeated runs."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 1, "alpha": 1.0, "m": 0, "p": 2.0, "q": 2.0}))
    norm_params = tmp_path / "norm_params.json"
    norm_params.write_text(json.dumps({"n": 2, "alpha": 1.0, "m": 1, "p": 2.0, "q": 2.0}))
    runs = [("a", ["suite", "--params", "@" + str(params)]),
            ("b", ["suite", "--params", "@" + str(params)]),
            ("c", ["verify-norms", "--params", "@" + str(norm_params)]),
            ("d", ["verify-norms", "--params", "@" + str(norm_params)])]
    outs = []
    for name, args in runs:
        out = tmp_path / f"{name}.jsonl"
        res = run_cli(args + ["--out", str(out)])
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and outs[2] == outs[3]
    report("criterion 9, report determinism", ok)
