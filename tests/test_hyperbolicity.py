"""Tests for the eigenvalue classifier, thresholds, symmetrizer, atlas."""

import numpy as np
import pytest

import oracles
from pycnolab import hyperbolicity
from pycnolab.hyperbolicity import (
    AtlasCurves,
    StatePoint,
    atlas,
    characteristic_polynomial,
    classify,
    coefficient_arrays,
    count_line_intersections,
    critical_froude,
    froude_table,
    in_hyperbolic_set,
    leading_minors,
    max_characteristic_speed,
    quartic_discriminant,
    quartic_roots,
    quartic_roots_batch,
    state_matrix,
    symmetrizer,
    symmetrizer_fields,
    symmetrizer_matrix,
)


def random_state(rng, stable=True):
    rr = rng.uniform(0.05, 0.95)
    H_s = rng.uniform(0.1, 2.0)
    H_b = rng.uniform(0.1, 2.0)
    U_s = rng.uniform(-1.5, 1.5)
    U_b = rng.uniform(-1.5, 1.5)
    return StatePoint(rho_s=rr, rho_b=1.0, H_s=H_s, H_b=H_b, U_s=U_s, U_b=U_b)


def hyperbolic_state(rng, frac=0.8):
    """Random stable state whose shear is frac * Fr_minus."""
    rr = rng.uniform(0.05, 0.95)
    H_s = rng.uniform(0.2, 2.0)
    H_b = rng.uniform(0.2, 2.0)
    fr_minus, _ = critical_froude(H_s / H_b, rr)
    U_s = rng.uniform(-1.0, 1.0)
    U_b = U_s + rng.choice([-1.0, 1.0]) * frac * fr_minus * np.sqrt(H_b)
    return StatePoint(rho_s=rr, rho_b=1.0, H_s=H_s, H_b=H_b, U_s=U_s, U_b=U_b)


class TestCharacteristicPolynomial:
    def test_matches_determinant_interpolation(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            p = random_state(rng)
            mine = characteristic_polynomial(p)
            ref = oracles.charpoly_coeffs_by_determinant(
                p.rho_ratio, p.H_s, p.H_b, p.U_s, p.U_b)
            scale = np.max(np.abs(ref)) + 1.0
            assert np.max(np.abs(mine - ref)) <= 1e-10 * scale, (
                f"coefficients disagree: {mine} vs {ref}")

    def test_negative_at_surface_characteristics(self):
        # P(U_s +- sqrt(H_s)) = -rr H_s H_b, the root-count anchor
        rng = np.random.default_rng(12)
        for _ in range(30):
            p = random_state(rng)
            coeffs = characteristic_polynomial(p)
            target = -p.rho_ratio * p.H_s * p.H_b
            for lam in (p.U_s + np.sqrt(p.H_s), p.U_s - np.sqrt(p.H_s)):
                val = np.polyval(coeffs, lam)
                assert abs(val - target) <= 1e-10 * (1.0 + abs(target)), (
                    f"P({lam}) = {val}, expected {target}")

    def test_roots_satisfy_polynomial(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            p = random_state(rng)
            coeffs = characteristic_polynomial(p)
            roots = quartic_roots(coeffs)
            res = np.abs(np.polyval(coeffs, roots))
            scale = (1.0 + np.abs(roots)) ** 4
            assert np.max(res / scale) <= 1e-11, f"root residual {np.max(res)}"

    def test_roots_match_closed_form(self):
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(80):
            p = random_state(rng)
            coeffs = characteristic_polynomial(p)
            disc = quartic_discriminant(*coeffs[1:])
            scale = np.max(np.abs(coeffs)) + 1.0
            if abs(disc) < 1e-6 * scale ** 6:
                continue  # closed form loses accuracy near double roots
            mine = quartic_roots(coeffs)
            ref = oracles.ferrari_roots(*coeffs[1:])
            for r in ref:
                d = np.min(np.abs(mine - r))
                assert d <= 1e-7 * (1.0 + abs(r)), (
                    f"no companion root near Ferrari root {r} (gap {d})")
            checked += 1
        assert checked >= 50, f"only {checked} generic quartics sampled"

    def test_batch_roots_agree_with_scalar(self):
        rng = np.random.default_rng(15)
        pts = [random_state(rng) for _ in range(12)]
        c3, c2, c1, c0 = coefficient_arrays(
            np.array([p.rho_ratio for p in pts]),
            np.array([p.H_s for p in pts]),
            np.array([p.H_b for p in pts]),
            np.array([p.U_s for p in pts]),
            np.array([p.U_b for p in pts]))
        batch = quartic_roots_batch(c3, c2, c1, c0)
        for i, p in enumerate(pts):
            one = quartic_roots(characteristic_polynomial(p), polish=False)
            assert np.allclose(np.sort_complex(batch[i]), np.sort_complex(one),
                               atol=1e-10), f"batch roots differ at point {i}"

    def test_max_speed_bounds_roots(self):
        rng = np.random.default_rng(16)
        p = random_state(rng)
        coeffs = characteristic_polynomial(p)
        roots = quartic_roots(coeffs)
        speed = max_characteristic_speed(p.rho_ratio, p.H_s, p.H_b, p.U_s, p.U_b)
        assert abs(speed - np.max(np.abs(roots))) <= 1e-9


class TestDiscriminant:
    def test_matches_sylvester_resultant(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            b, c, d, e = rng.uniform(-3.0, 3.0, size=4)
            explicit = quartic_discriminant(b, c, d, e)
            resultant = oracles.quartic_discriminant_resultant(b, c, d, e)
            scale = max(abs(explicit), abs(resultant), 1.0)
            assert abs(explicit - resultant) <= 1e-9 * scale, (
                f"disc mismatch at ({b},{c},{d},{e}): {explicit} vs {resultant}")

    def test_sign_decides_root_count(self):
        rng = np.random.default_rng(22)
        used = 0
        for _ in range(200):
            p = random_state(rng)
            coeffs = characteristic_polynomial(p)
            disc = quartic_discriminant(*coeffs[1:])
            scale = (np.max(np.abs(coeffs)) + 1.0) ** 6
            if abs(disc) < 1e-8 * scale:
                continue
            count = oracles.real_root_count_bruteforce(
                p.rho_ratio, p.H_s, p.H_b, p.U_s, p.U_b)
            want = 4 if disc > 0.0 else 2
            assert count == want, (
                f"disc={disc:.3e} predicts {want} real roots, eig found {count}")
            used += 1
        assert used >= 150


class TestCriticalFroude:
    def test_equal_depth_closed_form(self):
        # tangencies sit on the anti-diagonal when the line slope is 1:
        # Fr_- = 2 sqrt(1 - sqrt(rr)), Fr_+ = 2 sqrt(1 + sqrt(rr))
        for rr in (0.1, 0.3, 0.5, 0.7, 0.9):
            fm, fp = critical_froude(1.0, rr)
            assert abs(fm - 2.0 * np.sqrt(1.0 - np.sqrt(rr))) <= 1e-8, (
                f"Fr_- off at rr={rr}: {fm}")
            assert abs(fp - 2.0 * np.sqrt(1.0 + np.sqrt(rr))) <= 1e-8, (
                f"Fr_+ off at rr={rr}: {fp}")

    def test_window_is_elliptic(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            h = rng.uniform(0.2, 3.0)
            rr = rng.uniform(0.1, 0.9)
            fm, fp = critical_froude(h, rr)
            assert 0.0 < fm < fp
            inside = StatePoint(rr, 1.0, h, 1.0, 0.0, 0.5 * (fm + fp))
            below = StatePoint(rr, 1.0, h, 1.0, 0.0, 0.5 * fm)
            above = StatePoint(rr, 1.0, h, 1.0, 0.0, fp + 0.5)
            assert classify(inside).regime == "Elliptic"
            assert classify(below).regime == "Hyperbolic"
            assert classify(above).regime == "FastHyperbolic"

    def test_stable_under_bracket_refinement(self):
        for h, rr in ((0.5, 0.1), (0.5, 0.9), (2.0, 0.5), (1.0, 0.5)):
            coarse = critical_froude(h, rr, scan_points=256)
            fine = critical_froude(h, rr, scan_points=2048)
            assert abs(coarse[0] - fine[0]) <= 1e-8, f"Fr_- unstable at {(h, rr)}"
            assert abs(coarse[1] - fine[1]) <= 1e-8, f"Fr_+ unstable at {(h, rr)}"

    def test_scalar_and_array_discriminants_agree(self):
        # the bisection evaluates Python floats, the scan whole arrays;
        # both must give the same bits so the brackets are unchanged
        rng = np.random.default_rng(37)
        for _ in range(50):
            h = float(rng.uniform(0.05, 5.0))
            rr = float(rng.uniform(0.02, 0.98))
            cs = np.concatenate([np.linspace(0.0, 12.0, 97),
                                 rng.uniform(0.0, 12.0, 64)])
            array = hyperbolicity._disc_of_intercept(cs, h, rr)
            for c, want in zip(cs, array):
                got = hyperbolicity._disc_of_intercept(float(c), h, rr)
                assert type(got) is float
                assert got == want, f"c={c!r}, h={h!r}, rr={rr!r}"

    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            critical_froude(-1.0, 0.5)
        with pytest.raises(ValueError):
            critical_froude(1.0, 1.5)

    def test_table_interpolates_thresholds(self):
        hs, fm, fp = froude_table(0.5, 0.2, 2.0, n_nodes=65)
        assert np.all(np.diff(hs) > 0.0)
        # interpolation error at off-node ratios stays small
        for h in (0.31, 0.77, 1.4):
            exact = critical_froude(h, 0.5)
            assert abs(np.interp(h, hs, fm) - exact[0]) <= 1e-4
            assert abs(np.interp(h, hs, fp) - exact[1]) <= 1e-4

    def test_table_nodes_equal_scalar_thresholds(self, monkeypatch):
        # the lockstep pass reproduces critical_froude node by node
        tables = {}
        with monkeypatch.context() as m:
            m.setattr(hyperbolicity, "critical_froude", None)
            for rr in (0.05, 0.5, 0.95):
                tables[rr] = froude_table(rr, 0.01, 100.0, n_nodes=97)
        for rr, (hs, fm, fp) in tables.items():
            want = np.array([critical_froude(h, rr) for h in hs])
            assert np.array_equal(fm, want[:, 0]), f"Fr_- at rr = {rr}"
            assert np.array_equal(fp, want[:, 1]), f"Fr_+ at rr = {rr}"

    def test_table_falls_back_to_scalar_scan(self, monkeypatch):
        # at rr = 1e-6 the 256-point scan misses the narrow elliptic
        # window of most nodes; those go through the scalar refinement
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return critical_froude(*args, **kwargs)

        monkeypatch.setattr(hyperbolicity, "critical_froude", counted)
        hs, fm, fp = froude_table(1e-6, 1e-4, 1e4, n_nodes=17)
        assert 0 < len(calls) < hs.size
        want = np.array([critical_froude(h, 1e-6) for h in hs])
        assert np.array_equal(fm, want[:, 0])
        assert np.array_equal(fp, want[:, 1])
        with pytest.raises(RuntimeError):
            froude_table(1e-9, 1e-4, 1e4, n_nodes=5)

    def test_table_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            froude_table(1.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            froude_table(0.5, -1.0, -0.1)


class TestClassify:
    def test_point_is_immutable(self):
        p = StatePoint(0.5, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            p.U_b = 1.0
        assert p.thresholds == critical_froude(1.0, 0.5)

    def test_symmetric_rest_case(self):
        p = StatePoint(0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0, 0.0, 0.0)
        rep = classify(p)
        assert rep.regime == "Hyperbolic"
        assert rep.real_count == 4
        got = np.sort(rep.roots.real)
        want = oracles.symmetric_rest_roots()
        assert np.max(np.abs(got - want)) <= 1e-12, f"roots {got} vs {want}"

    def test_real_count_matches_bruteforce(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_state(rng)
            rep = classify(p)
            if rep.degenerate:
                continue
            ref = oracles.real_root_count_bruteforce(
                p.rho_ratio, p.H_s, p.H_b, p.U_s, p.U_b)
            assert rep.real_count == ref, (
                f"classifier count {rep.real_count} vs eig count {ref} at {p}")

    def test_galilean_shift_preserves_structure(self):
        rng = np.random.default_rng(42)
        p = random_state(rng)
        rep = classify(p)
        for v in (-2.0, 0.7):
            q = StatePoint(p.rho_s, p.rho_b, p.H_s, p.H_b, p.U_s + v, p.U_b + v)
            rq = classify(q)
            assert rq.regime == rep.regime
            assert abs(rq.margin - rep.margin) <= 1e-9
            shifted = np.sort_complex(rep.roots + v)
            assert np.allclose(np.sort_complex(rq.roots), shifted, atol=1e-9)

    def test_velocity_scaling(self):
        # (H, U) -> (a^2 H, a U) rescales roots by a and keeps the regime
        p = StatePoint(0.3, 1.0, 0.8, 1.1, 0.2, -0.5)
        rep = classify(p)
        a = 1.7
        q = StatePoint(0.3, 1.0, a * a * p.H_s, a * a * p.H_b,
                       a * p.U_s, a * p.U_b)
        rq = classify(q)
        assert rq.regime == rep.regime
        assert np.allclose(np.sort_complex(rq.roots),
                           a * np.sort_complex(rep.roots), atol=1e-9)
        assert abs(rq.shear - rep.shear) <= 1e-9  # shear is scale free

    def test_threshold_shear_is_degenerate(self):
        fm, _ = critical_froude(1.0, 0.5)
        p = StatePoint(0.5, 1.0, 1.0, 1.0, 0.0, fm)
        assert classify(p).degenerate

    def test_unstable_stratification_rejected(self):
        p = StatePoint(1.2, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            classify(p)

    def test_membership_in_margin_set(self):
        good = StatePoint(0.5, 1.0, 0.5, 0.5, 0.0, 0.0)
        assert in_hyperbolic_set(good, 0.1)
        # density ratio too close to 1 fails the first clause
        heavy = StatePoint(0.97, 1.0, 0.5, 0.5, 0.0, 0.0)
        assert not in_hyperbolic_set(heavy, 0.1)
        # extreme depth ratio fails even at rest
        thin = StatePoint(0.5, 1.0, 0.01, 1.0, 0.0, 0.0)
        assert not in_hyperbolic_set(thin, 0.1)
        # shear eating the margin fails the Froude clause
        fm, _ = critical_froude(1.0, 0.5)
        sheared = StatePoint(0.5, 1.0, 0.5, 0.5, 0.0, (fm - 0.05) * np.sqrt(0.5))
        assert not in_hyperbolic_set(sheared, 0.1)
        with pytest.raises(ValueError):
            in_hyperbolic_set(good, 0.0)


class TestSymmetrizer:
    def test_symmetrizes_exactly(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            p = hyperbolic_state(rng)
            sym = symmetrizer(p)
            assert sym.asymmetry <= 1e-12, (
                f"S A asymmetry {sym.asymmetry:.3e} at {p}")
            assert np.max(np.abs(sym.S - sym.S.T)) == 0.0

    def test_positive_definite_with_positive_minors(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            p = hyperbolic_state(rng)
            sym = symmetrizer(p)
            assert sym.certified, f"not certified at {p}"
            assert np.all(sym.minors > 0.0)
            assert sym.min_eigenvalue > 0.0
            eigs = np.linalg.eigvalsh(sym.S)
            assert eigs[0] > 0.0

    def test_minor_closed_forms(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            p = hyperbolic_state(rng)
            sym = symmetrizer(p)
            rr = p.rho_ratio
            us = p.U_s - sym.lam
            want = np.array([
                rr,
                rr * (1.0 - rr),
                rr ** 2 * (p.H_s * (1.0 - rr) - us ** 2),
                rr ** 2 * np.polyval(characteristic_polynomial(p), sym.lam),
            ])
            rel = np.abs(sym.minors - want) / (np.abs(want) + 1e-30)
            assert np.max(rel) <= 1e-9, (
                f"minor closed forms off by {np.max(rel):.2e} at {p}")

    def test_shift_between_middle_roots(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            p = hyperbolic_state(rng)
            rep = classify(p)
            sym = symmetrizer(p, rep)
            lams = np.sort(rep.roots.real)
            assert lams[1] < sym.lam < lams[2], (
                f"shift {sym.lam} outside middle-root gap ({lams[1]}, {lams[2]})")

    def test_rejects_elliptic_point(self):
        fm, fp = critical_froude(1.0, 0.5)
        p = StatePoint(0.5, 1.0, 1.0, 1.0, 0.0, 0.5 * (fm + fp))
        with pytest.raises(ValueError):
            symmetrizer(p)

    def test_field_assembly_matches_pointwise(self):
        rng = np.random.default_rng(55)
        pts = [hyperbolic_state(rng) for _ in range(6)]
        lams = np.array([symmetrizer(p).lam for p in pts])
        stack = symmetrizer_fields(
            np.array([p.rho_ratio for p in pts]),
            np.array([p.H_s for p in pts]),
            np.array([p.H_b for p in pts]),
            np.array([p.U_s for p in pts]),
            np.array([p.U_b for p in pts]),
            lams)
        for i, p in enumerate(pts):
            direct = symmetrizer_matrix(p, lams[i])
            assert np.array_equal(stack[i], direct), f"stacked S differs at {i}"

    def test_minors_helper_is_determinants(self):
        rng = np.random.default_rng(56)
        M = rng.normal(size=(4, 4))
        M = M @ M.T + 4.0 * np.eye(4)
        minors = leading_minors(M)
        for k in range(1, 5):
            assert abs(minors[k - 1] - np.linalg.det(M[:k, :k])) <= 1e-12


class TestAtlas:
    def test_branches_lie_on_curve(self):
        curves = atlas(0.5, 0.5, [0.5, 1.5, 2.5])
        for name, ps, pb in curves.branches:
            vals = (ps ** 2 - 1.0) * (pb ** 2 - 1.0)
            assert np.max(np.abs(vals - 0.5)) <= 1e-9, (
                f"branch {name} off the quartic curve")

    def test_lines_have_stated_slope_and_intercept(self):
        curves = atlas(0.5, 0.3, [1.5])
        name, ps, pb = curves.lines[0]
        slope = np.sqrt(0.5)
        assert np.max(np.abs(pb - slope * ps - 1.5)) <= 1e-12
        assert name == "line_1.5"

    def test_intersections_match_classifier_counts(self):
        # the figure-style parameter sweep: depths (1/3, 2/3)
        h_ratio = 0.5
        for rr in (0.1, 0.5, 0.9):
            curves = atlas(h_ratio, rr, [0.5, 1.5, 2.5])
            for c in (0.5, 1.5, 2.5):
                got = count_line_intersections(curves, c)
                p = StatePoint(rr, 1.0, h_ratio, 1.0, 0.0, c * 1.0)
                rep = classify(p)
                assert got == rep.real_count, (
                    f"rr={rr}, intercept={c}: polylines give {got} crossings, "
                    f"classifier has {rep.real_count} real roots")
                ref = oracles.real_root_count_bruteforce(
                    rr, h_ratio, 1.0, 0.0, c)
                assert got == ref

    def test_result_is_atlas_curves(self):
        curves = atlas(1.0, 0.5, [])
        assert isinstance(curves, AtlasCurves)
        assert len(curves.branches) == 6
        assert curves.lines == []

    def test_state_matrix_spectrum_matches_polynomial(self):
        rng = np.random.default_rng(61)
        p = random_state(rng)
        A = state_matrix(p)
        eig = np.sort_complex(np.linalg.eigvals(A))
        mine = np.sort_complex(quartic_roots(characteristic_polynomial(p)))
        assert np.allclose(eig, mine, atol=1e-9)
