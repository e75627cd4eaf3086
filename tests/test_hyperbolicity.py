"""Tests for the eigenvalue classifier, thresholds, symmetrizer, atlas."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from pycnolab import hyperbolicity
from pycnolab.hyperbolicity import (
    AtlasCurves,
    StatePoint,
    atlas,
    characteristic_speed_bound,
    classify,
    classify_many,
    coefficient_arrays,
    count_line_intersections,
    critical_froude,
    critical_froude_pairs,
    froude_table,
    in_hyperbolic_set,
    leading_minors,
    max_characteristic_speed,
    quartic_discriminant,
    quartic_roots_batch,
    state_matrix,
    symmetrizer,
    symmetrizer_fields,
    symmetrizers,
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
            mine = oracles.characteristic_polynomial(p)
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
            coeffs = oracles.characteristic_polynomial(p)
            target = -p.rho_ratio * p.H_s * p.H_b
            for lam in (p.U_s + np.sqrt(p.H_s), p.U_s - np.sqrt(p.H_s)):
                val = np.polyval(coeffs, lam)
                assert abs(val - target) <= 1e-10 * (1.0 + abs(target)), (
                    f"P({lam}) = {val}, expected {target}")

    def test_roots_satisfy_polynomial(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            p = random_state(rng)
            coeffs = oracles.characteristic_polynomial(p)
            roots = oracles.companion_roots(coeffs)
            res = np.abs(np.polyval(coeffs, roots))
            scale = (1.0 + np.abs(roots)) ** 4
            assert np.max(res / scale) <= 1e-11, f"root residual {np.max(res)}"

    def test_roots_match_closed_form(self):
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(80):
            p = random_state(rng)
            coeffs = oracles.characteristic_polynomial(p)
            disc = quartic_discriminant(*coeffs[1:])
            scale = np.max(np.abs(coeffs)) + 1.0
            if abs(disc) < 1e-6 * scale ** 6:
                continue  # closed form loses accuracy near double roots
            mine = oracles.companion_roots(coeffs)
            ref = oracles.ferrari_roots(*coeffs[1:])
            for r in ref:
                d = np.min(np.abs(mine - r))
                assert d <= 1e-7 * (1.0 + abs(r)), (
                    f"no companion root near Ferrari root {r} (gap {d})")
            checked += 1
        assert checked >= 50, f"only {checked} generic quartics sampled"

    def test_batch_roots_agree_with_scalar(self):
        # the batched solves equal a companion eigenvalue solve and a
        # np.polyval Newton step taken one point at a time, bit for bit;
        # the block mixes points with four real roots (handed back by
        # np.linalg.eigvals as reals) and points with a complex pair
        rng = np.random.default_rng(15)
        pts = [random_state(rng) for _ in range(40)]
        batch = quartic_roots_batch(*coefficient_arrays(*(
            np.array([getattr(p, name) for p in pts])
            for name in ("rho_ratio", "H_s", "H_b", "U_s", "U_b"))))
        reports = classify_many(pts)
        kinds = set()
        for i, (p, rep) in enumerate(zip(pts, reports)):
            coeffs = oracles.characteristic_polynomial(p)
            want = oracles.companion_roots(coeffs)
            assert np.array_equal(rep.coefficients, coeffs), i
            assert np.array_equal(rep.roots, want), f"polished roots at {i}"
            assert np.array_equal(
                batch[i], oracles.companion_roots(coeffs, polish=False)), i
            kinds.add(np.iscomplexobj(want))
        assert kinds == {False, True}
        assert classify_many([]) == []

    def test_max_speed_bounds_roots(self):
        rng = np.random.default_rng(16)
        p = random_state(rng)
        coeffs = oracles.characteristic_polynomial(p)
        roots = oracles.companion_roots(coeffs)
        speed = max_characteristic_speed(p.rho_ratio, p.H_s, p.H_b, p.U_s, p.U_b)
        assert abs(speed - np.max(np.abs(roots))) <= 1e-9

    @pytest.mark.parametrize("min_log_depth, reach, about_mean", [
        (-6.0, 2.0, False), (-2.0, 50.0, False), (-9.0, 50.0, True)])
    def test_speed_bound_dominates_companion_roots(self, min_log_depth, reach,
                                                   about_mean):
        # state by state, the closed-form bound against the largest
        # companion-root magnitude on 12,000 states: density ratios on
        # both sides of 1, depths down to 10**min_log_depth, mean
        # velocities up to +-reach and shears up to 3 sqrt(H_b), so all
        # three regimes occur. The bound's slack shrinks with
        # sqrt(depth)/|velocity|; where a tiny depth meets a large
        # velocity the companion solve about 0 errs by more than that
        # slack (up to 1.7e-4 relative above the bound, where 50-digit
        # roots stay below it), so that case solves the quartic about the
        # mean velocity c instead
        rng = np.random.default_rng(17)
        n = 12_000
        rr = np.where(rng.uniform(size=n) < 0.3, rng.uniform(1.0, 8.0, n),
                      rng.uniform(0.01, 1.0, n))
        H_s, H_b = 10.0 ** rng.uniform(min_log_depth, 1.0, (2, n))
        mean = rng.uniform(-reach, reach, n)
        half_shear = rng.uniform(-1.5, 1.5, n) * np.sqrt(H_b)
        U_s, U_b = mean - half_shear, mean + half_shear
        c = mean if about_mean else np.zeros(n)
        roots = c[:, None] + quartic_roots_batch(
            *coefficient_arrays(rr, H_s, H_b, U_s - c, U_b - c))
        speeds = np.max(np.abs(roots), axis=-1)
        bounds = np.array([characteristic_speed_bound(*v) for v in
                           zip(rr, H_s, H_b, U_s, U_b)])
        assert np.all(bounds >= speeds), np.max(speeds / bounds)
        assert np.sum(np.abs(roots.imag).max(axis=-1) > 0.0) > 2000
        assert np.sum(rr >= 1.0) > 3000
        assert np.sum(np.minimum(H_s, H_b) < 10.0 ** (min_log_depth + 2)) > 2000
        assert np.sum(mean < -0.8 * reach) > 1000
        assert np.sum(mean > 0.8 * reach) > 1000
        # over a grid the bound is the largest pointwise one
        assert characteristic_speed_bound(rr, H_s, H_b, U_s, U_b) == \
            bounds.max()

    def test_speed_bound_needs_positive_depths(self):
        H = np.array([0.5, 0.0, 0.3])
        assert characteristic_speed_bound(0.5, H, 1.0, 0.0, 0.0) == np.inf
        assert characteristic_speed_bound(0.5, 1.0, -H, 0.0, 0.0) == np.inf
        U = np.array([0.0, np.nan, 0.0])
        assert np.isnan(characteristic_speed_bound(0.5, 1.0, 1.0, 0.0, U))

    def test_speed_bound_takes_floats_and_arrays(self):
        # at floats the closed form itself; over arrays the worst point
        root_k = np.sqrt(0.5 * 0.3 * 0.7)
        want = max(0.2 + np.sqrt(0.7 + root_k), 0.1 + np.sqrt(0.3 + root_k))
        assert characteristic_speed_bound(0.5, 0.3, 0.7, -0.1, 0.2) == want
        points = [(0.3, 0.7, -0.1, 0.2), (0.6, 0.4, 0.5, 0.0)]
        stacked = [np.array(v) for v in zip(*points)]
        assert characteristic_speed_bound(0.5, *stacked) == max(
            characteristic_speed_bound(0.5, *v) for v in points)


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
            coeffs = oracles.characteristic_polynomial(p)
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

    def test_pairs_equal_scalar_thresholds(self, monkeypatch):
        # every row keeps its own density ratio; at rr = 1e-6 the first
        # scan misses the elliptic window and the row takes the scalar
        # refinement. 160 rows span three scan chunks (64, 64 and 32
        # rows), each with missed rows.
        rng = np.random.default_rng(32)
        hs = rng.uniform(0.05, 20.0, 160)
        rrs = rng.uniform(0.02, 0.98, 160)
        rrs[::8] = 1e-6
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return critical_froude(*args, **kwargs)

        monkeypatch.setattr(hyperbolicity, "critical_froude", counted)
        fm, fp = critical_froude_pairs(hs, rrs)
        assert calls and {rr for _, rr in calls} == {1e-6}
        missed = [i for i, h in enumerate(hs) if (h, 1e-6) in calls]
        assert {i // hyperbolicity._SCAN_ROWS for i in missed} == {0, 1, 2}
        for i, (h, rr) in enumerate(zip(hs, rrs)):
            assert (fm[i], fp[i]) == critical_froude(h, rr), f"row {i}"

    def test_pairs_reject_bad_ratios(self):
        with pytest.raises(ValueError):
            critical_froude_pairs([1.0, -1.0], 0.5)
        with pytest.raises(ValueError):
            critical_froude_pairs(1.0, [0.5, 1.5])

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

    @pytest.mark.parametrize("value", [
        True, False, "0.5", None, float("nan"), float("inf"), 10 ** 400])
    def test_point_rejects_non_numbers(self, value):
        # a bool is not a depth, and a 400-digit integer overflows a float
        fields = dict(rho_s=0.5, rho_b=1.0, H_s=0.4, H_b=0.6, U_s=0.0, U_b=0.0)
        for name in fields:
            with pytest.raises(ValueError, match=f"state point {name} must"):
                StatePoint(**{**fields, name: value})
        assert StatePoint(**{**fields, "H_s": 1}).H_s == 1

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
                rr ** 2 * np.polyval(oracles.characteristic_polynomial(p), sym.lam),
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
        # the stacked assembly against S written out entry by entry, one
        # point at a time, as the module docstring states it
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
            rr, us, ub = p.rho_ratio, p.U_s - lams[i], p.U_b - lams[i]
            direct = np.array([[rr, rr, rr * us, 0.0],
                               [rr, 1.0, 0.0, ub],
                               [rr * us, 0.0, rr * p.H_s, 0.0],
                               [0.0, ub, 0.0, p.H_b]])
            assert np.array_equal(stack[i], direct), f"stacked S differs at {i}"

    def test_block_certificates_equal_one_point_certificates(self):
        rng = np.random.default_rng(57)
        pts = [hyperbolic_state(rng) for _ in range(100)]
        reports = classify_many(pts)
        # a report whose middle-root interval lies above [min U, max U]:
        # the clipped midpoint falls outside it, so the shift comes from
        # the golden-section search
        top = max(pts[70].U_s, pts[70].U_b)
        roots = reports[70].roots
        roots = roots - np.sort(roots.real)[1] + top + 0.5
        reports[70] = replace(reports[70], roots=roots)
        lo, hi = np.sort(roots.real)[1:3]
        blocks = [(pts[:64], reports[:64]), (pts[64:], reports[64:])]
        certs = [c for block in blocks for c in symmetrizers(*block)]
        assert lo < certs[70].lam < hi and certs[70].lam > top
        for i, (p, rep, cert) in enumerate(zip(pts, reports, certs)):
            one = symmetrizer(p, rep)
            for name in ("lam", "min_eigenvalue", "asymmetry", "certified"):
                assert getattr(cert, name) == getattr(one, name), (name, i)
                assert type(getattr(cert, name)) is type(getattr(one, name))
            for name in ("S", "SA", "minors"):
                assert getattr(cert, name).tobytes() == \
                    getattr(one, name).tobytes(), (name, i)
        assert symmetrizers([]) == []

    def test_minors_helper_is_determinants(self):
        rng = np.random.default_rng(56)
        M = rng.normal(size=(3, 4, 4))
        M = M @ M.transpose(0, 2, 1) + 4.0 * np.eye(4)
        minors = leading_minors(M)
        assert minors.shape == (3, 4)
        assert np.array_equal(leading_minors(M[1]), minors[1])
        for j in range(3):
            for k in range(1, 5):
                assert abs(minors[j, k - 1]
                           - np.linalg.det(M[j, :k, :k])) <= 1e-12


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
        mine = np.sort_complex(
            oracles.companion_roots(oracles.characteristic_polynomial(p)))
        assert np.allclose(eig, mine, atol=1e-9)
