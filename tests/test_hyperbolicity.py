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
    certify_arrays,
    characteristic_speed_bound,
    classify,
    classify_arrays,
    coefficient_arrays,
    count_line_intersections,
    critical_froude,
    froude_table,
    in_sigma_set,
    leading_minors,
    max_characteristic_speed,
    quartic_roots_batch,
    state_matrices,
    symmetrizer_fields,
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


def assert_row_equals(block, i, one, j=None):
    """Row i of a block result equals a one-point result, or row j of
    another block result, bit for bit."""
    for name, value in vars(one).items():
        row = getattr(block, name)[i]
        value = value if j is None else value[j]
        if np.ndim(value):
            assert np.array_equal(row, value), (name, i)
            assert row.tobytes() == value.astype(row.dtype).tobytes(), (
                name, i)
        else:
            row, value = np.asarray(row), np.asarray(value)
            assert row.dtype == value.dtype, (name, i)
            assert row.tobytes() == value.tobytes(), (name, i)


def certify(points):
    """`certify_arrays` on a block of StatePoints."""
    return certify_arrays(*oracles.point_arrays(points))


def in_point_set(point, sigma):
    """`in_sigma_set` at one state point, with its exact Fr_-."""
    ratio = point.H_s / point.H_b
    return in_sigma_set(sigma, point.rho_ratio, ratio, ratio,
                        point.H_s + point.H_b,
                        lambda: point.thresholds[0]
                        - abs(point.U_b - point.U_s) / np.sqrt(point.H_b))


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
            disc = oracles.quartic_discriminant(*coeffs[1:])
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
        block = classify_arrays(*oracles.point_arrays(pts))
        kinds = set()
        for i, p in enumerate(pts):
            coeffs = oracles.characteristic_polynomial(p)
            want = oracles.companion_roots(coeffs)
            assert np.array_equal(block.coefficients[i], coeffs), i
            assert np.array_equal(block.roots[i], want), (
                f"polished roots at {i}")
            assert np.array_equal(
                batch[i], oracles.companion_roots(coeffs, polish=False)), i
            kinds.add(np.iscomplexobj(want))
        assert kinds == {False, True}
        assert classify_arrays(*oracles.point_arrays([])).roots.shape == (
            0, 4)

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
        k = 0.5 * 0.3 * 0.7
        apart = max(0.2 + np.sqrt(0.7 + np.sqrt(k)),
                    0.1 + np.sqrt(0.3 + np.sqrt(k)))
        balanced = 0.2 + np.sqrt(0.5 + np.sqrt(0.2 * 0.2 + k))
        want = min(apart, balanced) * (1.0 + 4.0 * np.finfo(float).eps)
        assert characteristic_speed_bound(0.5, 0.3, 0.7, -0.1, 0.2) == want
        points = [(0.3, 0.7, -0.1, 0.2), (0.6, 0.4, 0.5, 0.0)]
        stacked = [np.array(v) for v in zip(*points)]
        assert characteristic_speed_bound(0.5, *stacked) == max(
            characteristic_speed_bound(0.5, *v) for v in points)

    def test_speed_bound_is_tight_at_zero_shear(self):
        # with U_s = U_b = U the fastest roots are U +- sqrt(X) exactly,
        # X the larger root of (X - H_b)(X - H_s) = K; solved about U
        rng = np.random.default_rng(18)
        n = 2000
        rr = rng.uniform(0.01, 8.0, n)
        H_s, H_b = 10.0 ** rng.uniform(-4.0, 1.0, (2, n))
        U = rng.uniform(-3.0, 3.0, n)
        roots = quartic_roots_batch(*coefficient_arrays(rr, H_s, H_b, 0.0,
                                                        0.0))
        speeds = np.abs(U) + np.max(np.abs(roots), axis=-1)
        bounds = np.array([characteristic_speed_bound(*v) for v in
                           zip(rr, H_s, H_b, U, U)])
        assert np.max(np.abs(bounds / speeds - 1.0)) <= 1e-12

    def test_pruned_speed_equals_full_solve(self):
        # the quartic is solved only at points whose bound can pass the
        # largest root found; the maximum is the float of one batch over
        # every point, on grids at zero shear, with elliptic points and
        # with density ratios above 1
        rng = np.random.default_rng(19)
        x = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        zero_shear = elliptic = heavy = 0
        for _ in range(1200):
            rr = (rng.uniform(1.0, 8.0) if rng.uniform() < 0.3
                  else rng.uniform(0.01, 1.0))
            depth_s, depth_b = 10.0 ** rng.uniform(-2.0, 1.0, 2)
            amp = rng.uniform(0.0, 0.5, 4) * rng.integers(0, 2, 4)
            phase = rng.uniform(0.0, 2.0 * np.pi, 4)
            H_s = depth_s * (1.0 + amp[0] * np.sin(x + phase[0]))
            H_b = depth_b * (1.0 + amp[1] * np.sin(2.0 * x + phase[1]))
            shear = (rng.choice([0.0, rng.uniform(-2.0, 2.0)])
                     * np.sqrt(depth_b))
            U_s = (rng.uniform(-1.0, 1.0) - 0.5 * shear
                   + 0.1 * amp[2] * np.sin(x + phase[2]))
            U_b = U_s + shear + (0.1 * amp[3] * np.sin(3.0 * x + phase[3])
                                 if shear else 0.0)
            roots = quartic_roots_batch(*coefficient_arrays(rr, H_s, H_b,
                                                            U_s, U_b))
            want = float(np.max(np.abs(roots)))
            assert max_characteristic_speed(rr, H_s, H_b, U_s, U_b) == want
            zero_shear += not shear
            elliptic += bool(np.any(roots.imag != 0.0))
            heavy += rr > 1.0
        assert min(zero_shear, elliptic, heavy) > 200, (zero_shear,
                                                        elliptic, heavy)

    @pytest.mark.parametrize("field, value", [
        (1, 0.0), (2, -0.1), (3, np.nan), (4, np.nan)])
    def test_speed_solves_every_point_without_a_bound(self, monkeypatch,
                                                      field, value):
        # a depth <= 0 or a NaN field leaves no finite bound to prune
        # with: one solve over every point, as before pruning
        sizes = []
        roots = hyperbolicity.quartic_roots_batch
        monkeypatch.setattr(hyperbolicity, "quartic_roots_batch",
                            lambda *c: sizes.append(np.size(c[0]))
                            or roots(*c))
        fields = [np.full(16, v) for v in (0.5, 0.3, 0.7, -0.1, 0.0)]
        fields[4] += 0.2 * np.sin(np.linspace(0.0, 2.0 * np.pi, 16))
        max_characteristic_speed(*fields)
        assert sizes[0] == 1 and sum(sizes) < 16, sizes
        fields[field][5] = value
        sizes.clear()
        if np.isnan(value):
            # eigvals rejects the NaN matrix, as it did in the full solve
            with pytest.raises(np.linalg.LinAlgError):
                max_characteristic_speed(*fields)
        else:
            assert max_characteristic_speed(*fields) == float(np.max(np.abs(
                roots(*coefficient_arrays(*fields)))))
        assert sizes == [16]


class TestDiscriminant:
    def test_matches_sylvester_resultant(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            b, c, d, e = rng.uniform(-3.0, 3.0, size=4)
            explicit = oracles.quartic_discriminant(b, c, d, e)
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
            disc = oracles.quartic_discriminant(*coeffs[1:])
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

    def test_agrees_with_bisection_oracle(self):
        # over the lab's range, within the bisection's own error
        rng = np.random.default_rng(33)
        hs = rng.uniform(0.05, 20.0, 2000)
        rrs = rng.uniform(0.05, 0.95, 2000)
        fm, fp = critical_froude(hs, rrs)
        for i, (h, rr) in enumerate(zip(hs, rrs)):
            want = oracles.critical_froude_bisection(h, rr)
            assert abs(fm[i] - want[0]) <= 2e-10, f"Fr_- at {(h, rr)}"
            assert abs(fp[i] - want[1]) <= 2e-10, f"Fr_+ at {(h, rr)}"

    # (h_ratio, rho_ratio, Fr_-, Fr_+): the discriminant's zeros in c,
    # found to 50 digits with mpmath
    REFERENCES = (
        (0.05, 0.05, "1.1088946915539099687293696915868345981787308028973",
         "1.3226454386382601979459357205218599915407762798263"),
        (0.3, 0.9, "0.36395925003118936741613138982360028847101926723669",
         "2.1302536860943983381297978352904490790519354166771"),
        (1.0, 0.5, "1.0823922002923939687994464107327788401221441267560",
         "2.6131259297527530557132863468543743071675223766985"),
        (2.5, 0.2, "1.9332374768096420042280744716759123583681455135760",
         "3.0905508324660550366679894657622457300674780199389"),
        (7.0, 0.75, "1.4379462978078044966175560238874685976675187112192",
         "4.8187343751560916513873189098757181089000593129442"),
        (20.0, 0.95, "1.0259113609183378059626566696485463748327354797367",
         "7.1229481533501130232911367817651155069069305198664"),
    )

    def test_matches_50_digit_references(self):
        for h, rr, *digits in self.REFERENCES:
            got = critical_froude(h, rr)
            for value, ref in zip(got, map(float, digits)):
                assert abs(value - ref) <= 1e-13 * ref, f"{(h, rr)}: {got}"

    def test_row_alone_equals_row_in_block(self):
        rng = np.random.default_rng(34)
        hs = rng.uniform(0.05, 20.0, 300)
        rrs = rng.uniform(0.05, 0.95, 300)
        fm, fp = critical_froude(hs, rrs)
        grid = critical_froude(hs.reshape(20, 15), rrs.reshape(20, 15))
        assert np.array_equal(grid[0].ravel(), fm)
        assert np.array_equal(grid[1].ravel(), fp)
        for i, (h, rr) in enumerate(zip(hs.tolist(), rrs.tolist())):
            alone = critical_froude(h, rr)
            assert all(type(v) is float for v in alone)
            assert alone == (fm[i], fp[i]), f"row {i}"

    def test_narrow_window_is_solved(self):
        # rr = 1e-9: the window is 6e-6 of Fr_- wide at h = 1e-4 and 1e4,
        # where the bisection scan could not find it
        hs, fm, fp = froude_table(1e-9, 1e-4, 1e4, n_nodes=5)
        want = {1e-4: ("1.0099968375960797500595504403511424337996752250262",
                       "1.0100031621514202483148229961407317720399727801254"),
                1e4: ("100.99968375960797500595504403511424337996752250262",
                      "101.00031621514202483148229961407317720399727801254")}
        for i in (0, -1):
            ref_minus, ref_plus = map(float, want[hs[i]])
            assert abs(fm[i] - ref_minus) <= 5e-8 * ref_minus
            assert abs(fp[i] - ref_plus) <= 5e-8 * ref_plus
            assert fm[i] < fp[i]

    def test_unresolved_window_raises(self):
        # rr = 1e-12: at extreme depth ratios the two roots of q are not
        # separated from each other or from the complex pair
        with pytest.raises(RuntimeError, match=r"\(0\.0001, 1e-12\)"):
            froude_table(1e-12, 1e-4, 1e4, n_nodes=17)
        with pytest.raises(RuntimeError, match=r"\(10000\.0, 1e-12\)"):
            critical_froude(1e4, 1e-12)
        # two positive roots come back here, 6% below the true pair; only
        # their error bound rejects them
        with pytest.raises(RuntimeError, match="not resolved"):
            critical_froude(1000.0, 3.1622776601683796e-14)

    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            critical_froude(-1.0, 0.5)
        with pytest.raises(ValueError):
            critical_froude(1.0, 1.5)

    def test_arrays_reject_bad_ratios(self):
        with pytest.raises(ValueError):
            critical_froude([1.0, -1.0], 0.5)
        with pytest.raises(ValueError):
            critical_froude(1.0, [0.5, 1.5])
        with pytest.raises(ValueError):
            critical_froude([1.0, np.nan], 0.5)

    def test_table_interpolates_thresholds(self):
        hs, fm, fp = froude_table(0.5, 0.2, 2.0, n_nodes=65)
        assert np.all(np.diff(hs) > 0.0)
        # interpolation error at off-node ratios stays small
        for h in (0.31, 0.77, 1.4):
            exact = critical_froude(h, 0.5)
            assert abs(np.interp(h, hs, fm) - exact[0]) <= 1e-4
            assert abs(np.interp(h, hs, fp) - exact[1]) <= 1e-4

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
        assert in_point_set(good, 0.1)
        # density ratio too close to 1 fails the first clause
        heavy = StatePoint(0.97, 1.0, 0.5, 0.5, 0.0, 0.0)
        assert not in_point_set(heavy, 0.1)
        # extreme depth ratio fails even at rest
        thin = StatePoint(0.5, 1.0, 0.01, 1.0, 0.0, 0.0)
        assert not in_point_set(thin, 0.1)
        # shear eating the margin fails the Froude clause
        fm, _ = critical_froude(1.0, 0.5)
        sheared = StatePoint(0.5, 1.0, 0.5, 0.5, 0.0, (fm - 0.05) * np.sqrt(0.5))
        assert not in_point_set(sheared, 0.1)
        for sigma in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match=r"sigma must lie in"):
                in_point_set(good, sigma)

    def test_margin_runs_only_inside_the_first_three_conditions(self):
        def margin():
            raise AssertionError("margin evaluated")

        # density ratio, depth ratio below and above, total depth
        for args in ((0.97, 1.0, 1.0, 1.0), (0.5, 0.05, 1.0, 1.0),
                     (0.5, 1.0, 11.0, 1.0), (0.5, 1.0, 1.0, 0.05)):
            assert not in_sigma_set(0.1, *args, margin)
        assert in_sigma_set(0.1, 0.5, 1.0, 1.0, 1.0, lambda: 0.1)
        assert not in_sigma_set(0.1, 0.5, 1.0, 1.0, 1.0, lambda: 0.09)


class TestClassificationCore:
    def test_rows_equal_one_point_reports_and_branch_rules(self):
        rng = np.random.default_rng(71)
        pts = [random_state(rng) for _ in range(60)]
        # shears on each threshold and within the tangency tolerance
        # 1e-9 (1 + shear) of it, the last pair farther than 1e-9 shear
        for h, rr in ((1.0, 0.5), (0.4, 0.2)):
            fm, fp = critical_froude(h, rr)
            for shear in (fm, fp, fm * (1.0 + 5e-10), fp * (1.0 - 5e-10),
                          fm + 1e-9 * (fm + 0.5), fp - 1e-9 * (fp + 0.5)):
                pts.append(StatePoint(rr, 1.0, h, 1.0, 0.0, shear))
        thresholds = [p.thresholds for p in pts]
        # near-collision: at rho_s/rho_b = 1e-18 the roots +-sqrt(1 +-
        # 1e-9) lie pairwise 1e-9 apart; the window is too narrow to
        # resolve, so the thresholds are given
        pts.append(StatePoint(1e-18, 1.0, 1.0, 1.0, 0.0, 0.0))
        thresholds.append((0.5, 2.0))
        arrays = oracles.point_arrays(pts, thresholds)
        block = classify_arrays(*arrays)
        for i, p in enumerate(pts):
            # a row alone, as scalars, is the row in the block
            one = classify_arrays(*(a[i] for a in arrays))
            assert_row_equals(block, i, one)
            if i < 72:
                assert_row_equals(block, i, classify(p))
            assert (block.real_count[i], block.regime[i],
                    block.degenerate[i]) == oracles.regime_by_branches(
                        one.roots, *thresholds[i], one.shear), i
        assert block.degenerate[60:].all()
        tangent = np.minimum(np.abs(block.shear - block.fr_minus),
                             np.abs(block.shear - block.fr_plus))
        assert np.all(tangent[60:72] <= 1e-9 * (1.0 + block.shear[60:72]))
        assert np.all(tangent[[64, 65, 70, 71]]
                      > 1e-9 * block.shear[[64, 65, 70, 71]])
        # the last point's flag comes from its roots alone
        assert tangent[72] > 0.4
        assert set(block.regime[:60]) == {"Hyperbolic", "Elliptic",
                                          "FastHyperbolic"}

    @pytest.mark.parametrize("counted", ["odd", "four"])
    def test_counts_against_the_window_take_the_threshold_test(
            self, monkeypatch, counted):
        solve = hyperbolicity._companion_roots

        def miscounted(coeffs, polish):
            # "odd": one root of a conjugate pair within the real
            # tolerance, its partner outside it (three or one real
            # roots); "four": a pair a +- ib moved to a + b and a - b,
            # four distinct real roots
            roots = solve(coeffs, polish).astype(complex)
            if counted == "four":
                return roots.real + roots.imag + 0j
            tol = 1e-9 * (1.0 + np.max(np.abs(roots), axis=-1))
            roots[..., 2] = roots[..., 2].real + 0.5j * tol
            roots[..., 3] = roots[..., 3].real - 2.0j * tol
            return roots

        fm, fp = critical_froude(0.5, 0.3)
        pts = [StatePoint(0.3, 1.0, 0.5, 1.0, 0.2, 0.2 + f)
               for f in (0.5 * fm, 0.5 * (fm + fp), 2.0 * fp)]
        # the points keep the thresholds read here, before the threshold
        # solver's companion roots are miscounted too
        arrays = oracles.point_arrays(pts)
        monkeypatch.setattr(hyperbolicity, "_companion_roots", miscounted)
        block = classify_arrays(*arrays)
        if counted == "odd":
            assert np.all(block.real_count % 2 == 1)
            assert list(block.degenerate) == [True, True, True]
            assert list(block.regime) == ["Hyperbolic", "Elliptic",
                                          "FastHyperbolic"]
        else:
            # only inside the window do the count and the test disagree
            assert list(block.real_count) == [4, 4, 4]
            assert list(block.degenerate) == [False, True, False]
            assert list(block.regime) == ["Hyperbolic", "FastHyperbolic",
                                          "FastHyperbolic"]
        for i, p in enumerate(pts):
            assert_row_equals(block, i, classify(p))
            assert (block.real_count[i], block.regime[i],
                    block.degenerate[i]) == oracles.regime_by_branches(
                        block.roots[i], fm, fp, block.shear[i]), i


class TestSymmetrizer:
    def test_symmetrizes_exactly(self):
        rng = np.random.default_rng(51)
        pts = [hyperbolic_state(rng) for _ in range(40)]
        sym = certify(pts)
        i = np.argmax(sym.asymmetry)
        assert sym.asymmetry[i] <= 1e-12, (
            f"S A asymmetry {sym.asymmetry[i]:.3e} at {pts[i]}")
        assert np.array_equal(sym.S, sym.S.transpose(0, 2, 1))

    def test_positive_definite_with_positive_minors(self):
        rng = np.random.default_rng(52)
        pts = [hyperbolic_state(rng) for _ in range(40)]
        sym = certify(pts)
        assert sym.certified.all(), (
            f"not certified at {pts[np.argmin(sym.certified)]}")
        assert np.all(sym.minors > 0.0)
        assert np.all(sym.min_eigenvalue > 0.0)
        assert np.all(np.linalg.eigvalsh(sym.S)[:, 0] > 0.0)

    def test_minor_closed_forms(self):
        rng = np.random.default_rng(53)
        pts = [hyperbolic_state(rng) for _ in range(30)]
        sym = certify(pts)
        for p, lam, minors in zip(pts, sym.lam, sym.minors):
            rr = p.rho_ratio
            us = p.U_s - lam
            want = np.array([
                rr,
                rr * (1.0 - rr),
                rr ** 2 * (p.H_s * (1.0 - rr) - us ** 2),
                rr ** 2 * np.polyval(oracles.characteristic_polynomial(p), lam),
            ])
            rel = np.abs(minors - want) / (np.abs(want) + 1e-30)
            assert np.max(rel) <= 1e-9, (
                f"minor closed forms off by {np.max(rel):.2e} at {p}")

    def test_shift_between_middle_roots(self):
        rng = np.random.default_rng(54)
        pts = [hyperbolic_state(rng) for _ in range(20)]
        for p, lam in zip(pts, certify(pts).lam):
            lams = np.sort(classify(p).roots.real)
            assert lams[1] < lam < lams[2], (
                f"shift {lam} outside middle-root gap ({lams[1]}, {lams[2]})")

    def test_rejects_elliptic_point(self):
        fm, fp = critical_froude(1.0, 0.5)
        p = StatePoint(0.5, 1.0, 1.0, 1.0, 0.0, 0.5 * (fm + fp))
        with pytest.raises(ValueError):
            certify([p])

    def test_field_assembly_matches_pointwise(self):
        # the stacked assembly against S written out entry by entry, one
        # point at a time, as the module docstring states it
        rng = np.random.default_rng(55)
        pts = [hyperbolic_state(rng) for _ in range(6)]
        lams = certify(pts).lam
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

    def test_block_certificates_equal_one_point_certificates(
            self, monkeypatch):
        rng = np.random.default_rng(57)
        pts = [hyperbolic_state(rng) for _ in range(100)]
        # a report whose middle-root interval lies above [min U, max U]:
        # the clipped midpoint falls outside it, so the shift comes from
        # the golden-section search
        odd = pts[70]
        top = max(odd.U_s, odd.U_b)
        roots = classify(odd).roots
        roots = roots - np.sort(roots.real)[1] + top + 0.5
        lo, hi = np.sort(roots.real)[1:3]
        classify_all = hyperbolicity.classify_arrays
        key = oracles.point_arrays([odd])[:5]

        def shifted(*arrays):
            report = classify_all(*arrays)
            rows = np.all([a == k for a, k in zip(arrays, key)], axis=0)
            report.roots = np.where(rows[:, None], roots, report.roots)
            return report

        monkeypatch.setattr(hyperbolicity, "classify_arrays", shifted)
        halves = certify(pts[:64]), certify(pts[64:])
        block = certify(pts)
        assert lo < block.lam[70] < hi and block.lam[70] > top
        for i, p in enumerate(pts):
            one = certify([p])
            assert_row_equals(block, i, one, 0)
            assert_row_equals(halves[i // 64], i % 64, one, 0)
        assert certify([]).S.shape == (0, 4, 4)

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

    @pytest.mark.parametrize("h_ratio", [-0.5, 0.0, float("nan")])
    def test_rejects_non_positive_depth_ratio(self, h_ratio):
        with pytest.raises(ValueError, match="h_ratio must be positive"):
            atlas(h_ratio, 0.5, [1.0])

    def test_result_is_atlas_curves(self):
        curves = atlas(1.0, 0.5, [])
        assert isinstance(curves, AtlasCurves)
        assert len(curves.branches) == 6
        assert curves.lines == []

    def test_state_matrix_spectrum_matches_polynomial(self):
        rng = np.random.default_rng(61)
        p = random_state(rng)
        A = state_matrices(p.rho_ratio, p.H_s, p.H_b, p.U_s, p.U_b)
        eig = np.sort_complex(np.linalg.eigvals(A))
        mine = np.sort_complex(
            oracles.companion_roots(oracles.characteristic_polynomial(p)))
        assert np.allclose(eig, mine, atol=1e-9)
