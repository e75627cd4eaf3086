"""Grid, state and norm checks against slow reference transforms."""

import io

import numpy as np
import pytest

from pycnolab.core import (
    BlowUpError,
    DEPTH_FLOOR,
    LevelGrid,
    SobolevIndex,
    SpatialGrid,
    check_thickness,
    irfft,
    rfft,
    write_table,
)
from pycnolab.bilayer import BilayerState
from pycnolab.stratified import StratifiedState

from oracles import dft_sobolev_norm


def sobolev_norm(g, values, s):
    """H^s norm of one sample row through the batched production path."""
    (norm,) = g.sobolev_norms_rows(values, s)
    return norm


class TestSpatialGrid:
    def test_rejects_odd_and_tiny(self):
        with pytest.raises(ValueError):
            SpatialGrid(7)
        with pytest.raises(ValueError):
            SpatialGrid(6)
        with pytest.raises(ValueError):
            SpatialGrid(16, length=0.0)

    def test_points_and_spacing(self):
        g = SpatialGrid(16, length=4.0)
        assert g.dx == 0.25
        assert g.x[0] == 0.0 and g.x[-1] == 4.0 - 0.25


class TestLevelGrid:
    def test_uniform_weights(self):
        lg = LevelGrid.uniform(10)
        assert lg.n_r == 10
        assert abs(lg.w.sum() - 1.0) < 1e-15
        assert np.allclose(lg.w, 0.1)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            LevelGrid([-1.0, -0.5, -0.6, 0.0])
        with pytest.raises(ValueError):
            LevelGrid([-0.9, -0.5, 0.0])

    def test_interface_edge_exact(self):
        lg = LevelGrid.with_interface(16, -1.0 / 3.0)
        idx = lg.interface_edge_index(-1.0 / 3.0)
        assert idx is not None
        assert lg.edges[idx] == -1.0 / 3.0
        assert abs(lg.w.sum() - 1.0) < 1e-12

    def test_clustered_grid_still_valid(self):
        lg = LevelGrid.with_interface(64, -0.25, cluster=6.0)
        assert lg.interface_edge_index(-0.25) is not None
        # clustering should shrink the cells next to the interface
        idx = lg.interface_edge_index(-0.25)
        assert lg.w[idx] < lg.w[0]
        assert lg.w[idx - 1] < lg.w[0]

    @pytest.mark.parametrize("n_r", [1, 0, -3])
    def test_too_few_cells_rejected(self, n_r):
        # these once failed in the edge checks or in np.linspace
        with pytest.raises(ValueError, match=f"n_r must be >= 2.*got {n_r}"):
            LevelGrid.with_interface(n_r, -0.25)

    @pytest.mark.parametrize("cluster", [-1.0, np.nan, np.inf])
    def test_bad_cluster_rejected(self, cluster):
        # a NaN or negative cluster once gave a uniform grid silently
        with pytest.raises(ValueError, match="cluster must be finite"):
            LevelGrid.with_interface(16, -0.25, cluster=cluster)


GRID16, LEVELS4 = SpatialGrid(16), LevelGrid.uniform(4)


def two_layer_arrays(values):
    """A BilayerState of `values` and the arrays it holds."""
    state = BilayerState(0.0, GRID16, values)
    return [state.stacked, state.H_s, state.H_b, state.U_s, state.U_b]


def column_h_arrays(values):
    """A StratifiedState with h = `values`, u = 0, and its arrays."""
    state = StratifiedState(0.0, GRID16, LEVELS4, values, np.zeros((4, 16)))
    return [state.h, state.u]


def column_u_arrays(values):
    """A StratifiedState with h = 0, u = `values`, and its arrays."""
    state = StratifiedState(0.0, GRID16, LEVELS4, np.zeros((4, 16)), values)
    return [state.h, state.u]


@pytest.mark.parametrize("make", [two_layer_arrays, column_h_arrays,
                                  column_u_arrays])
class TestStates:
    """Both state classes copy, check and freeze their (4, 16) arrays."""

    def test_wrong_shape_rejected(self, make):
        for bad in (np.zeros((5, 16)), np.zeros((4, 15)), np.zeros(16)):
            with pytest.raises(ValueError, match="has shape"):
                make(bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_rejected(self, make, entry):
        bad = np.zeros((4, 16))
        bad[1, 3] = entry
        with pytest.raises(ValueError, match="non-finite"):
            make(bad)

    def test_arrays_are_frozen_copies(self, make):
        values = np.zeros((4, 16))
        arrays = make(values)
        values[0, 0] = 1.0
        for a in arrays:
            assert not a.any()
            with pytest.raises(ValueError):
                a[0] = 1.0


class TestSpectralDerivative:
    def test_constant_derivative_is_zero(self):
        g = SpatialGrid(32)
        assert np.max(np.abs(g.derivative(np.ones(32)))) < 1e-14

    def test_sine_first_derivative(self):
        g = SpatialGrid(64, length=3.0)
        k = 2.0 * np.pi / 3.0
        expected = k * np.cos(k * g.x)
        err = np.max(np.abs(g.derivative(np.sin(k * g.x)) - expected))
        assert err < 1e-12, f"first derivative off by {err}"

    def test_sine_second_derivative(self):
        g = SpatialGrid(64)
        expected = -np.sin(g.x)
        err = np.max(np.abs(g.derivative(np.sin(g.x), order=2) - expected))
        assert err < 1e-12, f"second derivative off by {err}"

    def test_second_equals_first_twice(self):
        rng = np.random.default_rng(11)
        g = SpatialGrid(64)
        # band-limited random field
        modes = np.zeros(64, dtype=complex)
        for k in range(1, 9):
            amp = rng.normal() + 1j * rng.normal()
            modes[k] = amp
            modes[-k] = np.conj(amp)
        f = np.fft.ifft(modes).real
        once_twice = g.derivative(g.derivative(f))
        direct = g.derivative(f, order=2)
        scale = np.max(np.abs(direct)) + 1e-30
        assert np.max(np.abs(once_twice - direct)) / scale < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        g = SpatialGrid(32)
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        fa = g.derivative(a)
        fb = g.derivative(b)
        fab = g.derivative(2.0 * a - 3.0 * b)
        assert np.allclose(fab, 2.0 * fa - 3.0 * fb, atol=1e-12)


def same_bits(a, b):
    """Equal shapes and equal float bits, signs of zero included."""
    return a.shape == b.shape and np.array_equal(
        a.view(np.float64).view(np.uint64), b.view(np.float64).view(np.uint64))


class TestRealTransformPair:
    @pytest.mark.parametrize("n_x", [8, 64, 256])
    @pytest.mark.parametrize("lead", [(), (2,), (3, 2), (64,), (2, 64)])
    def test_pair_is_numpys_bit_for_bit(self, n_x, lead):
        rng = np.random.default_rng(n_x + len(lead))
        a = rng.standard_normal((*lead, n_x))
        a[..., :2] = 0.0
        a[..., 2] = -0.0
        half = (*lead, n_x // 2 + 1)
        out = np.empty(half, complex)
        assert rfft(a, out) is out
        assert same_bits(out, np.fft.rfft(a))
        spectrum = out + rng.standard_normal(half) * 1e-3
        back = np.empty((*lead, n_x))
        assert irfft(spectrum, back) is back
        assert same_bits(back, np.fft.irfft(spectrum, n_x))

    def test_grid_filters_take_lists_and_stacks(self):
        g = SpatialGrid(16)
        rows = np.sin(np.stack([g.x, 2.0 * g.x]))
        for f in (g.derivative, g.dealias):
            assert same_bits(f(rows), np.stack([f(row) for row in rows]))
            assert same_bits(f(list(rows[0])), f(rows[0]))
            # a row of n_x + 1 once came back transformed, with no error
            for shape in (12, 15, 17, 18, 20, (3, 17)):
                with pytest.raises(ValueError, match="last axis of n_x = 16"):
                    f(np.ones(shape))


def test_check_thickness_takes_floats_and_tuples():
    check_thickness(0.5, 0.0)
    check_thickness((2.0 * DEPTH_FLOOR, 1.0), 0.0)
    with pytest.raises(BlowUpError, match="fell to"):
        check_thickness(DEPTH_FLOOR, 0.0)
    with pytest.raises(BlowUpError, match="at t = 2"):
        check_thickness((np.ones(3), np.array([1.0, 0.0, 1.0])), 2.0)


class TestSobolevNorm:
    def test_zero_field(self):
        g = SpatialGrid(16)
        assert sobolev_norm(g, np.zeros(16), 2.0) == 0.0

    def test_sine_l2_value(self):
        g = SpatialGrid(64)
        assert abs(sobolev_norm(g, np.sin(g.x), 0.0) - np.sqrt(np.pi)) < 1e-13

    def test_sine_h1_value(self):
        g = SpatialGrid(64)
        assert (abs(sobolev_norm(g, np.sin(g.x), 1.0) - np.sqrt(2.0 * np.pi))
                < 1e-13)

    def test_matches_slow_dft(self):
        rng = np.random.default_rng(7)
        g = SpatialGrid(48, length=5.0)
        rows = rng.normal(size=(3, 48))
        for s in (0.0, 0.5, 1.0, 2.0):
            mine = g.sobolev_norms_rows(rows, s)
            for vals, got in zip(rows, mine):
                ref = dft_sobolev_norm(vals, 5.0, s)
                assert abs(got - ref) < 1e-10 * (1.0 + ref), (
                    f"s={s}: {got} vs {ref}")
                # a row's norm does not depend on the batch it comes in
                assert got == sobolev_norm(g, vals, s)

    def test_parseval_at_s0(self):
        rng = np.random.default_rng(19)
        g = SpatialGrid(32, length=2.0)
        vals = rng.normal(size=32)
        quad = np.sqrt(np.sum(vals ** 2) * g.dx)
        assert abs(sobolev_norm(g, vals, 0.0) - quad) < 1e-12 * quad

    def test_monotone_in_s(self):
        rng = np.random.default_rng(23)
        g = SpatialGrid(32)
        vals = rng.normal(size=32)
        norms = [sobolev_norm(g, vals, s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SobolevIndex(-0.5)
        with pytest.raises(ValueError):
            SpatialGrid(16).sobolev_norms_rows(np.zeros(16), -0.5)


class TestMixedNorm:
    """Per-level norms and the sup/integral reductions the solvers take."""

    def test_zero(self):
        g = SpatialGrid(16)
        lg = LevelGrid.uniform(5)
        z = np.zeros((lg.n_r, g.n_x))
        assert np.array_equal(g.sobolev_norms_rows(z, 1.0), np.zeros(5))

    def test_per_level_constants(self):
        g = SpatialGrid(16, length=2.0)
        lg = LevelGrid.uniform(4)
        c = np.array([1.0, -2.0, 3.0, 0.5])
        vals = np.repeat(c[:, None], 16, axis=1)
        norms = g.sobolev_norms_rows(vals, 0.0)
        root_l = np.sqrt(2.0)
        assert np.max(np.abs(norms - np.abs(c) * root_l)) < 1e-13
        assert abs(np.max(norms) - 3.0 * root_l) < 1e-13
        integral = np.sum(lg.w * norms)
        assert abs(integral - np.sum(lg.w * np.abs(c)) * root_l) < 1e-13

    def test_r_independent_field_agrees(self):
        rng = np.random.default_rng(5)
        g = SpatialGrid(32)
        lg = LevelGrid.uniform(7)
        row = rng.normal(size=32)
        norms = g.sobolev_norms_rows(np.tile(row, (7, 1)), 1.0)
        sup = np.max(norms)
        integral = np.sum(lg.w * norms)
        assert abs(sup - integral) < 1e-12 * sup
        assert abs(sup - sobolev_norm(g, row, 1.0)) < 1e-12 * sup

    def test_integral_below_sup(self):
        rng = np.random.default_rng(31)
        g = SpatialGrid(32)
        lg = LevelGrid.uniform(6)
        norms = g.sobolev_norms_rows(rng.normal(size=(6, 32)), 0.5)
        assert np.sum(lg.w * norms) <= np.max(norms) + 1e-14


def test_write_table_cells():
    f = io.StringIO()
    write_table(f, "a,b,c,d,e", [
        (np.float64(0.1), 1, "Hyperbolic", True, np.bool_(False)),
        (np.float64(1e-300), -3, "4", False, np.bool_(True))])
    assert f.getvalue() == ("a,b,c,d,e\n"
                            "0.1,1.0,Hyperbolic,true,false\n"
                            "1e-300,-3.0,4,false,true\n")
