"""Grids, fields and discrete norms shared by every solver in the package.

Space is the torus [0, L) sampled on n_x uniform points, so d/dx is a
Fourier multiplier i*xi with xi = 2*pi*k/L and the discrete H^s norm is
the Parseval sum

    ||f||_{H^s}^2 = sum_k (1 + xi_k^2)^s |fhat_k|^2 * L / n_x^2 ,

which reduces to the left-Riemann L^2 quadrature at s = 0. Derivatives
and the 2/3-rule dealiasing act on real fields through real FFTs: every
SpatialGrid holds the multipliers i*xi and the dealias mask over the
rfftfreq half-spectrum, built once and read-only. All real transforms
go through `rfft`/`irfft` here, numpy's own pocketfft gufuncs called
directly: numpy's bits without its per-call wrapper. The vertical
structure lives on a cell decomposition of (-1, 0): cell edges
-1 = e_0 < ... < e_{n_r} = 0, level positions at cell midpoints, weights
w_i = e_{i+1} - e_i. Keeping edges explicit lets a layer interface sit
exactly on an edge, which the embedding identities need.

All fields are immutable once constructed; operations return new arrays.

The failure policy shared by every solver also lives here: one positivity
floor on cell thickness, one blow-up growth factor, one default CFL
number, one blow-up exception and one step-limit exception. So does the
one CSV table writer, `write_table`, and its cell rule `csv_cell`.
"""

import numpy as np

DEFAULT_LENGTH = 2.0 * np.pi
DEPTH_FLOOR = 1e-6
BLOWUP_FACTOR = 1e3
CFL_DEFAULT = 0.4


class BlowUpError(RuntimeError):
    """Raised when a run produces non-finite fields or vanishing depth."""

    def __init__(self, message, t):
        super().__init__(f"{message} at t = {t:.6g}")
        self.t = t


class StepLimitError(ValueError):
    """A step longer than the stability limit of the state it starts from."""


def check_thickness(thickness, t):
    """Raise BlowUpError when a cell thickness is at or below DEPTH_FLOOR.

    For a column the thickness of cell i is w_i (1 + h_i); at two levels
    that is the layer depth Hbar_l + H_l.
    """
    m = float(np.minimum.reduce(thickness, axis=None))
    if m <= DEPTH_FLOOR:
        raise BlowUpError(
            f"cell thickness fell to {m:.3e} (floor {DEPTH_FLOOR})", t)


def check_step(dt, limit, t):
    """Raise StepLimitError when dt exceeds the stability limit."""
    if dt > limit * (1.0 + 1e-12):
        raise StepLimitError(
            f"dt = {dt:.3e} exceeds the stability limit {limit:.3e} "
            f"at t = {t:.6g}")


def check_kappa(kappa):
    """Raise ValueError unless the diffusivity is finite and >= 0."""
    if not 0.0 <= kappa < np.inf:
        raise ValueError(f"kappa must be finite and non-negative, got {kappa}")


def csv_cell(value):
    """One CSV cell: a str as given, a bool as true or false, anything
    else as the shortest exact decimal form of its float (plain, not
    numpy repr), so an integer-valued 1 is written 1.0."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return repr(float(value))


def write_table(f, header, rows):
    """The header line, then one line of comma-joined `csv_cell`s per row."""
    f.write(header + "\n")
    for row in rows:
        f.write(",".join(map(csv_cell, row)) + "\n")


# looked up per call: importing numpy.fft with this module raised peak RSS
def rfft(a, out):
    """np.fft.rfft of the float64 rows of `a` (even length) into `out`."""
    return np.fft._pocketfft_umath.rfft_n_even(a, 1.0, out=out)


def irfft(a, out):
    """np.fft.irfft of the half-spectra `a`, to out.shape[-1] points."""
    return np.fft._pocketfft_umath.irfft(a, 1.0 / out.shape[-1], out=out)


class SobolevIndex(float):
    """A validated Sobolev regularity index s >= 0."""

    def __new__(cls, s):
        s = float(s)
        if not np.isfinite(s) or s < 0.0:
            raise ValueError(f"Sobolev index must be finite and >= 0, got {s}")
        return super().__new__(cls, s)


class SpatialGrid:
    """Uniform periodic grid on [0, L) with cached spectral machinery."""

    def __init__(self, n_x, length=DEFAULT_LENGTH):
        n_x = int(n_x)
        length = float(length)
        if n_x < 8 or n_x % 2 != 0:
            raise ValueError(f"n_x must be even and >= 8, got {n_x}")
        if not np.isfinite(length) or length <= 0.0:
            raise ValueError(f"domain length must be positive, got {length}")
        self.n_x = n_x
        self.length = length
        self.dx = length / n_x
        self.x = np.arange(n_x) * self.dx
        self.x.flags.writeable = False
        # angular wavenumbers in FFT order (the H^s norms sum over these)
        k = np.fft.fftfreq(n_x, d=1.0 / n_x)
        self.xi = 2.0 * np.pi * k / length
        self.xi.flags.writeable = False
        # spectral multipliers of real fields, over the rfft half-spectrum
        k = np.fft.rfftfreq(n_x, d=1.0 / n_x)
        self.ixi = 2j * np.pi * k / length
        self.ixi.flags.writeable = False
        # 2/3 rule: keep k <= n_x/3
        self.dealias_mask = k <= n_x / 3.0
        self.dealias_mask.flags.writeable = False

    def __eq__(self, other):
        return (isinstance(other, SpatialGrid)
                and other.n_x == self.n_x and other.length == self.length)

    def __hash__(self):
        return hash((self.n_x, self.length))

    def __repr__(self):
        return f"SpatialGrid(n_x={self.n_x}, length={self.length})"

    def derivative(self, values, order=1):
        """Spectral d^order/dx^order along the last axis of `values`."""
        if order < 1 or order != int(order):
            raise ValueError(f"derivative order must be a positive integer, got {order}")
        return self._filter(values, self.ixi ** int(order))

    def dealias(self, values):
        """Apply the 2/3 rule along the last axis (zero modes |k| > n_x/3)."""
        return self._filter(values, self.dealias_mask)

    def _filter(self, f, multiplier):
        """irfft(multiplier * rfft(f)) along the last axis of `f`."""
        f = np.asarray(f, dtype=float)
        fhat = rfft(f, np.empty((*f.shape[:-1], f.shape[-1] // 2 + 1), complex))
        return irfft(np.multiply(fhat, multiplier, out=fhat), np.empty_like(f))

    def sobolev_norms_rows(self, values, s):
        """H^s norm of every row of a (m, n_x) array; 1-D is one row."""
        s = SobolevIndex(s)
        values = np.atleast_2d(np.asarray(values, dtype=float))
        fhat = np.fft.fft(values, axis=-1)
        weight = (1.0 + self.xi * self.xi) ** float(s)
        totals = np.sum(weight * np.abs(fhat) ** 2, axis=-1) * self.length / self.n_x ** 2
        return np.sqrt(totals)


class LevelGrid:
    """Cell decomposition of the isopycnal interval (-1, 0).

    Parameters
    ----------
    edges : array_like
        Strictly increasing cell edges with edges[0] = -1 and
        edges[-1] = 0. Levels are the cell midpoints; weights are the
        cell widths, summing to 1.
    """

    def __init__(self, edges):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must be a 1-D array with at least 2 entries")
        if abs(edges[0] + 1.0) > 1e-14 or abs(edges[-1]) > 1e-14:
            raise ValueError("edges must run from -1 to 0")
        if np.any(np.diff(edges) <= 0.0):
            raise ValueError("edges must be strictly increasing")
        self.edges = edges.copy()
        self.edges.flags.writeable = False
        self.n_r = edges.size - 1
        self.r = 0.5 * (edges[:-1] + edges[1:])
        self.r.flags.writeable = False
        self.w = np.diff(edges)
        self.w.flags.writeable = False
        if abs(self.w.sum() - 1.0) > 1e-12:
            raise ValueError("cell weights must sum to 1")

    @classmethod
    def uniform(cls, n_r):
        return cls(np.linspace(-1.0, 0.0, int(n_r) + 1))

    @classmethod
    def with_interface(cls, n_r, interface, cluster=0.0):
        """Grid with a cell edge exactly at `interface`, optionally clustered.

        The n_r cells are split between the two sides proportionally to
        their extents. cluster = 0 gives uniform spacing per side; for
        cluster = beta > 0 the edges follow a sinh stretch that
        concentrates cells at the interface (spacing there smaller by
        roughly beta/sinh(beta)). A negative or non-finite cluster is a
        ValueError.
        """
        n_r = int(n_r)
        interface = float(interface)
        if not -1.0 < interface < 0.0:
            raise ValueError(f"interface must lie in (-1, 0), got {interface}")
        beta = float(cluster)
        if not 0.0 <= beta < np.inf:
            raise ValueError(
                f"cluster must be finite and non-negative, got {cluster}")
        depth_low = interface + 1.0
        n_low = min(max(int(round(n_r * depth_low)), 1), n_r - 1)
        n_up = n_r - n_low

        def side(a, b, n, toward_a):
            # edges from a to b, clustered toward a if toward_a
            t = np.linspace(0.0, 1.0, n + 1)
            if beta > 0.0:
                t = np.sinh(beta * t) / np.sinh(beta)
            if toward_a:
                return a + (b - a) * t
            return b - (b - a) * t[::-1]

        lower = side(interface, -1.0, n_low, True)[::-1]  # -1 .. interface
        upper = side(interface, 0.0, n_up, True)          # interface .. 0
        edges = np.concatenate([lower, upper[1:]])
        edges[0] = -1.0
        edges[-1] = 0.0
        # force the interface edge to the exact requested value
        edges[n_low] = interface
        return cls(edges)

    def interface_edge_index(self, interface, tol=1e-12):
        """Index of the edge matching `interface`, or None."""
        hits = np.nonzero(np.abs(self.edges - interface) <= tol)[0]
        if hits.size == 0:
            return None
        return int(hits[0])

    def __eq__(self, other):
        return (isinstance(other, LevelGrid)
                and other.n_r == self.n_r
                and np.array_equal(other.edges, self.edges))

    def __hash__(self):
        return hash((self.n_r, self.edges.tobytes()))

    def __repr__(self):
        return f"LevelGrid(n_r={self.n_r})"


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains non-finite entries")


class Field1D:
    """Real samples of one scalar field on a SpatialGrid."""

    def __init__(self, values, grid):
        values = np.asarray(values, dtype=float).copy()
        if values.ndim != 1 or values.size != grid.n_x:
            raise ValueError(
                f"field has {values.shape} samples, grid expects ({grid.n_x},)")
        _check_finite(values, "Field1D")
        values.flags.writeable = False
        self.values = values
        self.grid = grid

    @classmethod
    def zeros(cls, grid):
        return cls(np.zeros(grid.n_x), grid)

    def __repr__(self):
        return f"Field1D(n_x={self.grid.n_x})"


class Field2D:
    """Real samples on SpatialGrid x LevelGrid, stored as (n_r, n_x)."""

    def __init__(self, values, grid, levels):
        values = np.asarray(values, dtype=float).copy()
        if values.shape != (levels.n_r, grid.n_x):
            raise ValueError(
                f"field has shape {values.shape}, expected ({levels.n_r}, {grid.n_x})")
        _check_finite(values, "Field2D")
        values.flags.writeable = False
        self.values = values
        self.grid = grid
        self.levels = levels

    @classmethod
    def zeros(cls, grid, levels):
        return cls(np.zeros((levels.n_r, grid.n_x)), grid, levels)

    def __repr__(self):
        return f"Field2D(n_r={self.levels.n_r}, n_x={self.grid.n_x})"

