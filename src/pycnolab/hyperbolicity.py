"""Eigenvalue structure of the bilayer first-order system.

At a state point (H_s, H_b, U_s, U_b) with density ratio rr = rho_s/rho_b
the 4x4 coefficient matrix

        A = [[U_s, 0,   H_s, 0  ],
             [0,   U_b, 0,   H_b],
             [1,   1,   U_s, 0  ],
             [rr,  1,   0,   U_b]]

has characteristic polynomial

    P(l) = ((U_b - l)^2 - H_b) ((U_s - l)^2 - H_s) - rr H_s H_b ,

a quartic whose real-root count switches between 4 (hyperbolic), 2
(elliptic, one conjugate pair) and 4 again (supercritical) as the scaled
shear |U_b - U_s|/sqrt(H_b) crosses two thresholds Fr_- < Fr_+ that
depend only on H_s/H_b and rr. In normalized variables
p_s = (U_s - l)/sqrt(H_s), p_b = (U_b - l)/sqrt(H_b) the real roots are
the intersections of the curve (p_s^2 - 1)(p_b^2 - 1) = rr (an inner
oval plus four hyperbola-like branches) with the line
p_b = p_s sqrt(H_s/H_b) + (U_b - U_s)/sqrt(H_b).

Since P(U_s +- sqrt(H_s)) = -rr H_s H_b < 0, the quartic always has at
least two real roots, so the sign of its discriminant decides the count
outright: positive means 4 real, negative means 2.

In the normalized state H_b = 1, H_s = h = H_s/H_b, U_s = 0, U_b = c
(r = rr) that discriminant is even in c, D(c) = 16 h q(c^2), with the
monic quartic

    q(s) = s^4 + (h+1)(r-4) s^3
           + (6h^2 - 3h^2 r + h r^2 - 26hr + 4h - 3r + 6) s^2
           - (h+1)(4h^2 - 3h^2 r + 20hr^2 - 10hr - 8h - 3r + 4) s
           + (1-r)((h-1)^2 + 4hr)^2 .

q(0) > 0 and q is negative inside the elliptic window, so Fr_- and
Fr_+ are the square roots of its two positive roots (the thresholds of
Ovsyannikov 1979, "Two-layer 'shallow water' model").

For hyperbolic points the matrix S built from a shift l between the two
middle roots,

        S = [[rr,     rr,  rr us,  0 ],
             [rr,     1,   0,      ub],
             [rr us,  0,   rr H_s, 0 ],
             [0,      ub,  0,      H_b]]      (us = U_s - l, ub = U_b - l)

is symmetric, makes S A symmetric exactly, and is positive definite
precisely when its leading principal minors (rr, rr(1-rr),
rr^2 (H_s (1-rr) - us^2), rr^2 P(l)) are positive.

Both checks work on blocks of points held as arrays, one entry per
point: `classify_arrays` and `certify_arrays` take (rho_ratio, H_s, H_b,
U_s, U_b, Fr_-, Fr_+) arrays and return one report whose fields are
arrays. `classify` is their one-point front for a StatePoint.
"""

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

_REAL_TOL = 1e-9


@dataclass(frozen=True)
class StatePoint:
    """One bilayer state (densities, total depths, total velocities),
    immutable, so its Froude thresholds are solved once, on first read."""
    rho_s: float
    rho_b: float
    H_s: float
    H_b: float
    U_s: float
    U_b: float

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            try:
                finite = (not isinstance(value, (bool, np.bool_))
                          and math.isfinite(value))
            except (TypeError, OverflowError):
                # not a real number, or an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"state point {name} must be a finite "
                                 f"number, got {value!r}")
        if self.rho_b <= 0.0 or self.rho_s <= 0.0:
            raise ValueError("densities must be positive")
        if self.H_s <= 0.0 or self.H_b <= 0.0:
            raise ValueError(f"depths must be positive, got ({self.H_s}, {self.H_b})")

    @property
    def rho_ratio(self):
        return self.rho_s / self.rho_b

    @cached_property
    def thresholds(self):
        """(Fr_-, Fr_+) at this point's depth and density ratios."""
        return critical_froude(self.H_s / self.H_b, self.rho_ratio)

    def require_stable(self):
        if not self.rho_s < self.rho_b:
            raise ValueError(
                f"stable stratification rho_s < rho_b required, got "
                f"{self.rho_s} >= {self.rho_b}")


@dataclass(eq=False)
class HyperbolicityReport:
    """The regimes of a block of state points from `classify_arrays`, one
    entry (or row) per point; from `classify`, the regime of one point."""
    coefficients: np.ndarray
    roots: np.ndarray
    real_count: int
    regime: str
    fr_minus: float
    fr_plus: float
    shear: float
    margin: float
    degenerate: bool


@dataclass(eq=False)
class Symmetrizer:
    """The certified symmetrizers of a block of hyperbolic points from
    `certify_arrays`: one entry (or row) per point."""
    lam: float
    S: np.ndarray
    certified: bool
    minors: np.ndarray
    min_eigenvalue: float
    asymmetry: float


# ----------------------------------------------------------------------
# characteristic polynomial and root machinery
# ----------------------------------------------------------------------

def coefficient_arrays(rho_ratio, H_s, H_b, U_s, U_b):
    """Monic quartic coefficients (c3, c2, c1, c0) over broadcast arrays.

    Expansion of ((U_b-l)^2 - H_b)((U_s-l)^2 - H_s) - rr H_s H_b; a
    coefficient whose inputs are all scalars stays a scalar.
    """
    # (l^2 - 2 U_b l + U_b^2 - H_b) * (l^2 - 2 U_s l + U_s^2 - H_s)
    ab, cb = -2.0 * U_b, U_b * U_b - H_b
    as_, cs = -2.0 * U_s, U_s * U_s - H_s
    c3 = ab + as_
    c2 = cb + cs + ab * as_
    c1 = ab * cs + as_ * cb
    c0 = cb * cs - rho_ratio * H_s * H_b
    return c3, c2, c1, c0


def _companion_roots(coeffs, polish):
    """Companion-matrix eigenvalues of monic quartics, (..., 4); the last
    axis of `coeffs` holds each quartic's (c3, c2, c1, c0).

    With `polish`, one Newton step moves each root against its own
    quartic, Horner's rule evaluated as np.polyval evaluates it.
    """
    comp = np.zeros(coeffs.shape[:-1] + (4, 4))
    comp[..., 0, :] = -coeffs
    comp[..., 1:, :3] = np.eye(3)
    roots = np.linalg.eigvals(comp)
    if polish:
        c3, c2, c1, c0 = (coeffs[..., None, k] for k in range(4))
        val = np.zeros_like(roots)
        for a in (1.0, c3, c2, c1, c0):
            val *= roots
            val += a
        der = np.zeros_like(roots)
        for a in (4.0, 3.0 * c3, 2.0 * c2, c1):
            der *= roots
            der += a
        ok = np.abs(der) > 1e-30
        roots = np.where(ok, roots - val / np.where(ok, der, 1.0), roots)
    return roots


def quartic_roots_batch(c3, c2, c1, c0):
    """Eigenvalue roots for stacked quartics; returns (..., 4) complex."""
    return _companion_roots(np.stack(np.broadcast_arrays(c3, c2, c1, c0),
                                     axis=-1), polish=False)


def max_characteristic_speed(rho_ratio, H_s, H_b, U_s, U_b):
    """max |root| over broadcast state arrays; used for CFL bounds.

    The quartic is solved first at the grid point whose pointwise
    `characteristic_speed_bound` is largest, then only at the points
    whose bound, times 1 + _PRUNE_SLACK, is above that point's largest
    root magnitude; no other point can hold a larger one. The slack
    covers the companion solve's rounding where the bound is tight (at
    zero shear it is the exact speed). `eigvals` solves each matrix of a
    stack on its own, so the maximum is the same float one batch over
    every point gives. A depth <= 0 or a non-finite bound solves every
    point.
    """
    fields = [np.ravel(f) for f in np.broadcast_arrays(
        *map(np.asarray, (rho_ratio, H_s, H_b, U_s, U_b)))]
    bounds = _pointwise_speed_bounds(*fields)
    if bounds is None or not np.isfinite(bounds).all():
        return _largest_root(fields)
    top = np.argmax(bounds)
    speed = _largest_root([f[top:top + 1] for f in fields])
    rest = bounds * (1.0 + _PRUNE_SLACK) > speed
    rest[top] = False
    if rest.any():
        speed = max(speed, _largest_root([f[rest] for f in fields]))
    return speed


def _largest_root(fields):
    """max |root| of the quartics of (rho_ratio, H_s, H_b, U_s, U_b)."""
    return float(np.max(np.abs(quartic_roots_batch(
        *coefficient_arrays(*fields)))))


def characteristic_speed_bound(rho_ratio, H_s, H_b, U_s, U_b):
    """Closed-form upper bound on max |root| over broadcast state arrays.

    With K = rr H_s H_b, a root l has A B = K for A = (U_b - l)^2 - H_b
    and B = (U_s - l)^2 - H_s. For any t > 0, if |l - U_b|^2 > H_b + t
    and |l - U_s|^2 > H_s + K/t, then |A| >= |l - U_b|^2 - H_b > t and
    |B| > K/t, so |A B| > K: no root, real or complex, lies there. Two
    choices of t give two bounds, and a point's bound is the smaller:
    - t = sqrt(K): |l| <= max(|U_b| + sqrt(H_b + sqrt(K)),
      |U_s| + sqrt(H_s + sqrt(K)));
    - t with H_b + t = H_s + K/t: |l| <= max(|U_s|, |U_b|) + sqrt(X),
      X = (H_s + H_b)/2 + sqrt(((H_b - H_s)/2)^2 + K), which at zero
      shear is the exact speed.
    The computed bound is raised by _BOUND_ROUNDING (relative), a few
    roundings, so that where it is exact it stays above the speed a
    solve computes. Over arrays the bound is the largest pointwise one.
    The argument needs positive depths; at a depth <= 0 the bound is
    inf, and NaN fields give NaN.
    """
    bounds = _pointwise_speed_bounds(rho_ratio, H_s, H_b, U_s, U_b)
    return math.inf if bounds is None else float(np.max(bounds))


# relative slack on the pointwise speed bounds: rounding allowance of
# the bound itself, and of `max_characteristic_speed`'s pruning
_BOUND_ROUNDING = 4.0 * np.finfo(float).eps
_PRUNE_SLACK = 1e-6


def _pointwise_speed_bounds(rho_ratio, H_s, H_b, U_s, U_b):
    """`characteristic_speed_bound` at each point, or None at a depth
    <= 0."""
    if min(np.minimum.reduce(H_s, None), np.minimum.reduce(H_b, None)) <= 0.0:
        return None
    k = rho_ratio * H_s * H_b
    root_k = np.sqrt(k)
    a_s, a_b = np.abs(U_s), np.abs(U_b)
    apart = np.maximum(a_b + np.sqrt(H_b + root_k),
                       a_s + np.sqrt(H_s + root_k))
    half_gap = 0.5 * (H_b - H_s)
    x = 0.5 * (H_s + H_b) + np.sqrt(half_gap * half_gap + k)
    return (np.minimum(apart, np.maximum(a_s, a_b) + np.sqrt(x))
            * (1.0 + _BOUND_ROUNDING))


# ----------------------------------------------------------------------
# critical Froude thresholds
# ----------------------------------------------------------------------

# a root of q counts as resolved when its first-order error bound is
# below this share of its distance to the nearest other root
_RESOLVED_SHARE = 0.1
_DIAGONAL = (..., range(4), range(4))


class UnresolvedWindowError(RuntimeError):
    """The elliptic window's two roots cannot be told apart in floats."""


def critical_froude(h_ratio, rho_ratio):
    """The two shear thresholds (Fr_minus, Fr_plus) for given ratios.

    Broadcasts over arrays: scalar ratios give a pair of floats, arrays
    a pair of arrays. The thresholds are the square roots of the two
    positive roots of q (module docstring), which come from one batched
    companion solve with a Newton polish, so a row gets the same bits
    alone or in a block. A root s is resolved when its first-order error
    bound eps sum_k |a_k| |s|^k / |q'(s)| is below a tenth of its distance
    to every other root of q. As rho_ratio -> 0 the elliptic window
    closes and its two roots merge; where they are not two resolved
    positive roots, UnresolvedWindowError names the first such (h_ratio,
    rho_ratio) instead of returning a wrong pair.
    """
    h, r = np.broadcast_arrays(np.asarray(h_ratio, dtype=float),
                               np.asarray(rho_ratio, dtype=float))
    if not np.all(h > 0.0):
        raise ValueError(f"h_ratio must be positive, got {h[~(h > 0.0)][0]}")
    inside = (r > 0.0) & (r < 1.0)
    if not inside.all():
        raise ValueError(f"rho_ratio must lie in (0, 1), got {r[~inside][0]}")
    # powers spelled as products: a numpy scalar's ** can round otherwise
    hr = h * r
    t = (h - 1.0) * (h - 1.0) + 4.0 * hr
    coeffs = ((h + 1.0) * (r - 4.0),
              6.0 * h * h - 3.0 * h * hr + hr * r - 26.0 * hr + 4.0 * h
              - 3.0 * r + 6.0,
              -(h + 1.0) * (4.0 * h * h - 3.0 * h * hr + 20.0 * hr * r
                            - 10.0 * hr - 8.0 * h - 3.0 * r + 4.0),
              (1.0 - r) * t * t)
    s = _companion_roots(np.stack(coeffs, axis=-1), polish=True)
    size = np.zeros(s.shape)
    for a in (1.0,) + coeffs:
        size = size * np.abs(s) + np.abs(a)[..., None]
    # |q'(s_i)| is the product of s_i's distances to the other roots
    gaps = np.abs(s[..., :, None] - s[..., None, :])
    gaps[_DIAGONAL] = 1.0
    slope = np.prod(gaps, axis=-1)
    gaps[_DIAGONAL] = np.inf
    resolved = (np.finfo(float).eps * size
                < _RESOLVED_SHARE * slope * np.min(gaps, axis=-1))
    positive = (s.imag == 0.0) & (s.real > 0.0)
    ok = (np.sum(positive, axis=-1) == 2) & np.all(resolved | ~positive,
                                                   axis=-1)
    if not ok.all():
        i = np.argmin(ok)
        raise UnresolvedWindowError(
            f"elliptic window not resolved at (h_ratio, rho_ratio) = "
            f"({h.flat[i]}, {r.flat[i]})")
    fr = np.sqrt(np.sort(np.where(positive, s.real, np.inf), axis=-1)[..., :2])
    return tuple(fr.tolist()) if fr.ndim == 1 else (fr[..., 0], fr[..., 1])


def froude_table(rho_ratio, h_min, h_max, n_nodes=129):
    """Sampled Fr_-(h) and Fr_+(h) over [h_min, h_max] for interpolation.

    Solvers evaluating hyperbolicity margins along a trajectory use
    np.interp on this table instead of solving the thresholds at every
    grid point; they vary smoothly in the depth ratio, so the table
    error is far below diagnostic needs for >= 129 nodes. The nodes are
    geometrically spaced and solved by one `critical_froude` call.
    """
    hs = np.geomspace(h_min, h_max, int(n_nodes))
    return (hs,) + critical_froude(hs, rho_ratio)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

# the six root pairs (i < j) whose separation flags near-collisions
_ROOT_PAIRS = np.triu_indices(4, k=1)
# regime names by code: 0 below Fr_-, 1 above Fr_+, 2 in the window
_REGIMES = np.array(["Hyperbolic", "FastHyperbolic", "Elliptic"])


def classify_arrays(rho_ratio, H_s, H_b, U_s, U_b, fr_minus, fr_plus):
    """Regime report of a block of state points, one row per point.

    The arguments are 1-D arrays of one length, each point's thresholds
    Fr_- < Fr_+ among them, or scalars shared by every point; each field
    of the returned report holds one entry (or row) per point, or the
    shared value of a field taken as a scalar. One coefficient expansion,
    one batched companion solve and one Newton polish serve the block.
    The real-root count uses the scale-aware tolerance 1e-9*(1 +
    max|root|). Points whose shear sits within that tolerance of a
    threshold, or whose roots nearly collide, are flagged degenerate
    rather than trusted; so are four real roots inside the window (only
    possible in the tolerance band around a tangency) and odd counts (a
    conjugate pair on the tolerance edge), which take the threshold
    test's regime. For four roots that test reads Hyperbolic exactly
    where the margin is >= 0.
    """
    c3, c2, c1, c0 = coefficient_arrays(rho_ratio, H_s, H_b, U_s, U_b)
    coefficients = np.stack([np.ones_like(c3), c3, c2, c1, c0], axis=-1)
    roots = _companion_roots(coefficients[..., 1:], polish=True)
    tols = _REAL_TOL * (1.0 + np.max(np.abs(roots), axis=-1))
    real_count = np.sum(np.abs(roots.imag) <= tols[..., None], axis=-1)
    seps = np.abs(roots[..., _ROOT_PAIRS[0]] - roots[..., _ROOT_PAIRS[1]])
    shear = np.abs(U_b - U_s) / np.sqrt(H_b)
    margin = fr_minus - shear
    four, two = real_count >= 4, real_count == 2
    degenerate = ((np.min(seps, axis=-1) <= 10.0 * tols)
                  | (np.minimum(np.abs(shear - fr_minus),
                                np.abs(shear - fr_plus))
                     <= _REAL_TOL * (1.0 + shear))
                  | (four & (fr_minus < shear) & (shear < fr_plus))
                  | ~(four | two))
    code = np.where(two, 2, np.where(margin >= 0.0, 0, np.where(
        four | (shear >= fr_plus), 1, 2)))
    return HyperbolicityReport(coefficients, roots, real_count, _REGIMES[code],
                               fr_minus, fr_plus, shear, margin, degenerate)


def classify(point):
    """Regime report at one stable state point, its fields numpy scalars
    and 1-D arrays: `classify_arrays` on the point's own numbers."""
    point.require_stable()
    state = (point.rho_ratio, point.H_s, point.H_b, point.U_s, point.U_b)
    return classify_arrays(*map(float, state + point.thresholds))


def in_sigma_set(sigma, rho_ratio, ratio_min, ratio_max, depth_min, margin):
    """Membership in the compact hyperbolicity set with margin sigma.

    Four conditions: sigma/2 <= rho_s/rho_b <= 1 - sigma/2, sigma <= H_s/H_b
    <= 1/sigma over [ratio_min, ratio_max], H_s + H_b >= sigma at its
    least, `depth_min`, and Fr_- - |U_b - U_s|/sqrt(H_b) >= sigma, whose
    least value `margin()` runs only if the first three hold somewhere.
    Evaluates elementwise over broadcast arrays, so a block of points is
    tested in one call. A sigma outside (0, 1) is a ValueError.
    """
    sigma = float(sigma)
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    inside = ((sigma / 2.0 <= rho_ratio) & (rho_ratio <= 1.0 - sigma / 2.0)
              & (sigma <= ratio_min) & (ratio_max <= 1.0 / sigma)
              & (depth_min >= sigma))
    return inside & (margin() >= sigma) if np.any(inside) else inside


# ----------------------------------------------------------------------
# symmetrizer
# ----------------------------------------------------------------------

def state_matrices(rho_ratio, H_s, H_b, U_s, U_b):
    """The coefficient matrices A of broadcast state arrays, (..., 4, 4)."""
    rr, H_s, H_b, U_s, U_b = np.broadcast_arrays(rho_ratio, H_s, H_b, U_s, U_b)
    zero, one = np.zeros_like(U_s), np.ones_like(U_s)
    return np.stack([U_s, zero, H_s, zero, zero, U_b, zero, H_b,
                     one, one, U_s, zero, rr, one, zero, U_b],
                    axis=-1).reshape(rr.shape + (4, 4))


def _golden_max(fn, a, b, tol=1e-10):
    """Golden-section maximization of a unimodal-ish fn on [a, b]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = fn(x1)
    return 0.5 * (a + b)


def leading_minors(S):
    """The four leading principal minors of S, stacked as (..., 4)."""
    return np.stack([np.linalg.det(S[..., :k, :k]) for k in (1, 2, 3, 4)],
                    axis=-1)


def certify_arrays(rho_ratio, H_s, H_b, U_s, U_b, fr_minus, fr_plus):
    """Symmetrizers of a block of hyperbolic points, one row per point.

    Takes `classify_arrays`'s arguments; every point must classify
    Hyperbolic with a positive margin. At each point the shift starts
    from the midpoint of the two middle roots, clipped into [min(U_s,
    U_b), max(U_s, U_b)]; if clipping pushes it out of the open
    middle-root interval, a golden-section search maximizes the smallest
    eigenvalue of that point's S over the interval instead. Certification
    is Sylvester's criterion on the four leading principal minors. S,
    S A, the minors and the smallest eigenvalues are each one stacked
    call over the block, so a row is the same alone or in a block.
    """
    report = classify_arrays(rho_ratio, H_s, H_b, U_s, U_b, fr_minus,
                             fr_plus)
    bad = (report.regime != "Hyperbolic") | (report.margin <= 0.0)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(
            f"symmetrizer needs a hyperbolic point with positive margin, "
            f"got regime {report.regime[i]} with margin "
            f"{report.margin[i]:.3e}")
    roots = np.sort(report.roots.real, axis=1)
    lo, hi = roots[:, 1], roots[:, 2]
    lams = np.minimum(np.maximum(0.5 * (lo + hi), np.minimum(U_s, U_b)),
                      np.maximum(U_s, U_b))
    for i in np.nonzero(~((lo < lams) & (lams < hi)))[0]:
        gap = hi[i] - lo[i]

        def min_eig(l):
            return float(np.linalg.eigvalsh(symmetrizer_fields(
                rho_ratio[i], H_s[i], H_b[i], U_s[i], U_b[i], l))[0])

        lams[i] = _golden_max(min_eig, lo[i] + 1e-12 * gap,
                              hi[i] - 1e-12 * gap, tol=1e-10 * max(gap, 1.0))

    S = symmetrizer_fields(rho_ratio, H_s, H_b, U_s, U_b, lams)
    SA = S @ state_matrices(rho_ratio, H_s, H_b, U_s, U_b)
    minors = leading_minors(S)
    return Symmetrizer(
        lam=lams, S=S, certified=np.all(minors > 0.0, axis=1), minors=minors,
        min_eigenvalue=np.linalg.eigvalsh(S)[:, 0],
        asymmetry=np.max(np.abs(SA - SA.transpose(0, 2, 1)), axis=(1, 2)))


def symmetrizer_fields(rho_ratio, H_s, H_b, U_s, U_b, lam):
    """Stacked symmetrizers S(x) for per-grid-point state arrays.

    All arguments broadcast; lam may vary per point. Returns (..., 4, 4).
    Used by `certify_arrays`; its least eigenvalue over a grid is the
    coercivity.
    """
    rr, H_s, H_b, U_s, U_b, lam = np.broadcast_arrays(
        *map(np.asarray, (rho_ratio, H_s, H_b, U_s, U_b, lam)))
    us = U_s - lam
    ub = U_b - lam
    S = np.zeros(rr.shape + (4, 4))
    S[..., 0, 0] = rr
    S[..., 0, 1] = rr
    S[..., 1, 0] = rr
    S[..., 0, 2] = rr * us
    S[..., 2, 0] = rr * us
    S[..., 1, 1] = 1.0
    S[..., 1, 3] = ub
    S[..., 3, 1] = ub
    S[..., 2, 2] = rr * H_s
    S[..., 3, 3] = H_b
    return S


# ----------------------------------------------------------------------
# the root atlas in normalized (p_s, p_b) coordinates
# ----------------------------------------------------------------------

@dataclass(eq=False)
class AtlasCurves:
    h_ratio: float
    rho_ratio: float
    branches: list = field(default_factory=list)   # (name, p_s, p_b)
    lines: list = field(default_factory=list)      # (name, p_s, p_b)


def atlas(h_ratio, rho_ratio, intercepts, n_samples=2001):
    """Polyline samples of the quartic curve plus shear lines.

    The curve (p_s^2-1)(p_b^2-1) = rr splits into an inner oval
    (|p_s| <= sqrt(1-rr), traced top and bottom) and four outer branches
    on which p_s^2-1 = sqrt(rr) e^s, p_b^2-1 = sqrt(rr) e^{-s}; the
    exponential parameter keeps samples dense near the corners where the
    lines p_b = p_s sqrt(h_ratio) + intercept cross. The sampled range
    covers every real characteristic root of the supplied intercepts.
    """
    h_ratio = float(h_ratio)
    rho_ratio = float(rho_ratio)
    if not h_ratio > 0.0:
        raise ValueError(f"h_ratio must be positive, got {h_ratio}")
    if not 0.0 < rho_ratio < 1.0:
        raise ValueError(f"rho_ratio must lie in (0, 1), got {rho_ratio}")
    intercepts = [float(c) for c in intercepts]
    slope = np.sqrt(h_ratio)

    reach = 4.0
    for c in intercepts:
        roots = quartic_roots_batch(*coefficient_arrays(
            rho_ratio, h_ratio, 1.0, 0.0, c))
        real = roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.max(np.abs(roots)))]
        if real.size:
            ps = -real / np.sqrt(h_ratio)
            pb = c - real
            reach = max(reach, 1.5 * float(np.max(np.abs(ps))) + 1.0,
                        1.5 * float(np.max(np.abs(pb))) + 1.0)

    out = AtlasCurves(h_ratio=h_ratio, rho_ratio=rho_ratio)
    n = int(n_samples)

    # inner oval: p_b^2 = 1 - rr/(1 - p_s^2) for p_s^2 <= 1 - rr
    half = np.sqrt(1.0 - rho_ratio)
    ps = np.linspace(-half, half, n)
    inner = 1.0 - rho_ratio / np.maximum(1.0 - ps * ps, rho_ratio)
    pb = np.sqrt(np.maximum(inner, 0.0))
    out.branches.append(("oval_top", ps, pb))
    out.branches.append(("oval_bottom", ps, -pb))

    # outer branches via the exponential parametrization
    sq = np.sqrt(rho_ratio)
    s_max = np.log((reach * reach - 1.0) / sq)
    s = np.linspace(-s_max, s_max, n)
    mag_s = np.sqrt(1.0 + sq * np.exp(s))
    mag_b = np.sqrt(1.0 + sq * np.exp(-s))
    for name, sgn_s, sgn_b in (("branch_pp", 1.0, 1.0), ("branch_pm", 1.0, -1.0),
                               ("branch_mp", -1.0, 1.0), ("branch_mm", -1.0, -1.0)):
        out.branches.append((name, sgn_s * mag_s, sgn_b * mag_b))

    ps_line = np.linspace(-reach, reach, n)
    for c in intercepts:
        out.lines.append((f"line_{c:g}", ps_line, slope * ps_line + c))
    return out


def count_line_intersections(curves, intercept):
    """Count curve/line crossings from the polylines by sign changes."""
    slope = np.sqrt(curves.h_ratio)
    total = 0
    for _, ps, pb in curves.branches:
        g = pb - (slope * ps + intercept)
        total += int(np.sum(g[:-1] * g[1:] < 0.0))
        total += int(np.sum(g == 0.0))
    return total
