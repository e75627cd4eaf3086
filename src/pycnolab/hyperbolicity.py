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

For hyperbolic points the matrix S built from a shift l between the two
middle roots,

        S = [[rr,     rr,  rr us,  0 ],
             [rr,     1,   0,      ub],
             [rr us,  0,   rr H_s, 0 ],
             [0,      ub,  0,      H_b]]      (us = U_s - l, ub = U_b - l)

is symmetric, makes S A symmetric exactly, and is positive definite
precisely when its leading principal minors (rr, rr(1-rr),
rr^2 (H_s (1-rr) - us^2), rr^2 P(l)) are positive.
"""

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

_REAL_TOL = 1e-9
# rows per scan chunk of `critical_froude_pairs`: the chunk's (rows, 256)
# scan grid is the largest array a threshold solve builds
_SCAN_ROWS = 64
_STATE_FIELDS = ("rho_s", "rho_b", "H_s", "H_b", "U_s", "U_b")


@dataclass(frozen=True)
class StatePoint:
    """One bilayer state: densities, total depths, total velocities.

    Immutable, so its Froude thresholds are solved at most once; a caller
    that has already solved them for these ratios hands them over as
    `solved_thresholds`.
    """
    rho_s: float
    rho_b: float
    H_s: float
    H_b: float
    U_s: float
    U_b: float
    solved_thresholds: InitVar[tuple | None] = None

    def __post_init__(self, solved_thresholds):
        for name in _STATE_FIELDS:
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
        if solved_thresholds is not None:
            # where cached_property keeps its value
            self.__dict__["thresholds"] = tuple(solved_thresholds)

    @property
    def rho_ratio(self):
        return self.rho_s / self.rho_b

    @property
    def shear(self):
        return abs(self.U_b - self.U_s) / np.sqrt(self.H_b)

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
    """Monic quartic coefficients (c3, c2, c1, c0), broadcasting over arrays.

    Expansion of ((U_b-l)^2 - H_b)((U_s-l)^2 - H_s) - rr H_s H_b.
    """
    rho_ratio, H_s, H_b, U_s, U_b = np.broadcast_arrays(
        *map(np.asarray, (rho_ratio, H_s, H_b, U_s, U_b)))
    # (l^2 - 2 U_b l + U_b^2 - H_b) * (l^2 - 2 U_s l + U_s^2 - H_s)
    ab, cb = -2.0 * U_b, U_b * U_b - H_b
    as_, cs = -2.0 * U_s, U_s * U_s - H_s
    c3 = ab + as_
    c2 = cb + cs + ab * as_
    c1 = ab * cs + as_ * cb
    c0 = cb * cs - rho_ratio * H_s * H_b
    return c3, c2, c1, c0


def quartic_discriminant(c3, c2, c1, c0):
    """Discriminant of l^4 + c3 l^3 + c2 l^2 + c1 l + c0 (vectorized).

    Positive means four real roots here (two real roots always exist),
    negative means exactly two. Powers are spelled as products, so a
    Python float and an array element give the same bits.
    """
    b, c, d, e = c3, c2, c1, c0
    b2, c2, d2, e2 = b * b, c * c, d * d, e * e
    return (256.0 * e2 * e - 192.0 * b * d * e2 - 128.0 * c2 * e2
            + 144.0 * c * d2 * e - 27.0 * d2 * d2 + 144.0 * b2 * c * e2
            - 6.0 * b2 * d2 * e - 80.0 * b * c2 * d * e
            + 18.0 * b * c * d2 * d + 16.0 * c2 * c2 * e - 4.0 * c2 * c * d2
            - 27.0 * b2 * b2 * e2 + 18.0 * b2 * b * c * d * e
            - 4.0 * b2 * b * d2 * d - 4.0 * b2 * c2 * c * e + b2 * c2 * d2)


def _companion_roots(c3, c2, c1, c0, polish):
    """Companion-matrix eigenvalues of stacked monic quartics, (..., 4).

    With `polish`, one Newton step moves each root against its own
    quartic, Horner's rule evaluated as np.polyval evaluates it.
    """
    c3, c2, c1, c0 = np.broadcast_arrays(*map(np.asarray, (c3, c2, c1, c0)))
    comp = np.zeros(c3.shape + (4, 4))
    comp[..., 0, :] = -np.stack([c3, c2, c1, c0], axis=-1)
    comp[..., [1, 2, 3], [0, 1, 2]] = 1.0
    roots = np.linalg.eigvals(comp)
    if polish:
        val = np.zeros_like(roots)
        for a in (1.0, c3, c2, c1, c0):
            val = val * roots + np.asarray(a)[..., None]
        der = np.zeros_like(roots)
        for a in (4.0, 3.0 * c3, 2.0 * c2, c1):
            der = der * roots + np.asarray(a)[..., None]
        ok = np.abs(der) > 1e-30
        roots = np.where(ok, roots - val / np.where(ok, der, 1.0), roots)
    return roots


def quartic_roots_batch(c3, c2, c1, c0):
    """Eigenvalue roots for stacked quartics; returns (..., 4) complex."""
    return _companion_roots(c3, c2, c1, c0, polish=False)


def max_characteristic_speed(rho_ratio, H_s, H_b, U_s, U_b):
    """max |root| over broadcast state arrays; used for CFL bounds."""
    roots = quartic_roots_batch(*coefficient_arrays(rho_ratio, H_s, H_b, U_s, U_b))
    return float(np.max(np.abs(roots)))


def characteristic_speed_bound(rho_ratio, H_s, H_b, U_s, U_b):
    """Closed-form upper bound on max |root| over broadcast state arrays.

    With K = rr H_s H_b, a root l has A B = K for A = (U_b - l)^2 - H_b
    and B = (U_s - l)^2 - H_s. If |l - U_b|^2 > H_b + sqrt(K) and
    |l - U_s|^2 > H_s + sqrt(K), then |A| >= |l - U_b|^2 - H_b > sqrt(K)
    and |B| > sqrt(K), so |A B| > K: no root, real or complex, lies
    there. Hence |l| <= max(|U_b| + sqrt(H_b + sqrt(K)),
    |U_s| + sqrt(H_s + sqrt(K))). The argument needs positive depths;
    at a depth <= 0 the bound is inf, and NaN fields give NaN.
    """
    if min(np.minimum.reduce(H_s, None), np.minimum.reduce(H_b, None)) <= 0.0:
        return math.inf
    root_k = np.sqrt(rho_ratio * H_s * H_b)
    return float(np.maximum(np.abs(U_b) + np.sqrt(H_b + root_k),
                            np.abs(U_s) + np.sqrt(H_s + root_k)).max())


# ----------------------------------------------------------------------
# critical Froude thresholds
# ----------------------------------------------------------------------

def _disc_of_intercept(c, h_ratio, rho_ratio):
    """Discriminant of the normalized quartic (H_b=1, H_s=h, U_s=0, U_b=c).

    A Python float stays a float, so the bisection runs without numpy
    scalars; arrays give the same values elementwise, bit for bit.
    """
    if not isinstance(c, float):
        c = np.asarray(c, dtype=float)
    h = h_ratio
    c3 = -2.0 * c
    c2 = c * c - 1.0 - h
    c1 = 2.0 * c * h
    c0 = -h * (c * c - 1.0) - rho_ratio * h
    return quartic_discriminant(c3, c2, c1, c0)


def critical_froude(h_ratio, rho_ratio, tol=1e-10, scan_points=256):
    """The two shear thresholds (Fr_minus, Fr_plus) for given ratios.

    Works on the normalized state H_b = 1, H_s = h_ratio, U_s = 0,
    U_b = c >= 0 and locates the sign changes of the quartic
    discriminant in c by scan plus bisection. Between the thresholds the
    discriminant is negative (two real roots); outside it is positive.
    """
    h_ratio = float(h_ratio)
    rho_ratio = float(rho_ratio)
    if h_ratio <= 0.0:
        raise ValueError(f"h_ratio must be positive, got {h_ratio}")
    if not 0.0 < rho_ratio < 1.0:
        raise ValueError(f"rho_ratio must lie in (0, 1), got {rho_ratio}")

    c_hi = 2.0 * (2.0 + math.sqrt(h_ratio))
    while _disc_of_intercept(c_hi, h_ratio, rho_ratio) <= 0.0:
        c_hi *= 2.0
        if c_hi > 1e6:
            raise RuntimeError("no supercritical regime found below c = 1e6")

    m = int(scan_points)
    neg = np.array([], dtype=int)
    cs = None
    while m <= 64 * scan_points:
        cs = np.linspace(0.0, c_hi, m)
        disc = _disc_of_intercept(cs, h_ratio, rho_ratio)
        neg = np.nonzero(disc < 0.0)[0]
        if neg.size:
            break
        m *= 8
    if not neg.size:
        raise RuntimeError(
            f"elliptic window not resolved for h_ratio={h_ratio}, "
            f"rho_ratio={rho_ratio}; it is narrower than {c_hi / m:.2e}")

    def bisect(lo, hi, want_neg_at_hi):
        # sign of disc flips once in [lo, hi]
        for _ in range(200):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            if (_disc_of_intercept(mid, h_ratio, rho_ratio) < 0.0) == want_neg_at_hi:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    first, last = int(neg[0]), int(neg[-1])
    fr_minus = bisect(float(cs[first - 1]) if first > 0 else 0.0,
                      float(cs[first]), True)
    fr_plus = bisect(float(cs[last]), float(cs[last + 1]), False)
    return fr_minus, fr_plus


def critical_froude_pairs(h_ratios, rho_ratios, tol=1e-10):
    """`critical_froude` for many (h_ratio, rho_ratio) rows at once.

    Returns (fr_minus, fr_plus) arrays. All rows run `critical_froude`'s
    scan and bisections as arrays, each row with its own density ratio
    and each bracket stopping where the scalar loop would; every row
    equals `critical_froude(h, rr, tol)` bit for bit. The scans run in
    chunks of `_SCAN_ROWS` rows, keeping only the bracket end points;
    then the brackets of all rows bisect in one lockstep. A row whose
    first scan misses the elliptic window goes through `critical_froude`
    itself (finer scans, or its RuntimeError). The scalar solver stays
    beside this one because each is the cheaper on its own input size: a
    one-row call here costs ten to twenty scalar calls.
    """
    hs, rrs = np.broadcast_arrays(np.asarray(h_ratios, dtype=float),
                                  np.asarray(rho_ratios, dtype=float))
    hs, rrs = hs.ravel(), rrs.ravel()
    if not np.all(hs > 0.0):
        raise ValueError(f"h_ratio must be positive, got {hs.min()}")
    ok = (rrs > 0.0) & (rrs < 1.0)
    if not ok.all():
        raise ValueError(f"rho_ratio must lie in (0, 1), got {rrs[~ok][0]}")

    c_hi = 2.0 * (2.0 + np.sqrt(hs))
    low = _disc_of_intercept(c_hi, hs, rrs) <= 0.0
    while low.any():
        c_hi[low] *= 2.0
        if c_hi[low].max() > 1e6:
            raise RuntimeError("no supercritical regime found below c = 1e6")
        low[low] = _disc_of_intercept(c_hi[low], hs[low], rrs[low]) <= 0.0

    # per chunk, one 256-point scan per row, the rows as
    # np.linspace(0, c_hi, 256); keep the rows that found the window and
    # their Fr_- and Fr_+ brackets
    found = np.zeros(hs.size, dtype=bool)
    brackets = [np.empty((4, 0))]
    for start in range(0, hs.size, _SCAN_ROWS):
        chunk = slice(start, start + _SCAN_ROWS)
        cs = np.linspace(0.0, c_hi[chunk], 256, axis=1)
        neg = _disc_of_intercept(cs, hs[chunk, None], rrs[chunk, None]) < 0.0
        hit = np.nonzero(neg.any(axis=1))[0]
        cs, neg = cs[hit], neg[hit]
        first = np.argmax(neg, axis=1)
        last = 255 - np.argmax(neg[:, ::-1], axis=1)
        k = np.arange(hit.size)
        found[start + hit] = True
        brackets.append(np.stack([np.where(first > 0, cs[k, first - 1], 0.0),
                                  cs[k, first], cs[k, last], cs[k, last + 1]]))
    rows = np.nonzero(found)[0]
    minus_lo, minus_hi, plus_lo, plus_hi = np.concatenate(brackets, axis=1)
    # Fr_- brackets first, then Fr_+; `want` is "negative at hi"
    lo = np.concatenate([minus_lo, plus_lo])
    hi = np.concatenate([minus_hi, plus_hi])
    want = np.repeat([True, False], rows.size)
    h = np.concatenate([hs[rows], hs[rows]])
    rr = np.concatenate([rrs[rows], rrs[rows]])
    active = hi - lo > tol
    for _ in range(200):
        idx = np.nonzero(active)[0]
        if not idx.size:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        to_hi = (_disc_of_intercept(mid, h[idx], rr[idx]) < 0.0) == want[idx]
        hi[idx[to_hi]] = mid[to_hi]
        lo[idx[~to_hi]] = mid[~to_hi]
        active[idx] = hi[idx] - lo[idx] > tol
    mids = 0.5 * (lo + hi)

    fr_minus = np.empty(hs.size)
    fr_plus = np.empty(hs.size)
    fr_minus[rows], fr_plus[rows] = mids[:rows.size], mids[rows.size:]
    for i in np.nonzero(~found)[0]:
        fr_minus[i], fr_plus[i] = critical_froude(hs[i], rrs[i], tol=tol)
    return fr_minus, fr_plus


def froude_table(rho_ratio, h_min, h_max, n_nodes=129, tol=1e-10):
    """Sampled Fr_-(h) and Fr_+(h) over [h_min, h_max] for interpolation.

    Solvers evaluating hyperbolicity margins along a trajectory use
    np.interp on this table instead of running a bisection at every grid
    point; the thresholds vary smoothly in the depth ratio so the table
    error is far below diagnostic needs for >= 129 nodes. The nodes are
    geometrically spaced and solved by one `critical_froude_pairs` call,
    so each equals `critical_froude(h, rho_ratio, tol)` bit for bit.
    """
    hs = np.geomspace(h_min, h_max, int(n_nodes))
    return (hs,) + critical_froude_pairs(hs, rho_ratio, tol=tol)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

# the six root pairs (i < j) whose separation flags near-collisions
_ROOT_PAIRS = np.triu_indices(4, k=1)


def _point_arrays(points):
    """(rho_ratio, H_s, H_b, U_s, U_b) of a sequence of points, as arrays."""
    return np.array([(p.rho_ratio, p.H_s, p.H_b, p.U_s, p.U_b)
                     for p in points], dtype=float).reshape(-1, 5).T


def classify_many(points):
    """Regime reports for a sequence of state points, one per point.

    Requires stable stratification. The quartic coefficients of all
    points come from one `coefficient_arrays` call and their roots from
    one batched companion eigenvalue solve and Newton polish. The
    real-root count uses the scale-aware tolerance 1e-9*(1 + max|root|);
    points whose shear sits within that tolerance of a threshold, or
    whose roots nearly collide, are flagged degenerate rather than
    trusted.
    """
    for point in points:
        point.require_stable()
    coeffs = np.stack([np.ones(len(points)),
                       *coefficient_arrays(*_point_arrays(points))], axis=1)
    roots = _companion_roots(*coeffs[:, 1:].T, polish=True)
    tols = _REAL_TOL * (1.0 + np.max(np.abs(roots), axis=1))
    nreals = np.sum(np.abs(roots.imag) <= tols[:, None], axis=1)
    seps = np.abs(roots[:, _ROOT_PAIRS[0]] - roots[:, _ROOT_PAIRS[1]])
    collided = np.min(seps, axis=1) <= 10.0 * tols

    reports = []
    for point, coeff, root, nreal, degenerate in zip(
            points, coeffs, roots, nreals.tolist(), collided.tolist()):
        fr_minus, fr_plus = point.thresholds
        shear = point.shear
        margin = fr_minus - shear
        degenerate = degenerate or (min(abs(shear - fr_minus),
                                        abs(shear - fr_plus))
                                    <= _REAL_TOL * (1.0 + shear))
        if nreal >= 4:
            regime = "Hyperbolic" if shear < fr_plus else "FastHyperbolic"
            if not (shear <= fr_minus or shear >= fr_plus):
                # root count and threshold test disagree: only possible in
                # the tolerance band around a tangency
                degenerate = True
                regime = "Hyperbolic" if margin >= 0.0 else "FastHyperbolic"
        elif nreal == 2:
            regime = "Elliptic"
        else:
            # odd counts arise when a conjugate pair sits exactly on the
            # tolerance edge; classify by the threshold test instead
            degenerate = True
            if margin >= 0.0:
                regime = "Hyperbolic"
            elif shear >= fr_plus:
                regime = "FastHyperbolic"
            else:
                regime = "Elliptic"
        reports.append(HyperbolicityReport(
            coefficients=coeff, roots=root, real_count=nreal, regime=regime,
            fr_minus=fr_minus, fr_plus=fr_plus, shear=shear, margin=margin,
            degenerate=degenerate))
    return reports


def classify(point):
    """Regime report at one state point: `classify_many([point])[0]`."""
    return classify_many([point])[0]


def in_sigma_set(sigma, rho_ratio, ratio_min, ratio_max, depth_min, margin):
    """Membership in the compact hyperbolicity set with margin sigma.

    Four conditions: sigma/2 <= rho_s/rho_b <= 1 - sigma/2, sigma <= H_s/H_b
    <= 1/sigma over [ratio_min, ratio_max], H_s + H_b >= sigma at its
    least, `depth_min`, and Fr_- - |U_b - U_s|/sqrt(H_b) >= sigma, whose
    least value `margin()` runs only if the first three hold. A sigma
    outside (0, 1) is a ValueError.
    """
    sigma = float(sigma)
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    return bool(sigma / 2.0 <= rho_ratio <= 1.0 - sigma / 2.0
                and sigma <= ratio_min and ratio_max <= 1.0 / sigma
                and depth_min >= sigma and margin() >= sigma)


def in_hyperbolic_set(point, sigma):
    """`in_sigma_set` at one state point, with its exact Fr_-."""
    ratio = point.H_s / point.H_b
    return in_sigma_set(sigma, point.rho_ratio, ratio, ratio,
                        point.H_s + point.H_b,
                        lambda: point.thresholds[0] - point.shear)


# ----------------------------------------------------------------------
# symmetrizer
# ----------------------------------------------------------------------

def state_matrix(point):
    """The 4x4 coefficient matrix A at the state point."""
    return np.array([
        [point.U_s, 0.0, point.H_s, 0.0],
        [0.0, point.U_b, 0.0, point.H_b],
        [1.0, 1.0, point.U_s, 0.0],
        [point.rho_ratio, 1.0, 0.0, point.U_b],
    ])


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


def symmetrizers(points):
    """Construct and certify the symmetrizers of a block of hyperbolic points.

    At each point the shift starts from the midpoint of the two middle
    roots, clipped into [min(U_s, U_b), max(U_s, U_b)]; if clipping
    pushes it out of the open middle-root interval, a golden-section
    search maximizes the smallest eigenvalue of that point's S over the
    interval instead. Certification is Sylvester's criterion on the four
    leading principal minors. S, S A, the minors and the smallest
    eigenvalues are each one stacked call over the block, so a
    certificate is the same whether its point is certified alone or in
    a block.
    """
    reports = classify_many(points)
    for report in reports:
        if report.regime != "Hyperbolic" or report.margin <= 0.0:
            raise ValueError(
                f"symmetrizer needs a hyperbolic point with positive margin, "
                f"got regime {report.regime} with margin {report.margin:.3e}")
    rr, H_s, H_b, U_s, U_b = _point_arrays(points)
    roots = np.sort(np.array([r.roots.real for r in reports]).reshape(-1, 4),
                    axis=1)
    lo, hi = roots[:, 1], roots[:, 2]
    lams = np.minimum(np.maximum(0.5 * (lo + hi), np.minimum(U_s, U_b)),
                      np.maximum(U_s, U_b))
    for i in np.nonzero(~((lo < lams) & (lams < hi)))[0]:
        gap = hi[i] - lo[i]

        def min_eig(l):
            return float(np.linalg.eigvalsh(symmetrizer_fields(
                rr[i], H_s[i], H_b[i], U_s[i], U_b[i], l))[0])

        lams[i] = _golden_max(min_eig, lo[i] + 1e-12 * gap,
                              hi[i] - 1e-12 * gap, tol=1e-10 * max(gap, 1.0))

    S = symmetrizer_fields(rr, H_s, H_b, U_s, U_b, lams)
    SA = S @ np.reshape([state_matrix(p) for p in points], (-1, 4, 4))
    minors = leading_minors(S)
    min_eigs = np.linalg.eigvalsh(S)[:, 0]
    certified = np.all(minors > 0.0, axis=1)
    asymmetry = np.max(np.abs(SA - SA.transpose(0, 2, 1)), axis=(1, 2))
    return [Symmetrizer(lam=lam, S=S[i], certified=ok,
                        minors=minors[i], min_eigenvalue=min_eig,
                        asymmetry=asym)
            for i, (lam, ok, min_eig, asym) in enumerate(zip(
                lams.tolist(), certified.tolist(), min_eigs.tolist(),
                asymmetry.tolist()))]


def symmetrizer_fields(rho_ratio, H_s, H_b, U_s, U_b, lam):
    """Stacked symmetrizers S(x) for per-grid-point state arrays.

    All arguments broadcast; lam may vary per point. Returns (..., 4, 4).
    Used by `symmetrizers`; its least eigenvalue over a grid is the coercivity.
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
