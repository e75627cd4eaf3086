"""Reference implementations used to cross-check the package.

Everything in this file is deliberately naive: closed-form root formulas,
O(n^2) transforms, double loops over level indices. These routines were
written and frozen before the package code and share none of its code
paths, so agreement between the two is meaningful. Do not "optimize" them
into calls back into pycnolab. The two exceptions at the end are no
references: `characteristic_polynomial` only lays the package's quartic
coefficients out in np.polyval order, and `point_arrays` only lays
StatePoints out as the hyperbolicity cores' arrays.
"""

import numpy as np
import scipy.linalg

from pycnolab.hyperbolicity import coefficient_arrays


# ----------------------------------------------------------------------
# quartic root finding, Ferrari style
# ----------------------------------------------------------------------

def _cubic_real_roots(a2, a1, a0):
    """Real roots of z^3 + a2 z^2 + a1 z + a0 via Cardano, complex branches."""
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = complex(q * q / 4.0 + p ** 3 / 27.0)
    sq = np.sqrt(disc)
    u = (-q / 2.0 + sq) ** (1.0 / 3.0)
    if abs(u) < 1e-300:
        u = (-q / 2.0 - sq) ** (1.0 / 3.0)
    if abs(u) < 1e-300:
        return [-a2 / 3.0]
    omega = complex(-0.5, np.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        uk = u * omega ** k
        t = uk - p / (3.0 * uk)
        z = t - a2 / 3.0
        if abs(z.imag) < 1e-8 * (1.0 + abs(z)):
            roots.append(z.real)
    return roots


def ferrari_roots(b, c, d, e):
    """All four roots of l^4 + b l^3 + c l^2 + d l + e, closed form.

    Factors the depressed quartic into two quadratics via the resolvent
    cubic. Returns a length-4 complex array (unordered).
    """
    # depress: l = y - b/4
    p = c - 3.0 * b * b / 8.0
    q = d - b * c / 2.0 + b ** 3 / 8.0
    r = e - b * d / 4.0 + b * b * c / 16.0 - 3.0 * b ** 4 / 256.0
    shift = -b / 4.0
    if abs(q) < 1e-13 * (1.0 + abs(p) + abs(r)):
        # biquadratic: y^2 solves z^2 + p z + r = 0
        sq = np.sqrt(complex(p * p - 4.0 * r))
        z1 = (-p + sq) / 2.0
        z2 = (-p - sq) / 2.0
        ys = [np.sqrt(complex(z1)), -np.sqrt(complex(z1)),
              np.sqrt(complex(z2)), -np.sqrt(complex(z2))]
        return np.array([y + shift for y in ys])
    # resolvent in z = alpha^2:  z^3 + 2p z^2 + (p^2 - 4r) z - q^2 = 0
    zs = [z for z in _cubic_real_roots(2.0 * p, p * p - 4.0 * r, -q * q) if z > 0.0]
    z = max(zs)
    alpha = np.sqrt(z)
    beta = (p + z - q / alpha) / 2.0
    gamma = (p + z + q / alpha) / 2.0
    ys = []
    for aa, bb in ((alpha, beta), (-alpha, gamma)):
        sq = np.sqrt(complex(aa * aa - 4.0 * bb))
        ys.append((-aa + sq) / 2.0)
        ys.append((-aa - sq) / 2.0)
    return np.array([y + shift for y in ys])


def companion_roots(coefficients, polish=True):
    """Roots of one monic quartic [1, b, c, d, e], one matrix at a time.

    Eigenvalues of the hand-built 4x4 companion matrix; with `polish`,
    one Newton step whose polynomial and derivative values come from
    np.polyval.
    """
    _, b, c, d, e = (float(v) for v in coefficients)
    comp = np.array([
        [-b, -c, -d, -e],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    roots = np.linalg.eigvals(comp)
    if not polish:
        return roots
    val = np.polyval([1.0, b, c, d, e], roots)
    der = np.polyval([4.0, 3.0 * b, 2.0 * c, d], roots)
    ok = np.abs(der) > 1e-30
    return np.where(ok, roots - val / np.where(ok, der, 1.0), roots)


# ----------------------------------------------------------------------
# bilayer characteristic matrix, assembled entry by entry
# ----------------------------------------------------------------------

def bilayer_matrix(rho_ratio, H_s, H_b, U_s, U_b):
    """The 4x4 first-order coefficient matrix in (H_s, H_b, U_s, U_b) order."""
    return np.array([
        [U_s, 0.0, H_s, 0.0],
        [0.0, U_b, 0.0, H_b],
        [1.0, 1.0, U_s, 0.0],
        [rho_ratio, 1.0, 0.0, U_b],
    ])


def charpoly_coeffs_by_determinant(rho_ratio, H_s, H_b, U_s, U_b):
    """Monic quartic coefficients of det(lI - A) via determinant interpolation.

    Evaluates the determinant at five nodes and solves the Vandermonde
    system; never expands the polynomial symbolically.
    """
    A = bilayer_matrix(rho_ratio, H_s, H_b, U_s, U_b)
    scale = 1.0 + np.max(np.abs(A))
    nodes = scale * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    vals = np.array([np.linalg.det(lam * np.eye(4) - A) for lam in nodes])
    V = np.vander(nodes, 5)  # columns lam^4 .. lam^0
    return np.linalg.solve(V, vals)


def real_root_count_bruteforce(rho_ratio, H_s, H_b, U_s, U_b, tol=1e-9):
    """Count real eigenvalues of the assembled matrix directly."""
    lams = np.linalg.eigvals(bilayer_matrix(rho_ratio, H_s, H_b, U_s, U_b))
    scale = 1.0 + np.max(np.abs(lams))
    return int(np.sum(np.abs(lams.imag) <= tol * scale))


def regime_by_branches(roots, fr_minus, fr_plus, shear, tol=1e-9):
    """(real_count, regime, degenerate) of one point from its four roots.

    The classifier's rules as one point's if/else chain: count the roots
    within tol (1 + max|root|) of the real axis; flag near-collisions,
    shears within tol of a threshold, four real roots inside the window
    and odd counts; a flagged four-root or odd count takes the regime of
    the threshold test.
    """
    roots = np.asarray(roots)
    scale = tol * (1.0 + np.max(np.abs(roots)))
    nreal = int(np.sum(np.abs(roots.imag) <= scale))
    gaps = [abs(roots[i] - roots[j])
            for i in range(4) for j in range(i + 1, 4)]
    degenerate = bool(min(gaps) <= 10.0 * scale) or (
        min(abs(shear - fr_minus), abs(shear - fr_plus))
        <= tol * (1.0 + shear))
    margin = fr_minus - shear
    if nreal >= 4:
        regime = "Hyperbolic" if shear < fr_plus else "FastHyperbolic"
        if fr_minus < shear < fr_plus:
            degenerate = True
            regime = "Hyperbolic" if margin >= 0.0 else "FastHyperbolic"
    elif nreal == 2:
        regime = "Elliptic"
    else:
        degenerate = True
        if margin >= 0.0:
            regime = "Hyperbolic"
        elif shear >= fr_plus:
            regime = "FastHyperbolic"
        else:
            regime = "Elliptic"
    return nreal, regime, bool(degenerate)


def quartic_discriminant_resultant(b, c, d, e):
    """Discriminant of l^4 + b l^3 + c l^2 + d l + e as a Sylvester resultant.

    disc(P) = Res(P, P') for a monic quartic; the 7x7 Sylvester matrix of
    P (degree 4) and P' (degree 3) is evaluated with a plain determinant.
    """
    P = [1.0, b, c, d, e]
    dP = [4.0, 3.0 * b, 2.0 * c, d]
    S = np.zeros((7, 7))
    for i in range(3):  # deg(P') rows of P
        S[i, i:i + 5] = P
    for i in range(4):  # deg(P) rows of P'
        S[3 + i, i:i + 4] = dP
    return np.linalg.det(S)


def quartic_discriminant(c3, c2, c1, c0):
    """Discriminant of l^4 + c3 l^3 + c2 l^2 + c1 l + c0, expanded (vectorized).

    Positive means four real roots for the bilayer quartic (two real
    roots always exist), negative means exactly two.
    """
    b, c, d, e = c3, c2, c1, c0
    b2, c2, d2, e2 = b * b, c * c, d * d, e * e
    return (256.0 * e2 * e - 192.0 * b * d * e2 - 128.0 * c2 * e2
            + 144.0 * c * d2 * e - 27.0 * d2 * d2 + 144.0 * b2 * c * e2
            - 6.0 * b2 * d2 * e - 80.0 * b * c2 * d * e
            + 18.0 * b * c * d2 * d + 16.0 * c2 * c2 * e - 4.0 * c2 * c * d2
            - 27.0 * b2 * b2 * e2 + 18.0 * b2 * b * c * d * e
            - 4.0 * b2 * b * d2 * d - 4.0 * b2 * c2 * c * e + b2 * c2 * d2)


def _disc_of_intercept(c, h_ratio, rho_ratio):
    """Discriminant of the normalized quartic (H_b=1, H_s=h, U_s=0, U_b=c)."""
    h = h_ratio
    return quartic_discriminant(-2.0 * c, c * c - 1.0 - h, 2.0 * c * h,
                                -h * (c * c - 1.0) - rho_ratio * h)


def critical_froude_bisection(h_ratio, rho_ratio, tol=1e-10,
                              scan_points=256):
    """(Fr_minus, Fr_plus) as the sign changes in c of the discriminant.

    Scans c in [0, c_hi] for the elliptic window (negative discriminant),
    refining the scan up to 64-fold, then bisects each end of the window
    to width `tol`. RuntimeError where the scan cannot find the window.
    """
    c_hi = 2.0 * (2.0 + np.sqrt(h_ratio))
    while _disc_of_intercept(c_hi, h_ratio, rho_ratio) <= 0.0:
        c_hi *= 2.0
        if c_hi > 1e6:
            raise RuntimeError("no supercritical regime found below c = 1e6")
    m = int(scan_points)
    while True:
        cs = np.linspace(0.0, c_hi, m)
        neg = np.nonzero(_disc_of_intercept(cs, h_ratio, rho_ratio) < 0.0)[0]
        if neg.size:
            break
        m *= 8
        if m > 64 * scan_points:
            raise RuntimeError(
                f"elliptic window not resolved for h_ratio={h_ratio}, "
                f"rho_ratio={rho_ratio}")

    def bisect(lo, hi, want_neg_at_hi):
        # the discriminant changes sign once in [lo, hi]
        for _ in range(200):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            if (_disc_of_intercept(mid, h_ratio, rho_ratio) < 0.0) \
                    == want_neg_at_hi:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    first, last = int(neg[0]), int(neg[-1])
    return (bisect(float(cs[first - 1]) if first > 0 else 0.0,
                   float(cs[first]), True),
            bisect(float(cs[last]), float(cs[last + 1]), False))


# ----------------------------------------------------------------------
# linearized bilayer evolution about the rest state (single Fourier mode)
# ----------------------------------------------------------------------

def linearized_mode_evolution(rho_ratio, Hbar_s, Hbar_b, Ubar_s, Ubar_b,
                              kappa, wavenumber, amplitudes, t):
    """Evolve one Fourier mode of the linearization about the rest state.

    d/dt w = (-i k A0 - kappa k^2 diag(1,1,0,0)) w, solved with the matrix
    exponential. `amplitudes` are the four complex mode amplitudes at t=0.
    """
    A0 = bilayer_matrix(rho_ratio, Hbar_s, Hbar_b, Ubar_s, Ubar_b)
    k = float(wavenumber)
    G = -1j * k * A0 - kappa * k * k * np.diag([1.0, 1.0, 0.0, 0.0])
    return scipy.linalg.expm(G * t) @ np.asarray(amplitudes, dtype=complex)


# ----------------------------------------------------------------------
# two-layer dynamics straight from the equations
# ----------------------------------------------------------------------

def two_layer_rhs(fields, rho_ratio, Hbar_s, Hbar_b, Ubar_s, Ubar_b, kappa,
                  L):
    """Time derivatives of stacked (H_s, H_b, U_s, U_b) deviations.

    Spells out, with its own FFTs and 2/3 dealiasing of the products,

        d/dt H_l = -d_x(h_l u_l) + kappa d_x^2 H_l
        d/dt U_s = -(u_s - kappa d_x H_s / h_s) d_x U_s - d_x H_s - d_x H_b
        d/dt U_b = -(u_b - kappa d_x H_b / h_b) d_x U_b
                   - (rho_s/rho_b) d_x H_s - d_x H_b

    with h_l = Hbar_l + H_l and u_l = Ubar_l + U_l.
    """
    return _two_layer_terms(fields, rho_ratio, Hbar_s, Hbar_b, Ubar_s,
                            Ubar_b, kappa, L, with_diffusion=True)


def _two_layer_terms(fields, rho_ratio, Hbar_s, Hbar_b, Ubar_s, Ubar_b,
                     kappa, L, with_diffusion):
    H_s, H_b, U_s, U_b = np.asarray(fields, dtype=float)
    n = H_s.size
    k = np.fft.fftfreq(n, d=1.0 / n)
    ik = 2j * np.pi * k / L
    keep = np.abs(k) <= n / 3.0

    def dx(f, order=1):
        return np.fft.ifft(ik ** order * np.fft.fft(f)).real

    def dealias(f):
        return np.fft.ifft(keep * np.fft.fft(f)).real

    h_s, h_b = Hbar_s + H_s, Hbar_b + H_b
    u_s, u_b = Ubar_s + U_s, Ubar_b + U_b
    diff = kappa if with_diffusion else 0.0
    return np.array([
        -dx(dealias(h_s * u_s)) + diff * dx(H_s, 2),
        -dx(dealias(h_b * u_b)) + diff * dx(H_b, 2),
        -dealias((u_s - kappa * dx(H_s) / h_s) * dx(U_s)) - dx(H_s) - dx(H_b),
        -dealias((u_b - kappa * dx(H_b) / h_b) * dx(U_b))
        - rho_ratio * dx(H_s) - dx(H_b),
    ])


def embedded_rows(r, interface, upper, lower):
    """Two-layer rows on levels with midpoints r: `upper` above the interface.

    Each level picks its row by which side of the interface its midpoint
    lies, not by the index of the interface edge.
    """
    return np.array([upper if level > interface else lower for level in r])


def two_layer_run(fields, dt, n_steps, rho_ratio, Hbar_s, Hbar_b, Ubar_s,
                  Ubar_b, kappa, L):
    """Integrating-factor RK4 march of the two_layer_rhs system.

    The diffusion kappa d_x^2 H_l is integrated exactly: with N the
    right-hand side without it and E = exp(-kappa k^2 dt/2) acting on the
    H rows of each Fourier mode (and 1 on the U rows), Lawson's scheme
    takes

        y2 = E (y + dt/2 N(y)),  y3 = E y + dt/2 N(y2),
        y4 = E^2 y + dt E N(y3),
        y' = E^2 y + dt/6 (E^2 N(y) + 2 E N(y2) + 2 E N(y3) + N(y4)).
    """
    y = np.array(fields, dtype=float)
    n = y.shape[1]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / L
    rate = kappa * np.outer([1.0, 1.0, 0.0, 0.0], k * k)

    def E(f, m=1):
        return np.fft.ifft(np.exp(-0.5 * m * dt * rate)
                           * np.fft.fft(f, axis=1), axis=1).real

    def N(f):
        return _two_layer_terms(f, rho_ratio, Hbar_s, Hbar_b, Ubar_s,
                                Ubar_b, kappa, L, with_diffusion=False)

    for _ in range(n_steps):
        k1 = N(y)
        k2 = N(E(y + 0.5 * dt * k1))
        k3 = N(E(y) + 0.5 * dt * k2)
        k4 = N(E(y, 2) + dt * E(k3))
        y = E(y, 2) + (dt / 6.0) * (E(k1, 2) + 2.0 * E(k2) + 2.0 * E(k3)
                                    + k4)
    return y


# ----------------------------------------------------------------------
# the column step with every intermediate allocated
# ----------------------------------------------------------------------
# The one exception to the rule above: these routines are the plain
# allocating form of the package's column kernel and IF-RK4 step, kept
# operation for operation so the in-place production step can be checked
# against them bit for bit. They take only data from the package (the
# rfft multipliers of the grid and the pressure matrix (1/rho) W).

def allocating_column_spectra(h_hat, h, u, grid, profile, P, kappa):
    """dh's rfft half-spectrum and du for h given with its spectrum h_hat.

    Column tendencies less diffusion, -(P d_x h) as the pressure.
    """
    rfft, irfft, n = np.fft.rfft, np.fft.irfft, grid.n_x
    ixi, keep = grid.ixi, grid.dealias_mask
    h_tot = 1.0 + h
    u_tot = profile.ubar[:, None] + u
    dxh = irfft(ixi * h_hat, n)
    dxu = irfft(ixi * rfft(u), n)
    dh_hat = -(ixi * keep) * rfft(h_tot * u_tot)
    adv = u_tot
    if kappa > 0.0:
        adv = u_tot - kappa * dxh / h_tot
    du = -(P @ dxh) - irfft(keep * rfft(adv * dxu), n)
    return dh_hat, du


def allocating_column_rhs(h, u, grid, profile, P, kappa):
    """Column tendencies less diffusion, -(P d_x h) as the pressure."""
    dh_hat, du = allocating_column_spectra(np.fft.rfft(h), h, u, grid,
                                           profile, P, kappa)
    return np.fft.irfft(dh_hat, grid.n_x), du


def allocating_if_rk4(h, u, dt, grid, profile, P, kappa):
    """Lawson's IF-RK4 column step, each stage and E application fresh.

    E = exp(-kappa xi^2 dt/2) over the rfft half-spectrum acts on h:

        h2 = E(h + dt/2 k1),  h3 = E h + dt/2 k2,  h4 = E(E h + dt k3),
        h1 = E^2 h + dt/6 (E(E k1 + 2 k2 + 2 k3) + k4);

    u takes the classical RK4 stages.
    """
    if kappa == 0.0:
        def E(f, m=1):
            return f
    else:
        half = np.exp(-0.5 * kappa * dt * grid.ixi.imag ** 2)
        powers = {1: half, 2: half * half}

        def E(f, m=1):
            return np.fft.irfft(powers[m] * np.fft.rfft(f), grid.n_x)

    def N(h, u):
        return allocating_column_rhs(h, u, grid, profile, P, kappa)

    Eh = E(h)
    k1h, k1u = N(h, u)
    k2h, k2u = N(E(h + 0.5 * dt * k1h), u + 0.5 * dt * k1u)
    k3h, k3u = N(Eh + 0.5 * dt * k2h, u + 0.5 * dt * k2u)
    k4h, k4u = N(E(Eh + dt * k3h), u + dt * k3u)
    h1 = E(h, 2) + (dt / 6.0) * (E(E(k1h) + 2.0 * k2h + 2.0 * k3h) + k4h)
    u1 = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    return h1, u1


def allocating_spectral_if_rk4(h, u, dt, grid, profile, P, kappa):
    """The same IF-RK4 step (kappa > 0) with h carried as rfft spectra.

    With y = E rfft(h) and K the dh spectra of the stages, each stage
    input h_s taken as irfft(y_s) and its d_x h from y_s directly:

        y2 = y + dt/2 E K1,  y3 = y + dt/2 K2,  y4 = E(y + dt K3),
        h1 = irfft(E y + dt/6 (E(E K1 + 2 K2 + 2 K3) + K4));

    u takes the classical RK4 stages.
    """
    half = np.exp(-0.5 * kappa * dt * grid.ixi.imag ** 2)

    def N(y_s, u_s):
        return allocating_column_spectra(y_s, np.fft.irfft(y_s, grid.n_x),
                                         u_s, grid, profile, P, kappa)

    h_hat = np.fft.rfft(h)
    k1h, k1u = allocating_column_spectra(h_hat, h, u, grid, profile, P,
                                         kappa)
    y = half * h_hat
    Ek1h = half * k1h
    k2h, k2u = N(y + 0.5 * dt * Ek1h, u + 0.5 * dt * k1u)
    k3h, k3u = N(y + 0.5 * dt * k2h, u + 0.5 * dt * k2u)
    k4h, k4u = N(half * (y + dt * k3h), u + dt * k3u)
    h1_hat = half * y + (dt / 6.0) * (half * (Ek1h + 2.0 * k2h + 2.0 * k3h)
                                      + k4h)
    u1 = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    return np.fft.irfft(h1_hat, grid.n_x), u1


# ----------------------------------------------------------------------
# the total-velocity residual, one snapshot at a time
# ----------------------------------------------------------------------
# Like the allocating step above, no independent route: the residual's
# per-snapshot form, operation for operation on the grid's own derivative
# and dealias, so the stacked `bilayer.bd_residual` can be checked
# against it bit for bit.

def bd_residual_by_snapshots(trajectory, params):
    """(times, residual) of `bilayer.bd_residual`, snapshot by snapshot."""
    states = trajectory.states
    grid = states[0].grid
    d = grid.derivative
    kappa, rr = params.kappa, params.rho_s / params.rho_b
    Hbar = (params.Hbar_s, params.Hbar_b)
    Ubar = (params.Ubar_s, params.Ubar_b)
    dt = states[1].t - states[0].t
    H = np.array([s.stacked[:2] for s in states])
    V = np.array([[s.stacked[2 + l] - kappa * d(s.stacked[l])
                   / (Hbar[l] + s.stacked[l]) for l in (0, 1)]
                  for s in states])
    dH = (-H[4:] + 8.0 * H[3:-1] - 8.0 * H[1:-3] + H[:-4]) / (12.0 * dt)
    dV = (-V[4:] + 8.0 * V[3:-1] - 8.0 * V[1:-3] + V[:-4]) / (12.0 * dt)
    times = np.array([s.t for s in states[2:-2]])
    res = np.zeros(times.size)
    for j, i in enumerate(range(2, len(states) - 2)):
        st = states[i]
        hs, hb = Hbar[0] + st.stacked[0], Hbar[1] + st.stacked[1]
        dHs, dHb = d(st.stacked[0]), d(st.stacked[1])
        vs, vb = V[i]
        eq = np.zeros((4, grid.n_x))
        eq[0] = dH[j, 0] + d(grid.dealias(hs * (Ubar[0] + vs)))
        eq[1] = dH[j, 1] + d(grid.dealias(hb * (Ubar[1] + vb)))
        adv_s = Ubar[0] + vs - kappa * dHs / hs
        adv_b = Ubar[1] + vb - kappa * dHb / hb
        eq[2] = (dV[j, 0] + grid.dealias(adv_s * d(vs)) + dHs + dHb
                 - kappa * d(vs, order=2))
        eq[3] = (dV[j, 1] + grid.dealias(adv_b * d(vb)) + rr * dHs + dHb
                 - kappa * d(vb, order=2))
        res[j] = np.sqrt(grid.length) * np.sqrt(
            float(np.sum(np.mean(eq * eq, axis=1))))
    return times, res


# ----------------------------------------------------------------------
# slow transforms and norms
# ----------------------------------------------------------------------

def dft_sobolev_norm(values, L, s):
    """Discrete H^s norm via an explicit O(n^2) DFT matrix."""
    f = np.asarray(values, dtype=float)
    n = f.size
    j = np.arange(n)
    E = np.exp(-2j * np.pi * np.outer(j, j) / n)
    fhat = E @ f
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies, matching order
    xi = 2.0 * np.pi * k / L
    total = np.sum((1.0 + xi * xi) ** s * np.abs(fhat) ** 2) * L / n ** 2
    return float(np.sqrt(total))


def montgomery_by_loops(rho, weights, h_column):
    """Midpoint-rule Montgomery potential, straight double loop.

    rho, weights, h_column are 1-D sequences over levels (bottom to top).
    Returns Psi at each level.
    """
    n = len(rho)
    psi = [0.0] * n
    for i in range(n):
        below = 0.0
        for j in range(i):
            below += weights[j] * h_column[j]
        below += 0.5 * weights[i] * h_column[i]
        above = 0.0
        for j in range(i + 1, n):
            above += weights[j] * rho[j] * h_column[j]
        above += 0.5 * weights[i] * rho[i] * h_column[i]
        psi[i] = rho[i] * below + above
    return np.array(psi)


def dense_wave_speed_squared(rho, weights, depth):
    """max |eigvals(diag(depth) (1/rho) W)|, W[i, j] = w_j rho[max(i, j)].

    The frozen-coefficient squared gravity-wave speeds of a column,
    from the unsymmetrized matrix built entry by entry.
    """
    n = len(rho)
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = depth[i] / rho[i] * weights[j] * rho[max(i, j)]
    return float(np.max(np.abs(np.linalg.eigvals(K))))


def montgomery_lipschitz_ratio(rho1, rho2, weights, h):
    """One (rho1, rho2, h) triple's Montgomery Lipschitz ratio, alone.

    The kernels (1/rho) W are built entry by entry; the gap goes through
    one matmul; M takes Python floats, and M^3 is a Python float power.
    The batched check must equal this bit for bit, row by row.
    """
    n = len(rho1)

    def kernel(rho):
        return np.array([[weights[j] * rho[max(i, j)] / rho[i]
                          for j in range(n)] for i in range(n)])

    left = np.abs((kernel(rho1) - kernel(rho2)) @ h)
    M = max(float(np.sum(weights * rho1)), float(np.max(1.0 / rho1)),
            float(np.sum(weights * rho2)), float(np.max(1.0 / rho2)))
    drho = np.abs(rho1 - rho2)
    l1 = float(np.sum(weights * drho))
    hsup = np.max(np.abs(h), axis=0)
    right = (M ** 3 * drho[:, None] + M * l1) * hsup[None, :]
    ratio = np.where(right > 0.0, left / np.where(right > 0.0, right, 1.0), 0.0)
    if np.any((right == 0.0) & (left > 0.0)):
        return float("inf")
    return float(np.max(ratio)) if ratio.size else 0.0


# ----------------------------------------------------------------------
# closed-form pycnocline distances (exact integrals over (-1, 0))
# ----------------------------------------------------------------------

def tanh_l1_distance(eps, jump, Hbar_s, Hbar_b):
    """Exact L1(-1,0) distance between the tanh ramp and the step profile.

    Integrand is |jump|*(1 - tanh|x|/eps... spelled out: per side
    integral of (1 - tanh(xi))/2 from 0 to X with X = Hbar/eps, which is
    (ln 2 - log1p(exp(-2X)))/... times eps*|jump|. Stable for large X.
    """
    out = 0.0
    for X in (Hbar_s / eps, Hbar_b / eps):
        out += np.log(2.0) - np.log1p(np.exp(-2.0 * X))
    return 0.5 * eps * abs(jump) * out


def erf_l1_distance(eps, jump, Hbar_s, Hbar_b):
    """Exact L1 distance for the erf ramp: per side X(1-erf X)+(1-e^{-X^2})/sqrt(pi)."""
    from scipy.special import erf
    out = 0.0
    for X in (Hbar_s / eps, Hbar_b / eps):
        out += X * (1.0 - erf(X)) + (1.0 - np.exp(-X * X)) / np.sqrt(np.pi)
    return 0.5 * eps * abs(jump) * out


def pwl_l1_distance(eps, jump, Hbar_s, Hbar_b):
    """Exact L1 distance for the piecewise-linear ramp (two triangles)."""
    assert eps <= min(Hbar_s, Hbar_b), "ramp must fit inside both layers"
    return 0.5 * eps * abs(jump)


# ----------------------------------------------------------------------
# assorted exact values
# ----------------------------------------------------------------------

def symmetric_rest_roots():
    """Roots for H_s=1/3, H_b=2/3, rho ratio 1/2, zero velocities.

    P(l) = l^4 - l^2 + 1/9, so l^2 = (1 +- sqrt(5)/3)/2.
    """
    lo = np.sqrt((1.0 - np.sqrt(5.0) / 3.0) / 2.0)
    hi = np.sqrt((1.0 + np.sqrt(5.0) / 3.0) / 2.0)
    return np.array([-hi, -lo, lo, hi])


def oval_diagonal_coordinate(rho_ratio):
    """|p| at which the inner oval meets the diagonal p_s = p_b."""
    return np.sqrt(1.0 - np.sqrt(rho_ratio))


def heat_mode_decay(amplitude, kappa, wavenumber, t):
    """Amplitude of a single diffusing Fourier mode at time t."""
    return amplitude * np.exp(-kappa * wavenumber ** 2 * t)


# ----------------------------------------------------------------------
# the package's quartic and state points, laid out for numpy
# ----------------------------------------------------------------------

def characteristic_polynomial(point):
    """Coefficients [1, c3, c2, c1, c0] of P at a StatePoint."""
    c3, c2, c1, c0 = coefficient_arrays(
        point.rho_ratio, point.H_s, point.H_b, point.U_s, point.U_b)
    return np.array([1.0, float(c3), float(c2), float(c1), float(c0)])


def point_arrays(points, thresholds=None):
    """The (rho_ratio, H_s, H_b, U_s, U_b, Fr_-, Fr_+) arrays that
    `classify_arrays` and `certify_arrays` take, one entry per StatePoint;
    `thresholds` gives each point's (Fr_-, Fr_+) pair in place of its own."""
    if thresholds is None:
        thresholds = [p.thresholds for p in points]
    return tuple(np.array([(p.rho_ratio, p.H_s, p.H_b, p.U_s, p.U_b, *fr)
                           for p, fr in zip(points, thresholds)],
                          dtype=float).reshape(-1, 7).T)
