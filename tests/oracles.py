"""Reference implementations used to cross-check the package.

Everything in this file is deliberately naive: closed-form root formulas,
O(n^2) transforms, double loops over level indices. These routines were
written and frozen before the package code and share none of its code
paths, so agreement between the two is meaningful. Do not "optimize" them
into calls back into pycnolab.
"""

import numpy as np
import scipy.linalg


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
