"""Discrete flat tori: circulant Laplacians, heat traces, spectral actions.

The signature-(t, s) Laplacian on (Z/NZ)^d factorizes over circles, so
every trace reduces to powers of the one-dimensional sums
T(theta) = sum_k exp(theta * lambda_k) with lambda_k the circle spectrum
(2 cos(2 pi k / N) - 2) / a^2.  Log-domain accumulation keeps the wildly
growing Lorentzian traces representable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TorusSpec:
    """Flat discrete torus: dimension d = t + s, N points per circle, spacing a."""

    d: int
    t: int
    s: int
    N: int
    a: float

    def __post_init__(self):
        if self.d < 1 or self.t < 0 or self.s < 0 or self.t + self.s != self.d:
            raise ValueError("need t + s = d with nonnegative parts")
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if not 0 < self.a < math.inf:
            raise ValueError("lattice spacing must be positive and finite")

    @property
    def L(self) -> float:
        return self.N * self.a

    def euclidean(self) -> "TorusSpec":
        return TorusSpec(self.d, 0, self.d, self.N, self.a)


@dataclass(frozen=True)
class CutoffFn:
    """Cutoff profile f for the action Tr f(-Delta/Lambda^2).

    ``gaussian`` is exp(-u^2) with an analytic Fourier transform;
    ``exp`` is exp(-u), which can overflow on Lorentzian modes (refused);
    ``sampled`` interpolates tabulated (u, f(u)) values and supports the
    eigenvalue-grid path only.
    """

    kind: str = "gaussian"
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in ("gaussian", "exp", "sampled"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "sampled":
            if len(self.params) != 2:
                raise ValueError("sampled cutoff needs (u_grid, values)")
            # converted once: the grid path calls f once per slab
            object.__setattr__(self, "params", tuple(np.asarray(x, float) for x in self.params))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "sampled":
            return np.interp(u, *self.params)
        # u^2 = inf gives exp(-inf) = 0, the right limit; spectral_action refuses exp(-u) = inf
        with np.errstate(over="ignore"):
            return np.exp(-(u ** 2)) if self.kind == "gaussian" else np.exp(-u)

    @property
    def has_fourier(self) -> bool:
        return self.kind == "gaussian"

    def fourier(self, k):
        """h with f(u) = integral h(k) exp(i k u) dk."""
        if self.kind != "gaussian":
            raise ValueError(f"no integrable Fourier transform for {self.kind!r}")
        k = np.asarray(k, dtype=float)
        return np.exp(-(k ** 2) / 4.0) / (2.0 * np.sqrt(np.pi))


def _circle_eigenvalues(N: int, a: float) -> np.ndarray:
    """(2 cos(2 pi k / N) - 2) / a^2 for k = 0, ..., N - 1, unsorted.

    N = 2 is special: both neighbour conditions coincide, the adjacency
    entry stays 1, and the eigenvalues are (-1 - 2)/a^2 and (1 - 2)/a^2.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if N == 2:
        return np.array([-3.0, -1.0]) / a ** 2
    return (2.0 * np.cos(2.0 * np.pi * np.arange(N) / N) - 2.0) / a ** 2


def circle_spectrum(N: int, a: float) -> np.ndarray:
    """Eigenvalues (2 cos(2 pi k / N) - 2) / a^2 of the circle operator, sorted."""
    return np.sort(_circle_eigenvalues(N, a))


def _log_sum(lam: np.ndarray, theta: complex) -> complex:
    """Complex log of sum_k exp(theta * lambda_k), shifted for stability."""
    z = theta * lam
    shift = float(z.real.max())
    total = np.exp(z - shift).sum()
    return shift + np.log(total)


def log_heat_trace(spec: TorusSpec, theta: complex) -> complex:
    """log Tr exp(theta * Delta) via the circle factorization."""
    lam = circle_spectrum(spec.N, spec.a)
    theta = complex(theta)
    out = 0.0 + 0.0j
    if spec.t:
        out += spec.t * _log_sum(lam, theta)
    if spec.s:
        out += spec.s * _log_sum(lam, -theta)
    return out


def heat_trace(spec: TorusSpec, theta: complex) -> complex:
    """Tr exp(theta * Delta); N^d at theta = 0.  May overflow to inf."""
    if theta == 0:
        return complex(spec.N ** spec.d)
    with np.errstate(over="ignore"):
        return complex(np.exp(log_heat_trace(spec, theta)))


def shift_identity_residual(spec: TorusSpec, theta: complex) -> float:
    """Relative defect of Tr e^(theta Delta) = e^(-4 t theta / a^2) Tr e^(theta Delta_E).

    Exact (up to rounding) for even N, where odd adjacency powers are
    traceless; odd circles support odd closed walks and break it.
    """
    log_lhs = log_heat_trace(spec, theta)
    log_rhs = -4.0 * spec.t * complex(theta) / spec.a ** 2 + log_heat_trace(
        spec.euclidean(), theta
    )
    return float(abs(1.0 - np.exp(log_rhs - log_lhs)))


GRID_LIMIT = 10 ** 7      # most eigenvalues the grid path sums
FOURIER_LIMIT = 10 ** 8   # most quadrature-node x circle-mode terms the Fourier path sums
_BLOCK = 2 ** 14          # entries per streamed slab or node block: 128 kB of float64


def _grid_slabs(spec: TorusSpec):
    """The N^d eigenvalues in grid order, as slabs of about _BLOCK values.

    The first d - 1 circles are summed out in full (N^(d-1) values); each
    slab adds the last circle to a run of those partial sums.
    """
    if spec.N ** spec.d > GRID_LIMIT:
        raise ValueError("eigenvalue grid too large")
    lam = circle_spectrum(spec.N, spec.a)
    signs = [1.0] * spec.t + [-1.0] * spec.s
    head = np.zeros(1)
    for sign in signs[:-1]:
        head = np.add.outer(head, sign * lam).ravel()
    last = signs[-1] * lam
    rows = max(1, _BLOCK // spec.N)
    for i in range(0, head.size, rows):
        yield np.add.outer(head[i:i + rows], last).ravel()


def eigenvalue_grid(spec: TorusSpec) -> np.ndarray:
    """All N^d eigenvalues of the signature Laplacian (t plus, s minus)."""
    return np.concatenate(list(_grid_slabs(spec)))


def spectral_action(
    spec: TorusSpec, f: CutoffFn, lam_cut: float, method: str = "auto"
) -> float:
    """S = Tr f(-Delta/Lambda^2) by eigenvalue grid or Fourier quadrature.

    The grid path is exact for N^d within the dense limit; the Fourier
    path needs an integrable transform (gaussian cutoff).  Both agree to
    1e-6 relative where both run.  Both stream: the grid in slabs, the
    quadrature in node blocks, so memory stays bounded by N^(d-1) values
    and by the node count n, never by N^d or n N.  A non-finite action raises.
    """
    if not (lam_cut > 0 and np.finfo(float).tiny <= float(lam_cut) * float(lam_cut) < math.inf):
        raise ValueError(f"Lambda = {lam_cut!r} must be positive with a finite, normal square")
    if method not in ("auto", "grid", "fourier"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "grid" if spec.N ** spec.d <= GRID_LIMIT else "fourier"
    if method == "grid":
        slabs = _grid_slabs(spec)
        return _finite(math.fsum(float(f(-slab / lam_cut ** 2).sum()) for slab in slabs))
    if not f.has_fourier:
        raise ValueError("grid too large and cutoff has no Fourier transform")
    if 4001 * spec.N > FOURIER_LIMIT:  # n >= 4001 below; refuse before building the spectrum
        raise ValueError(f"Fourier quadrature too large: over 4001 nodes x {spec.N} modes")
    eig = _circle_eigenvalues(spec.N, spec.a)
    scale = 1.0 / lam_cut ** 2
    K = 2.0 * np.sqrt(np.log(10.0) * (16 + spec.d * np.log10(spec.N)))
    omega = spec.d * float(np.abs(eig).max()) * scale
    n = int(max(4001, 40 * K * max(1.0, omega)))
    if n % 2 == 0:
        n += 1
    if n * spec.N > FOURIER_LIMIT:
        raise ValueError(f"Fourier quadrature too large: {n} nodes x {spec.N} modes")
    # mode N - k repeats mode k: keep k = 0..N//2 and count k = 1..(N-1)//2 twice
    lam = eig[: spec.N // 2 + 1]
    mult = np.ones(lam.size)
    mult[1:(spec.N + 1) // 2] = 2.0
    # Simpson's rule on n nodes over [-K, K], step h.  The spectrum is real, so
    # tr(-k) = conj(tr(k)) and the integrand is even: sum over k >= 0 only,
    # every node but k = 0 standing for its mirror image too.
    m = (n - 1) // 2
    h = 2.0 * K / (n - 1)
    k = np.linspace(0.0, K, m + 1)
    w = np.where((m + np.arange(m + 1)) % 2, 4.0, 2.0)
    w[-1] = 1.0
    w[0] /= 2.0
    rows = max(1, _BLOCK // lam.size)
    total = 0.0
    for i in range(0, m + 1, rows):
        phase = scale * np.multiply.outer(k[i:i + rows], lam)
        tr = np.cos(phase) @ mult - 1j * (np.sin(phase) @ mult)
        integrand = (f.fourier(k[i:i + rows]) * tr ** spec.t * np.conj(tr) ** spec.s).real
        total += float(w[i:i + rows] @ integrand)
    return _finite(float(2.0 * total * h / 3.0))


def _finite(S: float) -> float:
    """The action S, refused when it overflowed to inf or nan."""
    if not math.isfinite(S):
        raise ValueError(f"spectral action {S} is not finite: the cutoff overflows")
    return S


def heat_kernel_limit_check(spec: TorusSpec, theta: float) -> float:
    """Ratio of Tr e^(theta Delta_E) to the continuum value (L/sqrt(4 pi |theta|))^d.

    Meaningful in the regime a << sqrt(|theta|) << L; tends to 1 there.
    """
    if spec.t != 0:
        raise ValueError("heat kernel limit needs a Riemannian torus (t = 0)")
    if not (np.isreal(theta) and theta < 0):
        raise ValueError("theta must be real and negative")
    root = np.sqrt(abs(theta))
    if spec.a > 0.25 * root or root > 0.25 * spec.L:
        warnings.warn("outside the regime a << sqrt(|theta|) << L", stacklevel=2)
    value = heat_trace(spec, theta).real
    return float(value / (spec.L / np.sqrt(4.0 * np.pi * abs(theta))) ** spec.d)


def divergence_exponent(
    base: TorusSpec, a_values, f: CutoffFn, lam_cut: float, method: str = "auto"
):
    """Least-squares slope of log S against log(1/a) at fixed L = N a.

    Only the three smallest spacings enter the fit, suppressing
    subleading corrections.  Returns (slope, rows) with one
    (a, N, S) row per spacing.
    """
    if base.t < 1:
        raise ValueError("divergence scan needs at least one time direction")
    a_values = sorted(float(a) for a in a_values)
    if len(a_values) < 3:
        raise ValueError("need at least 3 lattice spacings")
    if len(set(a_values[:3])) < 3:
        raise ValueError(f"the 3 smallest lattice spacings must be distinct, got {a_values[:3]}")
    L = base.L
    rows = []
    for a in a_values:
        N = int(round(L / a))
        spec = TorusSpec(base.d, base.t, base.s, N, a)
        rows.append((a, N, spectral_action(spec, f, lam_cut, method)))
    fit = rows[:3]
    x = np.log([1.0 / a for a, _, _ in fit])
    y = np.log([S for _, _, S in fit])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope, rows
