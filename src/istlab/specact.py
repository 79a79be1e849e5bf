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


EXP_ZERO = 746.0  # exp(-x) rounds to 0.0 for every x >= 745.14


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
        # u^2 = inf gives exp(-inf) = 0, the right limit; spectral_action refuses exp(-u) = inf.
        # exp(-x) is 0.0 for x >= EXP_ZERO but slow there, so those entries are not computed;
        # ~(x >= .) rather than x < . keeps nan in
        with np.errstate(over="ignore"):
            x = u ** 2 if self.kind == "gaussian" else u
            return np.exp(-x, out=np.zeros_like(x), where=~(x >= EXP_ZERO))[()]

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
_BLOCK = 2 ** 14          # entries per streamed slab or table: 128 kB of float64, 256 kB complex


def _modes(spec: TorusSpec):
    """The N//2 + 1 distinct circle modes and their counts: mode N - k repeats mode k."""
    lam = _circle_eigenvalues(spec.N, spec.a)[: spec.N // 2 + 1]
    counts = np.ones(lam.size)
    counts[1:(spec.N + 1) // 2] = 2.0
    return lam, counts


def _grid_slabs(spec: TorusSpec, g):
    """Sums of g over the N^d eigenvalues, one per slab of about _BLOCK terms.

    The terms run over distinct circle modes, (N//2+1)^d of them, each weighted by how
    often its eigenvalue occurs; weights are products of the counts 1 and 2, so exact.
    The first d - 1 circles are summed out in full; each slab adds the last circle.
    """
    if spec.N ** spec.d > GRID_LIMIT:
        raise ValueError("eigenvalue grid too large")
    lam, counts = _modes(spec)
    signs = [1.0] * spec.t + [-1.0] * spec.s
    head, weights = np.zeros(1), np.ones(1)
    for sign in signs[:-1]:
        head = np.add.outer(head, sign * lam).ravel()
        weights = np.multiply.outer(weights, counts).ravel()
    last = signs[-1] * lam
    rows = max(1, _BLOCK // lam.size)
    for i in range(0, head.size, rows):
        yield float(weights[i:i + rows] @ g(np.add.outer(head[i:i + rows], last)) @ counts)


def spectral_action(
    spec: TorusSpec, f: CutoffFn, lam_cut: float, method: str = "auto"
) -> float:
    """S = Tr f(-Delta/Lambda^2) by eigenvalue grid or Fourier quadrature.

    The grid path is exact for N^d within the dense limit; the Fourier
    path needs an integrable transform (gaussian cutoff).  Both agree to
    1e-6 relative where both run.  Both stream: the grid in slabs over
    distinct circle modes, the quadrature in node blocks, so memory grows
    with (N//2+1)^max(1, d-1) values and with n, never with N^d or n N.
    The grid skips exp where it underflows to 0.  The quadrature factors
    each node's phases into an inner table, shared by all blocks, and an
    outer table per block: about sqrt(n) N exponentials and one complex
    matrix product per block, not n N cosines and sines.  A non-finite S raises.
    """
    if not (lam_cut > 0 and np.finfo(float).tiny <= float(lam_cut) * float(lam_cut) < math.inf):
        raise ValueError(f"Lambda = {lam_cut!r} must be positive with a finite, normal square")
    if method not in ("auto", "grid", "fourier"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "grid" if spec.N ** spec.d <= GRID_LIMIT else "fourier"
    if method == "grid":
        with np.errstate(over="ignore"):  # an overflowing weighted sum is inf: _finite refuses it
            return _finite(math.fsum(_grid_slabs(spec, lambda lam: f(-lam / lam_cut ** 2))))
    if not f.has_fourier:
        raise ValueError("grid too large and cutoff has no Fourier transform")
    if 4001 * spec.N > FOURIER_LIMIT:  # n >= 4001 below; refuse before building the spectrum
        raise ValueError(f"Fourier quadrature too large: over 4001 nodes x {spec.N} modes")
    lam, mult = _modes(spec)
    scale = 1.0 / lam_cut ** 2
    K = 2.0 * np.sqrt(np.log(10.0) * (16 + spec.d * np.log10(spec.N)))
    omega = spec.d * float(np.abs(lam).max()) * scale
    n = int(max(4001, 40 * K * max(1.0, omega)))
    if n % 2 == 0:
        n += 1
    if n * spec.N > FOURIER_LIMIT:
        raise ValueError(f"Fourier quadrature too large: {n} nodes x {spec.N} modes")
    # Simpson's rule on n nodes over [-K, K], step h.  The spectrum is real, so
    # tr(-k) = conj(tr(k)) and the integrand is even: sum over k >= 0 only,
    # every node but k = 0 standing for its mirror image too.
    m = (n - 1) // 2
    h = 2.0 * K / (n - 1)
    k = np.linspace(0.0, K, m + 1)
    w = np.where((m + np.arange(m + 1)) % 2, 4.0, 2.0)
    w[-1] = 1.0
    w[0] /= 2.0
    # Node j = q R + r sits at k = (q R + r) h, so exp(-i k lam) is exp(-i q R h lam) times
    # exp(-i r h lam): one R x modes table of inner factors, a table of outer factors per
    # block of q, and the block's tr in one complex product.  R ~ sqrt(m) makes that about
    # 2 sqrt(m) x modes exponentials, not m x modes cos and sin; each table fits in _BLOCK
    R = max(1, min(math.isqrt(m + 1), _BLOCK // lam.size))
    inner = mult * np.exp(-1j * scale * np.multiply.outer(h * np.arange(R), lam))
    rows = max(1, _BLOCK // max(lam.size, R))
    starts = np.arange(0, m + 1, R)
    total = 0.0
    for b in range(0, starts.size, rows):
        outer = np.exp(-1j * scale * np.multiply.outer(h * starts[b:b + rows], lam))
        i = b * R
        tr = (outer @ inner.T).ravel()[: m + 1 - i]
        integrand = (f.fourier(k[i:i + tr.size]) * tr ** spec.t * np.conj(tr) ** spec.s).real
        total += float(w[i:i + tr.size] @ integrand)
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
