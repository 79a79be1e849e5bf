import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from istlab import specact
from istlab.specact import (
    CutoffFn,
    TorusSpec,
    circle_spectrum,
    divergence_exponent,
    heat_kernel_limit_check,
    heat_trace,
    shift_identity_residual,
    spectral_action,
)


def dense_laplacian(spec):
    """Kronecker-sum assembly of the full signature Laplacian."""
    n = spec.N
    C = np.zeros((n, n))
    for i in range(n):
        C[i, (i + 1) % n] += 1
        C[i, (i - 1) % n] += 1
    if n == 2:
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
    D2 = (C - 2 * np.eye(n)) / spec.a ** 2
    total = np.zeros((n ** spec.d, n ** spec.d))
    for i in range(spec.d):
        sign = 1.0 if i < spec.t else -1.0
        M = np.eye(1)
        for j in range(spec.d):
            M = np.kron(M, D2 if j == i else np.eye(n))
        total += sign * M
    return total


def eigenvalue_grid(spec):
    """The N^d eigenvalues of the signature Laplacian (t plus, s minus), first circle slowest."""
    lam = circle_spectrum(spec.N, spec.a)
    grid = np.zeros(1)
    for sign in [1.0] * spec.t + [-1.0] * spec.s:
        grid = np.add.outer(grid, sign * lam).ravel()
    return grid


def test_circle_spectrum_fixtures():
    assert_allclose(circle_spectrum(2, 1.0), [-3.0, -1.0])
    assert_allclose(circle_spectrum(4, 1.0), [-4.0, -2.0, -2.0, 0.0])
    assert circle_spectrum(16, 0.5).max() == 0.0
    with pytest.raises(ValueError):
        circle_spectrum(1, 1.0)


def test_circle_spectrum_matches_adjacency():
    for n in (2, 3, 4, 5, 8, 9):
        spec = TorusSpec(1, 0, 1, n, 0.7)
        dense = np.sort(np.linalg.eigvalsh(dense_laplacian(spec)))
        assert_allclose(np.sort(-circle_spectrum(n, 0.7)), dense, atol=1e-12)


def test_circle_spectrum_trace_identity():
    for n in (2, 3, 8, 17):
        a = 0.3
        assert abs(circle_spectrum(n, a).sum() + 2 * n / a ** 2) <= 1e-9 / a ** 2


def test_heat_trace_at_zero():
    spec = TorusSpec(3, 1, 2, 5, 0.2)
    assert heat_trace(spec, 0.0) == 125.0


def test_heat_trace_monotone_for_riemannian():
    spec = TorusSpec(2, 0, 2, 8, 0.5)
    values = [heat_trace(spec, th).real for th in (-0.01, -0.1, -1.0)]
    assert values[0] > values[1] > values[2] > 0


def test_heat_trace_balanced_product_positive(rng):
    spec = TorusSpec(2, 1, 1, 8, 0.5)
    for theta in (0.05, -0.3, 1.0):
        prod = heat_trace(spec, theta) * heat_trace(spec, -theta)
        assert abs(prod.imag) <= 1e-6 * abs(prod)
        assert prod.real >= 0
    # imaginary theta keeps the trace inside the N^d disk
    for theta in (0.2j, -0.7j):
        assert abs(heat_trace(spec, theta)) <= 8 ** 2 + 1e-9


def test_shift_identity_even_n(rng):
    worst = 0.0
    for _ in range(50):
        t = int(rng.integers(0, 4))
        s = int(rng.integers(0, 4))
        if t + s == 0:
            t = 1
        N = int(rng.choice(np.arange(2, 33, 2)))
        a = float(rng.uniform(0.1, 1.0))
        theta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        spec = TorusSpec(t + s, t, s, N, a)
        worst = max(worst, shift_identity_residual(spec, theta))
    assert worst <= 1e-10


def test_shift_identity_exact_cases():
    assert shift_identity_residual(TorusSpec(2, 0, 2, 8, 0.5), -0.3) <= 1e-14
    assert shift_identity_residual(TorusSpec(2, 1, 1, 8, 1.0), -0.1) <= 1e-12
    assert shift_identity_residual(TorusSpec(4, 1, 3, 16, 1.0), 0.05j) <= 1e-10


def test_shift_identity_breaks_on_odd_circles():
    # odd cycles carry odd closed walks: tr(C^N) != 0, so the parity
    # argument behind the identity fails
    n = 3
    C = np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert np.trace(np.linalg.matrix_power(C, 3)) != 0
    residual = shift_identity_residual(TorusSpec(2, 1, 1, 3, 0.3), -0.1)
    assert residual > 1e-3


def test_spectral_action_grid_matches_dense_oracle():
    f = CutoffFn("gaussian")
    for spec in (TorusSpec(2, 1, 1, 8, 0.25), TorusSpec(3, 1, 2, 4, 0.5)):
        dense = np.linalg.eigvalsh(dense_laplacian(spec))
        oracle = float(f(-dense / 25.0).sum())
        grid = spectral_action(spec, f, 5.0, method="grid")
        assert abs(grid - oracle) <= 1e-9 * abs(oracle)


PATH_CASES = (
    (TorusSpec(2, 1, 1, 16, 1 / 16), 10.0),
    (TorusSpec(4, 1, 3, 8, 1 / 8), 20.0),
    (TorusSpec(2, 2, 0, 12, 0.3), 6.0),
    # the Fourier path folds circle modes and nodes; these are its edge cases
    (TorusSpec(1, 1, 0, 2, 1.0), 2.0),     # N = 2: the two special circle values
    (TorusSpec(2, 1, 1, 2, 0.5), 3.0),
    (TorusSpec(3, 3, 0, 2, 0.5), 3.0),
    (TorusSpec(1, 0, 1, 3, 1.0), 2.0),     # N = 3: one mode counted once, one twice
    (TorusSpec(3, 1, 2, 3, 0.4), 4.0),
    (TorusSpec(4, 2, 2, 3, 0.5), 3.0),
    (TorusSpec(2, 1, 1, 9, 1 / 9), 10.0),  # odd N: no unpaired top mode
    (TorusSpec(3, 0, 3, 7, 0.3), 6.0),     # t = 0
    (TorusSpec(2, 2, 0, 5, 0.5), 3.0),     # s = 0
)


def test_spectral_action_paths_agree():
    f = CutoffFn("gaussian")
    for spec, lam in PATH_CASES:
        grid = spectral_action(spec, f, lam, method="grid")
        fourier = spectral_action(spec, f, lam, method="fourier")
        assert abs(grid - fourier) <= 1e-6 * abs(grid)


def fourier_restated(spec, lam_cut):
    """The Fourier quadrature over all n nodes and all N modes, one cos and sin per pair."""
    eig = circle_spectrum(spec.N, spec.a)
    K = 2.0 * np.sqrt(np.log(10.0) * (16 + spec.d * np.log10(spec.N)))
    n = int(max(4001, 40 * K * max(1.0, spec.d * float(np.abs(eig).max()) / lam_cut ** 2)))
    n += 1 - n % 2
    k = np.linspace(-K, K, n)  # Simpson's rule, weights 1, 4, 2, 4, ..., 2, 4, 1
    w = np.where(np.arange(n) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    total = 0.0
    for i in range(0, n, 1024):
        phase = np.multiply.outer(k[i:i + 1024], eig / lam_cut ** 2)
        tr = np.cos(phase).sum(axis=1) - 1j * np.sin(phase).sum(axis=1)
        transform = CutoffFn("gaussian").fourier(k[i:i + 1024])
        total += w[i:i + 1024] @ (transform * tr ** spec.t * np.conj(tr) ** spec.s).real
    return total * (2.0 * K / (n - 1)) / 3.0  # not k[1] - k[0], which loses 1e-13 to rounding


@pytest.mark.parametrize("spec, lam", PATH_CASES + (
    (TorusSpec(4, 1, 3, 32, 1 / 32), 20.0),    # the action locked at 41399.44975
    (TorusSpec(3, 1, 2, 128, 1 / 128), 20.0),  # 281,905 nodes
))
def test_fourier_route_matches_the_direct_quadrature(spec, lam):
    S = spectral_action(spec, CutoffFn("gaussian"), lam, method="fourier")
    want = fourier_restated(spec, lam)
    assert abs(S - want) <= 1e-13 * abs(want)


def test_cutoff_is_the_exponential_bit_for_bit():
    # x = u^2 from 0 past 760, dense where exp(-x) is subnormal (from 708.4) and where it
    # rounds to 0 (from 745.13); shuffled too, so computed and skipped entries interleave
    x = np.concatenate([np.linspace(0.0, 770.0, 40001), np.linspace(706.0, 712.0, 20001),
                        np.linspace(745.0, 746.5, 20001), [np.inf, np.nan]])
    x = np.concatenate([x, np.random.default_rng(0).permutation(x)])
    u = np.sqrt(x)
    with np.errstate(over="ignore"):
        for got, want in (
            (CutoffFn("gaussian")(u), np.exp(-(u ** 2))),
            (CutoffFn("gaussian")(-u), np.exp(-(u ** 2))),
            (CutoffFn("exp")(x), np.exp(-x)),
            (CutoffFn("exp")(-x), np.exp(x)),  # overflows to inf
        ):
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.isnan(got), np.isnan(x))
    # a scalar in gives a scalar out, as from np.exp
    assert type(CutoffFn("gaussian")(3.0)) is type(np.exp(-9.0)) and CutoffFn("exp")(800.0) == 0.0


U_SAMPLES = np.linspace(-50.0, 50.0, 2001)


@pytest.mark.parametrize("f", [
    CutoffFn("gaussian"),
    CutoffFn("exp"),
    CutoffFn("sampled", (U_SAMPLES, np.exp(-(U_SAMPLES ** 2)))),
], ids=["gaussian", "exp", "sampled"])
def test_streamed_grid_matches_dense_sum(f):
    small = TorusSpec(3, 1, 2, 4, 0.5)
    assert_allclose(np.sort(eigenvalue_grid(small)), np.linalg.eigvalsh(dense_laplacian(small)),
                    atol=1e-12)
    for spec in (TorusSpec(3, 1, 2, 40, 1 / 40), TorusSpec(2, 0, 2, 200, 0.05),
                 TorusSpec(1, 0, 1, 64, 0.25)):
        want = float(f(-eigenvalue_grid(spec) / 20.0 ** 2).sum())
        assert abs(spectral_action(spec, f, 20.0, method="grid") - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("N", [2, 3, 8, 9])
def test_mode_counts_and_grid_weights_are_exact(N):
    lam, counts = specact._modes(TorusSpec(1, 0, 1, N, 0.3))
    assert counts.sum() == N and lam.size == N // 2 + 1
    assert_allclose(np.sort(np.repeat(lam, counts.astype(int))), circle_spectrum(N, 0.3),
                    atol=1e-12)
    one = CutoffFn("sampled", ([0.0, 1.0], [1.0, 1.0]))  # f = 1 counts every eigenvalue once
    for d in range(1, 5):
        for t in range(d + 1):
            spec = TorusSpec(d, t, d - t, N, 0.3)
            assert math.fsum(specact._grid_slabs(spec, np.ones_like)) == N ** d
            assert spectral_action(spec, one, 5.0, method="grid") == N ** d


@pytest.mark.parametrize("N", [2, 3, 8, 63, 64])
def test_grid_counts_the_exact_null_modes(N):
    # As Lambda -> 0, f(-Delta/Lambda^2) keeps only the eigenvalues that are exactly 0:
    # lambda_{k_t} - lambda_{k_s} = 0 at k_s = +-k_t mod N.  k_t = 0, and k_t = N/2 for even
    # N, have one partner k_s = k_t; every other k_t has two, k_s = k_t and N - k_t.  So
    # 2 + 2 (N - 2) = 2N - 2 for even N (N = 2 too) and 1 + 2 (N - 1) = 2N - 1 for odd N.
    # The folded grid takes mode N - k's value from mode k, so these terms are exactly 0.
    S = spectral_action(TorusSpec(2, 1, 1, N, 1 / N), CutoffFn("gaussian"), 1e-150, "grid")
    assert S == (2 * N - 2 if N % 2 == 0 else 2 * N - 1)


@pytest.mark.parametrize("spec, lam", [(TorusSpec(4, 1, 3, 16, 1 / 16), 1.0),
                                       (TorusSpec(3, 0, 3, 64, 1 / 64), 3.0)])
def test_grid_refuses_an_overflowing_sum_without_a_warning(spec, lam):
    # finite values of exp(-u) whose weighted sum overflows: the action is inf and refused,
    # and pyproject.toml's filter would turn an overflow warning into a failure
    with pytest.raises(ValueError, match="is not finite"):
        spectral_action(spec, CutoffFn("exp"), lam, "grid")


@pytest.mark.parametrize("spec, method", [
    (TorusSpec(3, 1, 2, 128, 1 / 128), "fourier"),  # 281,905 nodes x 128 modes
    (TorusSpec(4, 1, 3, 56, 1 / 56), "grid"),       # 9.8e6 eigenvalues
    (TorusSpec(1, 1, 0, 8192, 1.0), "fourier"),     # 4001 nodes x 4097 modes: _BLOCK caps R at 3
    (TorusSpec(2, 0, 2, 3162, 1 / 3162), "grid"),   # 1e7 eigenvalues, 1582 x 1582 terms
])
def test_spectral_action_memory_is_bounded(spec, method):
    tracemalloc.start()
    try:
        spectral_action(spec, CutoffFn("gaussian"), 20.0, method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("lam", [1e-200, 1e-160, 1e200, 0.0, -1.0, float("nan"), float("inf")])
def test_spectral_action_rejects_cutoff_without_normal_square(lam):
    for method in ("grid", "fourier"):
        with pytest.raises(ValueError, match="Lambda"):
            spectral_action(TorusSpec(2, 1, 1, 8, 0.125), CutoffFn("gaussian"), lam, method)


def test_spectral_action_refuses_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        spectral_action(TorusSpec(2, 1, 1, 8, 0.125), CutoffFn("gaussian"), 5.0, method="bogus")


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_heat_kernel_limit_refuses_a_theta_that_is_not_negative(theta):
    with pytest.raises(ValueError, match="theta must be real and negative"):
        heat_kernel_limit_check(TorusSpec(2, 0, 2, 8, 0.5), theta)


def test_spectral_action_gaussian_saturates_at_large_cutoff():
    spec = TorusSpec(2, 0, 2, 6, 0.5)
    S = spectral_action(spec, CutoffFn("gaussian"), 1e4)
    assert abs(S - 6 ** 2) <= 1e-6 * 36


def test_exp_cutoff_composes_to_heat_trace():
    spec = TorusSpec(2, 0, 2, 8, 0.5)
    S = spectral_action(spec, CutoffFn("exp"), 3.0, method="grid")
    assert abs(S - heat_trace(spec, 1.0 / 9.0).real) <= 1e-9 * S


def test_sampled_cutoff_grid_only():
    u = np.linspace(-50.0, 50.0, 200001)
    sampled = CutoffFn("sampled", (u, np.exp(-(u ** 2))))
    spec = TorusSpec(2, 1, 1, 8, 0.5)
    S1 = spectral_action(spec, sampled, 5.0, method="grid")
    S2 = spectral_action(spec, CutoffFn("gaussian"), 5.0, method="grid")
    # linear interpolation error only
    assert abs(S1 - S2) <= 1e-5 * abs(S2)
    as_lists = CutoffFn("sampled", (u.tolist(), np.exp(-(u ** 2)).tolist()))
    assert spectral_action(spec, as_lists, 5.0, method="grid") == S1
    with pytest.raises(ValueError, match="Fourier"):
        spectral_action(spec, sampled, 5.0, method="fourier")


def test_eigenvalue_grid_limit(monkeypatch):
    def spectrum(*_):
        raise AssertionError("a spectrum was computed before the grid size was checked")

    monkeypatch.setattr(specact, "_circle_eigenvalues", spectrum)
    with pytest.raises(ValueError, match="^eigenvalue grid too large$"):
        spectral_action(TorusSpec(8, 4, 4, 12, 0.1), CutoffFn("gaussian"), 5.0, "grid")


def test_heat_kernel_limit():
    for d in (1, 2):
        spec = TorusSpec(d, 0, d, 512, 1.0 / 512)
        assert abs(heat_kernel_limit_check(spec, -1e-3) - 1.0) <= 0.01
    with pytest.warns(UserWarning, match="regime"):
        heat_kernel_limit_check(TorusSpec(1, 0, 1, 16, 1.0 / 16), -100.0)
    with pytest.raises(ValueError, match="Riemannian"):
        heat_kernel_limit_check(TorusSpec(2, 1, 1, 16, 1.0 / 16), -1e-3)


def test_riemannian_action_converges():
    f = CutoffFn("gaussian")
    values = []
    for n in (32, 64, 128):
        spec = TorusSpec(2, 0, 2, n, 1.0 / n)
        values.append(spectral_action(spec, f, 20.0))
    # convergent: relative drift shrinks with the lattice spacing
    assert abs(values[2] - values[1]) < abs(values[1] - values[0])
    assert abs(values[2] / values[1] - 1) < 0.01


def test_divergence_scan_rows_and_slope():
    f = CutoffFn("gaussian")
    base = TorusSpec(2, 1, 1, 32, 1 / 32)
    slope, rows = divergence_exponent(base, [1 / 32, 1 / 64, 1 / 128], f, 20.0)
    assert len(rows) == 3
    assert all(N == round(1 / a) for a, N, _ in rows)
    # rows come sorted by ascending spacing; the action grows as a shrinks
    assert rows[0][2] > rows[2][2]
    # measured lattice exponents at fixed Lambda over these scans: 0.520 at
    # d=2, between d-2 and d-1 and still drifting toward d-1 at smaller a;
    # 2.002 at d=4, i.e. d-2
    assert 0.3 <= slope <= 0.8
    slope4, _ = divergence_exponent(
        TorusSpec(4, 1, 3, 8, 1 / 8), [1 / 8, 1 / 16, 1 / 32], f, 20.0, method="fourier"
    )
    assert abs(slope4 - 2.0) <= 0.15


def test_divergence_scan_validation():
    f = CutoffFn("gaussian")
    base = TorusSpec(2, 1, 1, 32, 1 / 32)
    with pytest.raises(ValueError, match="time"):
        divergence_exponent(TorusSpec(2, 0, 2, 32, 1 / 32), [0.1, 0.2, 0.3], f, 5.0)
    with pytest.raises(ValueError, match="3 lattice"):
        divergence_exponent(base, [0.1, 0.2], f, 5.0)


def test_torus_spec_validation():
    with pytest.raises(ValueError):
        TorusSpec(2, 1, 0, 8, 0.5)
    with pytest.raises(ValueError):
        TorusSpec(2, 1, 1, 1, 0.5)
    with pytest.raises(ValueError):
        TorusSpec(2, 1, 1, 8, -0.5)
    for a in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="^lattice spacing must be positive"):
            TorusSpec(2, 1, 1, 8, a)
    assert TorusSpec(2, 1, 1, 8, 0.5).L == 4.0


def test_cutoff_validation():
    with pytest.raises(ValueError, match="unknown cutoff"):
        CutoffFn("lorentzian")
    with pytest.raises(ValueError, match="sampled"):
        CutoffFn("sampled", (1, 2, 3))
    with pytest.raises(ValueError, match="Fourier"):
        CutoffFn("exp").fourier(0.0)


@pytest.mark.parametrize("a_values", [[0.01] * 3, [0.1, 0.1, 0.2, 0.3], [0.3, 0.2, 0.2]])
def test_divergence_scan_refuses_repeated_spacings_before_any_action(monkeypatch, a_values):
    # the fit takes the three smallest spacings, so a repeat among them leaves too few points
    def action(*_):
        raise AssertionError("an action was computed before the spacings were checked")

    monkeypatch.setattr(specact, "spectral_action", action)
    with pytest.raises(ValueError, match="3 smallest lattice spacings must be distinct"):
        divergence_exponent(TorusSpec(2, 1, 1, 16, 1 / 16), a_values, CutoffFn("gaussian"), 10.0)
