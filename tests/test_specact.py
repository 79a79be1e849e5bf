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
    eigenvalue_grid,
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


def test_spectral_action_paths_agree():
    f = CutoffFn("gaussian")
    for spec, lam in (
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
    ):
        grid = spectral_action(spec, f, lam, method="grid")
        fourier = spectral_action(spec, f, lam, method="fourier")
        assert abs(grid - fourier) <= 1e-6 * abs(grid)


U_SAMPLES = np.linspace(-50.0, 50.0, 2001)


@pytest.mark.parametrize("f", [
    CutoffFn("gaussian"),
    CutoffFn("exp"),
    CutoffFn("sampled", (U_SAMPLES, np.exp(-(U_SAMPLES ** 2)))),
], ids=["gaussian", "exp", "sampled"])
def test_streamed_grid_matches_dense_sum(f):
    for spec in (TorusSpec(3, 1, 2, 40, 1 / 40), TorusSpec(2, 0, 2, 200, 0.05),
                 TorusSpec(1, 0, 1, 64, 0.25)):
        eig = eigenvalue_grid(spec)
        # grid order: the first circle varies slowest
        lam = circle_spectrum(spec.N, spec.a)
        dense = np.zeros(1)
        for sign in [1.0] * spec.t + [-1.0] * spec.s:
            dense = np.add.outer(dense, sign * lam).ravel()
        assert np.array_equal(eig, dense)
        want = float(f(-eig / 20.0 ** 2).sum())
        assert abs(spectral_action(spec, f, 20.0, method="grid") - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("spec, method", [
    (TorusSpec(3, 1, 2, 128, 1 / 128), "fourier"),  # 281,001 nodes x 128 modes
    (TorusSpec(4, 1, 3, 56, 1 / 56), "grid"),       # 9.8e6 eigenvalues
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


def test_eigenvalue_grid_limit():
    with pytest.raises(ValueError, match="too large"):
        eigenvalue_grid(TorusSpec(8, 4, 4, 12, 0.1))


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
