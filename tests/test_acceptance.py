"""Acceptance suite: one test per criterion, each printing its pass line.

Criterion 12 asserts the continuum-estimate divergence exponents (d - 1).
The measured lattice scaling at fixed cutoff is d - 2 up to logarithms
(see test_specact.py for the measured behaviour and the README for the
analysis), so that single test is expected to fail; it is kept faithful
rather than loosened.
"""

import inspect

from istlab import verify

SEED = 20240811


def _run(number):
    result = verify.run_criterion(number, seed=SEED)
    print()
    print(result.line())
    assert result.ok, result.line()


def test_criterion_01_sign_tables():
    _run(1)


def test_criterion_02_cl13_fixture():
    _run(2)


def test_criterion_03_solution_spaces():
    _run(3)


def test_criterion_04_tensor_additivity():
    _run(4)


def test_criterion_05_spacetime_tables():
    _run(5)


def test_criterion_06_sm_structure():
    _run(6)


def test_criterion_07_higgs_projection():
    _run(7)


def test_criterion_08_lagrangian_coefficients():
    _run(8)


def test_criterion_09_seesaw_majorana():
    _run(9)


def test_criterion_10_shift_identity():
    _run(10)


def test_criterion_11_heat_kernel_limit():
    _run(11)


def test_criterion_12_divergence_exponent():
    # Faithful to the stated exponents; fails on the measured scaling.
    _run(12)


def test_criterion_13_hypercharges():
    _run(13)


def test_criteria_take_only_run_wide_arguments():
    # run_criterion passes rng and max_dim to every criterion; any other parameter
    # would be a setting no run can change
    allowed = {("rng", False), ("max_dim", False), ("_", True)}
    extra = [(number, p.name) for number, _, fn, _ in verify.CRITERIA
             for p in inspect.signature(fn).parameters.values()
             if (p.name, p.kind is p.VAR_KEYWORD) not in allowed]
    assert not extra
