import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import nudged_south_triple, random_yukawas
from istlab import cli, clifford, serialize, verify
from istlab.clifford import Signature, build
from istlab.cli import main
from istlab.ist import AxiomReport, check_axioms, from_clifford_module
from istlab.sm import ZParams


def test_matrix_roundtrip(rng):
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert_allclose(serialize.decode_matrix(serialize.encode_matrix(M)), M)


def test_decode_rejects_flat_lists():
    with pytest.raises(ValueError, match="re, im"):
        serialize.decode_matrix([[1.0, 2.0], [3.0, 4.0]])


def test_triple_roundtrip(module_of, tmp_path):
    t = from_clifford_module(module_of(1, 3), "south")
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(serialize.triple_to_dict(t)))
    back = serialize.load_triple(str(path))
    assert check_axioms(back).ok
    assert_allclose(back.dirac, t.dirac)
    assert_allclose(back.form.gram, t.form.gram)


def test_sm_input_roundtrip(rng, tmp_path):
    y = random_yukawas(rng, 2)
    z = ZParams(1.0, 0.5, 0.25, 2.0, 1.5, 0.75)
    path = tmp_path / "sm.json"
    serialize.dump_sm_input(str(path), y, -1, -1, z)
    y2, s, eps_f, z2 = serialize.load_sm_input(str(path))
    assert (s, eps_f) == (-1, -1)
    assert_allclose(y2.ynu, y.ynu)
    assert_allclose(y2.yr, y.yr)
    assert z2 == z


def test_sm_input_validates_n(rng, tmp_path):
    y = random_yukawas(rng, 2)
    path = tmp_path / "sm.json"
    serialize.dump_sm_input(str(path), y, -1, -1)
    data = json.loads(path.read_text())
    data["N"] = 5
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="does not match"):
        serialize.load_sm_input(str(path))


def test_cli_signs_table(capsys):
    assert main(["signs", "--table", "a", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "row,n=0,n=2,n=4,n=6"
    assert out[1] == "a(n),1,-1,-1,1"


def test_cli_cardinal_table(capsys):
    assert main(["signs", "--table", "cardinal", "--q", "3", "--p", "1",
                 "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[1].startswith("east,4,2,")


def test_cli_ko_metric_table(capsys):
    # (eps, eps'') at KO dimension n = 0, 2, 4, 6: J^2 and the sign of J chi = eps'' chi J
    assert main(["signs", "--table", "ko-metric", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows == ["n,eps,eps2", "0,1,1", "2,-1,-1", "4,-1,1", "6,1,-1"]


def test_cli_clifford_summary_and_dump(capsys):
    assert main(["clifford", "--q", "1", "--p", "3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "east,1,-1,-1,1,6,4" in out
    assert main(["clifford", "--q", "1", "--p", "3", "--dump"]) == 0
    data = json.loads(capsys.readouterr().out)
    gammas = [serialize.decode_matrix(g) for g in data["gammas"]]
    direct = build(Signature(1, 3))
    for got, want in zip(gammas, direct.gammas):
        assert_allclose(got, want)


def test_cli_tensor(capsys):
    assert main(["tensor", "--left", "1,1", "--right", "0,2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "east,1,-1,-1,1,6,4" in out


def test_cli_ist_check(module_of, tmp_path, capsys):
    t = from_clifford_module(module_of(1, 3), "south")
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(serialize.triple_to_dict(t)))
    assert main(["ist-check", "--model", str(path)]) == 0
    err = capsys.readouterr().err
    assert "n=6 m=4" in err


def test_cli_ist_check_reports_dims_of_a_triple_within_axiom_tol(tmp_path, capsys):
    path = tmp_path / "nudged.json"
    path.write_text(json.dumps(serialize.triple_to_dict(nudged_south_triple())))
    assert main(["ist-check", "--model", str(path)]) == 0
    assert "dims: n=6 m=4" in capsys.readouterr().err


def test_cli_ist_check_fails_broken_triple(module_of, tmp_path, capsys):
    t = from_clifford_module(module_of(1, 3), "south", dirac=module_of(1, 3).chi)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(serialize.triple_to_dict(t)))
    assert main(["ist-check", "--model", str(path)]) == 2


def test_cli_sm_coeffs_and_couplings(rng, tmp_path, capsys):
    y = random_yukawas(rng, 3)
    path = tmp_path / "sm_n3.json"
    serialize.dump_sm_input(str(path), y, -1, -1, ZParams(1, 1, 1, 1, 1, 1))
    assert main(["sm", "--model", str(path), "--coeffs", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    a, b, c, d, e = (float(x) for x in rows[1].split(","))
    assert (a, b, c) == (80.0, 24.0, 24.0)
    assert d > 0 and e > 0
    assert main(["sm", "--model", str(path), "--couplings", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    gy = float(rows[1].split(",")[0])
    assert abs(gy - 1 / np.sqrt(320)) < 1e-12


def test_cli_sm_higgs_projection(rng, tmp_path, capsys):
    from istlab.sm import higgs_projection_closed, quaternion

    y = random_yukawas(rng, 1)
    path = tmp_path / "sm_n1.json"
    serialize.dump_sm_input(str(path), y, -1, -1)
    assert main(["sm", "--model", str(path), "--higgs-projection", "0.5", "0.25"]) == 0
    got = serialize.decode_matrix(json.loads(capsys.readouterr().out))
    want = higgs_projection_closed(quaternion(0.5, 0.25), y)
    assert_allclose(got, want, atol=1e-12)


def test_cli_rejects_malformed_model(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"N": 1}')
    assert main(["sm", "--model", str(path), "--coeffs"]) == 1
    assert "missing field" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda d: [], lambda d: "x", lambda d: {**d, "N": None}, lambda d: {**d, "yukawas": []},
    lambda d: {**d, "yukawas": {**d["yukawas"], "Ye": {}}}, lambda d: {**d, "z": []},
], ids=["list", "string", "null-N", "list-yukawas", "object-matrix", "list-z"])
def test_cli_sm_rejects_a_wrongly_typed_model(edit, rng, tmp_path, capsys):
    path = tmp_path / "sm.json"
    serialize.dump_sm_input(str(path), random_yukawas(rng, 1), -1, -1)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main(["sm", "--model", str(path), "--coeffs"]) == 1
    assert capsys.readouterr().err.startswith("error: model file ")


@pytest.mark.parametrize("command", ["--coeffs", "--couplings"])
@pytest.mark.parametrize("token", ["Infinity", "NaN"])
def test_cli_sm_refuses_non_finite_z(token, command, rng, tmp_path, capsys):
    path = tmp_path / "sm.json"
    serialize.dump_sm_input(str(path), random_yukawas(rng, 1), -1, -1, ZParams(1, 1, 1, 1, 1, 1))
    path.write_text(path.read_text().replace('"delta": 1', f'"delta": {token}'))
    assert main(["sm", "--model", str(path), command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: model file has bad z parameters")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["--coeffs", "--couplings"])
@pytest.mark.parametrize("token", ["true", '"1.5"', '"abc"', "null", "[1]", "1" + "0" * 400],
                         ids=["true", "numeric-string", "string", "null", "list", "huge-integer"])
def test_cli_sm_refuses_z_weights_that_are_not_numbers(token, command, rng, tmp_path, capsys):
    # JSON true and "1.5" used to read as 1.0 and 1.5; a 400-digit integer has no float
    path = tmp_path / "sm.json"
    serialize.dump_sm_input(str(path), random_yukawas(rng, 1), -1, -1, ZParams(1, 1, 1, 1, 1, 1))
    path.write_text(path.read_text().replace('"delta": 1', f'"delta": {token}'))
    assert main(["sm", "--model", str(path), command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: model file has bad z parameters: delta = ")
    assert captured.err.rstrip().endswith("is not a finite number")
    assert captured.out == ""


def _identity(n):
    return serialize.encode_matrix(np.eye(n))


@pytest.mark.parametrize("edit, field, shape", [
    (lambda d: {**d, "algebra_basis": [_identity(8)], "involution": [_identity(8)]},
     "algebra_basis", (8, 8)),
    (lambda d: {**d, "involution": [_identity(8)]}, "involution", (8, 8)),
    (lambda d: {**d, "algebra_basis": [_identity(4), _identity(2)],
                "involution": [_identity(4), _identity(4)]}, "algebra_basis", (2, 2)),
    (lambda d: {**d, "chi": _identity(2)}, "chi", (2, 2)),
    (lambda d: {**d, "J": _identity(8)}, "J", (8, 8)),
    (lambda d: {**d, "dirac": serialize.encode_matrix(np.zeros((4, 3)))}, "dirac", (4, 3)),
], ids=["basis-8x8", "involution-8x8", "basis-ragged", "chi-2x2", "J-8x8", "dirac-4x3"])
def test_cli_ist_check_refuses_operators_of_another_shape(edit, field, shape, module_of,
                                                         tmp_path, capsys):
    # a 4x4 Cl(1,3) triple with one operator resized: exit 1 naming the field, no traceback
    data = serialize.triple_to_dict(from_clifford_module(module_of(1, 3), "south"))
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(edit(data)))
    assert main(["ist-check", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {field} has shape {shape}, not (4, 4) as the gram\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["tensor", "--left", "1,1,1", "--right", "0,2"],
    ["verify-all", "--max-dim", "abc"],
    ["clifford", "--q", "1"],
    [],
], ids=["bad-pair", "bad-int", "missing-option", "no-command"])
def test_cli_usage_errors_exit_1(argv, capsys):
    # argparse would exit 2, the code reserved for failed numerical checks
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: istlab") and captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["clifford", "--help"]])
def test_cli_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: istlab")


@pytest.mark.parametrize("edit", [
    lambda d: [], lambda d: "x", lambda d: {**d, "sigma": None},
    lambda d: {**d, "algebra_basis": 5}, lambda d: {**d, "gram": {}},
], ids=["list", "string", "null-sigma", "number-basis", "object-gram"])
def test_cli_ist_check_rejects_a_wrongly_typed_triple(edit, module_of, tmp_path, capsys):
    data = serialize.triple_to_dict(from_clifford_module(module_of(1, 3), "south"))
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(edit(data)))
    assert main(["ist-check", "--model", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: triple file ")


def test_cli_rejects_a_non_integer_seed(capsys, monkeypatch):
    monkeypatch.setenv("NCG_SEED", "abc")
    assert main(["signs", "--table", "a"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_missing_file(capsys):
    assert main(["sm", "--model", "/nonexistent.json", "--coeffs"]) == 1


@pytest.mark.parametrize("max_dim", ["1", "14"])
def test_cli_verify_all_refuses_a_max_dim_outside_its_range(capsys, max_dim):
    # 1 would pass criteria 1, 3 and 4 over nothing; 14 is past the Clifford cap
    assert main(["verify-all", "--max-dim", max_dim]) == 1
    assert capsys.readouterr().err.startswith("error: max_dim must be in 4...12")


def test_cli_verify_all_reports_every_listed_criterion(monkeypatch, capsys):
    five = next(c for c in verify.CRITERIA if c[0] == 5)  # space-time tables, milliseconds
    fails = (99, "always fails", lambda **_: (False, "by design"), 10.0)
    monkeypatch.setattr(verify, "CRITERIA", [five])
    assert main(["verify-all", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith("5,space-time tables,pass,")
    assert captured.err.startswith("[PASS] criterion  5: space-time tables (")
    monkeypatch.setattr(verify, "CRITERIA", [five, fails])
    assert main(["verify-all", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert [r.split(",")[2] for r in captured.out.splitlines()[1:]] == ["pass", "FAIL"]
    assert captured.err.splitlines()[1].endswith(") by design")


def test_cli_spectral_action(capsys):
    assert main([
        "spectral-action", "--d", "2", "--t", "1", "--s", "1",
        "--N", "16", "--L", "1.0", "--lambda", "10", "--format", "csv",
    ]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "a,N,S,logS"
    a, N, S, logS = rows[1].split(",")
    assert int(N) == 16 and float(S) > 0


@pytest.mark.parametrize("torus", [
    ["--d", "2", "--t", "1", "--s", "1", "--N", "4096"],  # 8e11 node x mode entries, 5.85 TiB
    ["--d", "1", "--t", "1", "--s", "0", "--N", "1000000000"],  # refused before its spectrum
])
def test_cli_spectral_action_refuses_oversized_fourier_quadrature(capsys, torus):
    assert main(["spectral-action", *torus, "--L", "1", "--lambda", "20"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("N", ["4096", "64"])  # Fourier path, grid path
def test_cli_spectral_action_refuses_underflowing_cutoff(capsys, N):
    # Lambda^2 = 1e-400 underflows to 0
    torus = ["--d", "2", "--t", "1", "--s", "1", "--N", N, "--L", "1"]
    assert main(["spectral-action", *torus, "--lambda", "1e-200"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_spectral_action_overflowing_cutoff_is_silent(capsys):
    # Lambda^2 = 1e-300 is normal, but u^2 overflows; exp(-inf) = 0 leaves the null modes
    torus = ["--d", "2", "--t", "1", "--s", "1", "--N", "64", "--L", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectral-action", *torus, "--lambda", "1e-150", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert float(captured.out.splitlines()[1].split(",")[2]) == 78.0


@pytest.mark.parametrize("scan", [[], ["--scan-a", "0.0078125:0.03125:3"]])
def test_cli_spectral_action_refuses_an_infinite_action(capsys, scan):
    # exp(-u) overflows on the Lorentzian modes at Lambda = 1: S = inf is an error, not a result
    torus = ["--d", "2", "--t", "1", "--s", "1", "--N", "64", "--L", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectral-action", *torus, "--lambda", "1", "--cutoff", "exp", *scan])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: spectral action inf is not finite")


@pytest.mark.parametrize("scan", [[], ["--scan-a", "0.03125:0.125:3"]])
@pytest.mark.parametrize("N", ["0", "1", "-4"])
def test_cli_spectral_action_refuses_small_n(capsys, N, scan):
    torus = ["--d", "2", "--t", "1", "--s", "1", "--N", N, "--L", "1"]
    assert main(["spectral-action", *torus, "--lambda", "20", *scan]) == 1
    assert capsys.readouterr().err == "error: N must be at least 2\n"


@pytest.mark.parametrize("L", ["inf", "-inf", "nan", "0"])
def test_cli_spectral_action_refuses_non_finite_spacing(capsys, L):
    torus = ["--d", "2", "--t", "1", "--s", "1", "--N", "8", f"--L={L}"]
    assert main(["spectral-action", *torus, "--lambda", "20"]) == 1
    assert capsys.readouterr().err.startswith("error: lattice spacing must be positive")


def test_cli_tensor_refuses_products_over_the_cap(capsys, monkeypatch):
    # without the cap this would build 24 complex 4096 x 4096 generators; building each
    # Cl(6, 6) factor takes Kronecker products of up to 64 columns, the cap's spinor size.
    # Every module product goes through kspace.kron, bound as clifford.kron, so that is where
    # the guard sits
    real_kron = clifford.kron

    def kron(a, b):
        if a.shape[-1] * b.shape[-1] > 64:
            raise AssertionError("Kronecker product over the cap built before the cap check")
        return real_kron(a, b)

    monkeypatch.setattr(clifford, "kron", kron)
    assert main(["tensor", "--left", "6,6", "--right", "6,6"]) == 1
    assert capsys.readouterr().err.startswith("error: dimension 24 exceeds")


@pytest.mark.parametrize("count", ["2", "1001", "1000000000"])
def test_cli_spectral_action_refuses_a_scan_count_outside_its_range(capsys, monkeypatch, count):
    # 10^9 spacings would ask geomspace for 7.45 GiB
    def geomspace(*_):
        raise AssertionError("spacings built before the count check")

    monkeypatch.setattr(np, "geomspace", geomspace)
    torus = ["--d", "2", "--t", "1", "--s", "1", "--N", "16", "--L", "1"]
    scan = ["--scan-a", f"0.01:0.02:{count}"]
    assert main(["spectral-action", *torus, "--lambda", "10", *scan]) == 1
    assert capsys.readouterr().err.startswith("error: --scan-a needs 3 to 1000 spacings")


def test_cli_spectral_action_scan(capsys):
    assert main([
        "spectral-action", "--d", "2", "--t", "1", "--s", "1",
        "--N", "16", "--L", "1.0", "--lambda", "10",
        "--scan-a", "0.03125:0.125:3", "--format", "csv",
    ]) == 0
    captured = capsys.readouterr()
    assert "fitted slope" in captured.err
    assert len(captured.out.strip().splitlines()) == 4


def test_cli_determinism(capsys):
    main(["clifford", "--q", "2", "--p", "2", "--format", "json"])
    first = capsys.readouterr().out
    main(["clifford", "--q", "2", "--p", "2", "--format", "json"])
    assert capsys.readouterr().out == first


FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


@pytest.mark.parametrize(
    "args, golden",
    [
        (["signs", "--table", "a", "--format", "csv"], "sign_table.csv"),
        (["clifford", "--q", "1", "--p", "3", "--format", "csv"], "cl13_signs.csv"),
        (["signs", "--table", "spacetime", "--format", "csv"], "spacetime_table.csv"),
    ],
)
def test_cli_golden_tables(capsys, args, golden):
    assert main(args) == 0
    with open(f"{FIXTURES}/{golden}") as fh:
        assert capsys.readouterr().out == fh.read()


def test_cli_spectral_action_refuses_a_scan_without_distinct_spacings(capsys):
    torus = ["--d", "2", "--t", "1", "--s", "1", "--N", "16", "--L", "1"]
    assert main(["spectral-action", *torus, "--lambda", "10", "--scan-a", "0.01:0.01:3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the 3 smallest lattice spacings must be distinct")
    assert captured.out == ""


def test_cli_ist_check_accepts_the_empty_algebra(module_of, tmp_path, capsys):
    data = serialize.triple_to_dict(from_clifford_module(module_of(1, 3), "south"))
    data["algebra_basis"], data["involution"] = [], []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    assert main(["ist-check", "--model", str(path), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert "algebra_closed,0.0" in captured.out.splitlines() and "n=6 m=4" in captured.err


@pytest.mark.parametrize("field, value", [
    ("s", -1.5), ("epsF", -1.2), ("N", 1.9), ("N", "1"), ("N", True), ("s", -1.0),
], ids=["s-float", "epsF-float", "N-float", "N-string", "N-bool", "s-integral-float"])
def test_cli_sm_refuses_integer_fields_that_are_not_json_integers(field, value, rng, tmp_path,
                                                                 capsys):
    # int() used to truncate 1.9 to 1 and read "1" and true as 1
    path = tmp_path / "sm.json"
    serialize.dump_sm_input(str(path), random_yukawas(rng, 1), -1, -1, ZParams(*[1.0] * 6))
    path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    assert main(["sm", "--model", str(path), "--coeffs"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: model file has a non-integer {field}: {value!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("sigma", [1.9, True, "1", 0.7])
def test_cli_ist_check_refuses_a_sigma_that_is_not_a_json_integer(sigma, module_of, tmp_path,
                                                                 capsys):
    # 0.7 used to be read as 0 and fail the chi_adjoint axiom with exit 2
    data = serialize.triple_to_dict(from_clifford_module(module_of(1, 3), "south"))
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({**data, "sigma": sigma}))
    assert main(["ist-check", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: triple file has a non-integer sigma: {sigma!r}\n"
    assert captured.out == ""


def test_cli_sm_higgs_projection_takes_parenthesized_negative_entries(rng, tmp_path, capsys):
    from istlab.sm import higgs_projection_closed, quaternion

    y = random_yukawas(rng, 1)
    path = tmp_path / "sm_n1.json"
    serialize.dump_sm_input(str(path), y, -1, -1)
    argv = ["sm", "--model", str(path), "--higgs-projection", "(0.3+0.1j)", "(-0.2+0.5j)"]
    assert main(argv) == 0
    got = serialize.decode_matrix(json.loads(capsys.readouterr().out))
    want = higgs_projection_closed(quaternion(0.3 + 0.1j, -0.2 + 0.5j), y)
    assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("entries", [["0.3+0.1j", "-0.2+0.5j"], ["0.3", "-0.5j"]])
def test_cli_sm_higgs_projection_bare_negative_entry_is_a_usage_error(entries, rng, tmp_path,
                                                                     capsys):
    # argparse reads a bare entry that starts with - as an option
    path = tmp_path / "sm_n1.json"
    serialize.dump_sm_input(str(path), random_yukawas(rng, 1), -1, -1)
    assert main(["sm", "--model", str(path), "--higgs-projection", *entries]) == 1
    assert "expected 2 arguments" in capsys.readouterr().err


def test_cli_sm_coeffs_refuses_a_model_without_z(rng, tmp_path, capsys):
    path = tmp_path / "sm_n1.json"
    serialize.dump_sm_input(str(path), random_yukawas(rng, 1), -1, -1)
    assert main(["sm", "--model", str(path), "--coeffs"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "model file has no z block\n" and captured.out == ""


def test_cli_spectral_action_refuses_a_scan_without_a_count(capsys):
    torus = ["--d", "2", "--t", "1", "--s", "1", "--N", "16", "--L", "1"]
    assert main(["spectral-action", *torus, "--lambda", "10", "--scan-a", "1:2"]) == 1
    assert "expected lo:hi:n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["clifford", "--q", "1", "--p", "3"], "Clifford"),
    (["tensor", "--left", "1,1", "--right", "0,2"], "tensor"),
], ids=["clifford", "tensor"])
def test_cli_exits_2_on_a_relation_failure(argv, what, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_relations", lambda module: 0.5)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{what} relations violated: 0.5\n" and captured.out == ""


@pytest.mark.parametrize("target, stub, message", [
    ("check_axioms", lambda t: AxiomReport({"J^2": 0.5}), "model fails axioms: {'J^2': 0.5}"),
    ("first_order", lambda t: 0.5, "order conditions violated: 0.0, 0.5"),
], ids=["axioms", "order"])
def test_cli_sm_exits_2_on_a_failed_check(target, stub, message, rng, tmp_path, capsys,
                                          monkeypatch):
    path = tmp_path / "sm.json"
    serialize.dump_sm_input(str(path), random_yukawas(rng, 1), -1, -1, ZParams(1, 1, 1, 1, 1, 1))
    monkeypatch.setattr(cli, "order_zero", lambda t: 0.0)
    monkeypatch.setattr(cli, target, stub)
    assert main(["sm", "--model", str(path), "--coeffs"]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


@pytest.mark.parametrize("edit, message", [
    (lambda d: {**d, "yukawas": {**d["yukawas"], "Ye": [[[1, 0], [2, 0]]]}},
     "ye must be square"),
    (lambda d: {**d, "yukawas": {**d["yukawas"], "Ye": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}},
     "all Yukawa matrices must share one size"),
    (lambda d: {**d, "s": 2}, "s and eps_F must be +1 or -1"),
    (lambda d: {**d, "epsF": 2}, "s and eps_F must be +1 or -1"),
], ids=["non-square", "unequal-sizes", "s-2", "epsF-2"])
def test_cli_sm_refuses_a_model_it_cannot_build(edit, message, rng, tmp_path, capsys):
    path = tmp_path / "sm.json"
    serialize.dump_sm_input(str(path), random_yukawas(rng, 1), -1, -1, ZParams(1, 1, 1, 1, 1, 1))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main(["sm", "--model", str(path), "--coeffs"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_cli_ist_check_refuses_a_triple_without_a_gram(module_of, tmp_path, capsys):
    data = serialize.triple_to_dict(from_clifford_module(module_of(1, 3), "south"))
    del data["gram"]
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(data))
    assert main(["ist-check", "--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: triple file is missing field 'gram'\n" and captured.out == ""
