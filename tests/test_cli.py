import argparse
import csv
import io
import json

import numpy as np
import pytest

from fspair import nevanlinna
from fspair.cli import _ROWS_PER_WRITE, parse_complex, run
from fspair.qseries import guinand_coeffs, r3_sequence, theta_coeffs
from fspair.testfn import verify_pair
from test_measures import malformed_payloads


def test_parse_complex():
    assert parse_complex("0+2i") == 2j
    assert parse_complex("-1.5-0.25i") == -1.5 - 0.25j
    assert parse_complex("3e-1+1e0i") == 0.3 + 1j
    for bad in ("2i", "1 + 2i", "1+2j", "abc"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(bad)


def test_pairs_list(capsys):
    assert run(["pairs", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["poisson", "guinand", "meyer", "file"]


def test_verify_poisson_json(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--pair", "poisson", "--testfn", "bump",
                "--scale", "5.3", "--tol", "1e-8", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["abs_residual"] < 1e-8
    assert payload["pair_name"] == "poisson"
    assert payload["mu_truncation"] == 64.0
    assert payload["quadrature_tol"] == 1e-8


def test_verify_tolerance_violation_exit_1(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--pair", "poisson", "--testfn", "bump",
                "--scale", "5.3", "--tol", "1e-18", "--json", str(out)])
    assert code == 1
    assert out.exists()  # report still written on violation


def test_verify_degraded_exit_1(tmp_path, monkeypatch):
    import fspair.cli as cli

    def degraded(*args, **kwargs):
        report = verify_pair(*args, **kwargs)
        report.degraded = True  # as when a test-function FT misses its tolerance
        return report

    monkeypatch.setattr(cli, "verify_pair", degraded)
    out = tmp_path / "report.json"
    assert run(["verify", "--pair", "poisson", "--testfn", "bump",
                "--scale", "5.3", "--tol", "1e-8", "--json", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["abs_residual"] < 1e-8 and payload["degraded"] is True
    assert payload["lhs_tail_estimate"] >= 0.0


def test_verify_unreachable_tol_degraded_exit_1(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--pair", "poisson", "--testfn", "bump",
                "--scale", "5.3", "--tol", "1e-17", "--json", str(out)]) == 1
    assert json.loads(out.read_text())["degraded"] is True


def test_verify_usage_errors():
    assert run(["verify", "--pair", "nosuch", "--testfn", "bump"]) == 2
    assert run(["verify", "--pair", "poisson", "--testfn", "bump",
                "--frobnicate", "1"]) == 2
    assert run(["verify", "--pair", "file", "--testfn", "bump"]) == 2
    assert run(["verify", "--pair", "file", "--file", "/nonexistent.json",
                "--testfn", "bump"]) == 2
    assert run(["nosuchcommand"]) == 2


def test_coeffs_csv(tmp_path):
    out = tmp_path / "alpha.csv"
    assert run(["coeffs", "--family", "guinand", "--c", "0.111111",
                "--n", "8", "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,alpha_n"
    n1 = float(lines[2].split(",")[1])
    assert abs(n1 - (-(24.0 * 0.111111 - 2.0))) < 1e-12


def test_coeffs_requires_c():
    assert run(["coeffs", "--family", "guinand", "--n", "4"]) == 2


def test_coeffs_r3(capsys):
    assert run(["coeffs", "--family", "r3", "--n", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "0,1.0"
    assert lines[2] == "1,6.0"
    assert lines[8] == "7,0.0"


def test_coeffs_rows_match_csv_writer(tmp_path, capsys):
    cases = [(["guinand", "--c", repr(1.0 / 9.0)], 64, guinand_coeffs(1.0 / 9.0, 64).coeffs),
             (["theta"], 100, theta_coeffs(100).coeffs)]
    for n in (1000, _ROWS_PER_WRITE + 1):  # the second crosses a block boundary
        cases.append((["r3"], n, r3_sequence(n).values.astype(float)))
    for family, n, values in cases:
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["n", "alpha_n"])
        for i, v in enumerate(values):
            writer.writerow([i, repr(float(v))])
        path = tmp_path / "out.csv"
        assert run(["coeffs", "--family", *family, "--n", str(n), "--csv", str(path)]) == 0
        assert path.read_bytes() == ref.getvalue().encode()
        capsys.readouterr()
        assert run(["coeffs", "--family", *family, "--n", str(n)]) == 0
        assert capsys.readouterr().out == ref.getvalue().replace("\r\n", "\n")


def test_nevindex_eigensolver_errors_exit_codes(monkeypatch):
    argv = ["nevindex", "--pair", "poisson", "--points", "3"]
    nan = nevanlinna.NevMatrix((1j, 2j, 3j), np.full((3, 3), np.nan + 0j))
    monkeypatch.setattr(nevanlinna, "nev_matrix", lambda model, pts: nan)
    assert run(argv) == 2
    rng = np.random.default_rng(8)
    B = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    hard = nevanlinna.NevMatrix(tuple(1j for _ in range(20)), B + B.conj().T)
    monkeypatch.setattr(nevanlinna, "nev_matrix", lambda model, pts: hard)

    def not_converged(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # LinAlgError is a ValueError: neg_index must re-raise it as RuntimeError
    monkeypatch.setattr(np.linalg, "eigvalsh", not_converged)
    assert run(argv) == 1


def test_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run(["coeffs", "--family", "theta", "--n", "32", "--csv", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_json_determinism(tmp_path):
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run(["verify", "--pair", "poisson", "--testfn", "plateau",
             "--scale", "2.7", "--json", str(out)])
        p = json.loads(out.read_text())
        p.pop("runtime_ms")  # the one timing field
        payloads.append(json.dumps(p, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_bridge_json(tmp_path):
    out = tmp_path / "bridge.json"
    code = run(["bridge", "--pair", "poisson", "--trunc", "600", "--k", "0",
                "--z", "0+2i", "--w", "0+2i", "--tmax", "256", "--sweep",
                "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["k"] == 0
    assert payload["z"] == {"re": 0.0, "im": 2.0}
    assert len(payload["sweep"]) >= 3
    residuals = [entry["abs_residual"] for entry in payload["sweep"]]
    assert residuals[-1] < residuals[0] + 1e-3


def test_bridge_negative_complex_values(tmp_path):
    out = tmp_path / "bridge.json"
    assert run(["bridge", "--pair", "poisson", "--trunc", "64", "--k", "1",
                "--z", "-0.3+1.5i", "--w", "-0.2+2i", "--tmax", "32",
                "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["z"] == {"re": -0.3, "im": 1.5}
    assert payload["w"] == {"re": -0.2, "im": 2.0}


@pytest.mark.parametrize("case", sorted(malformed_payloads()))
def test_malformed_pair_file_exit_2(tmp_path, capsys, case):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(malformed_payloads()[case]))
    assert run(["verify", "--pair", "file", "--file", str(pair_file),
                "--testfn", "bump"]) == 2
    assert "error:" in capsys.readouterr().err


def test_efcoef(tmp_path):
    out = tmp_path / "ef.json"
    assert run(["efcoef", "--pair", "poisson", "--lambda", "1", "--y", "1",
                "--T", "256", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["value_re"] - 1.0) < 1e-5
    assert abs(payload["value_im"]) < 1e-5


def test_recover(tmp_path):
    out = tmp_path / "rec.json"
    assert run(["recover", "--pair", "poisson", "--k", "0", "--a", "0.5",
                "--b", "1.5", "--s", "0.001", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["value_re"] - 0.25) < 1e-3


def test_unreached_tolerance_exit_1(monkeypatch, capsys):
    import fspair.nevanlinna as nev

    def unreachable(*args, **kwargs):
        raise RuntimeError("recover_measure: quadrature tolerance not reached")

    monkeypatch.setattr(nev, "recover_measure", unreachable)
    assert run(["recover", "--pair", "poisson", "--k", "0", "--a", "0.5",
                "--b", "1.5", "--s", "0.001"]) == 1
    assert "tolerance not reached" in capsys.readouterr().err


def test_recover_bad_interval():
    assert run(["recover", "--pair", "poisson", "--k", "0", "--a", "1.5",
                "--b", "0.5", "--s", "0.001"]) == 2


@pytest.mark.parametrize("argv", [
    "efcoef --pair poisson --lambda 1 --y 1 --T nan",
    "efcoef --pair poisson --lambda nan --y 1 --T 64",
    "efcoef --pair poisson --lambda 1 --y inf --T 64",
    "bridge --pair poisson --k 1 --z 0.5+1i --w 0.2+1i --tmax nan",
    "bridge --pair poisson --k 1 --z 1e999+1i --w 0.2+1i --tmax 64",
    "verify --pair poisson --testfn bump --scale inf",
    "verify --pair poisson --testfn bump --tol 0",
    "verify --pair poisson --testfn bump --tol -1",
    "recover --pair poisson --k 0 --a 0.5 --b inf --s 0.01",
])
def test_bad_numeric_input_exit_2(argv, capsys):
    assert run(argv.split()) == 2
    assert "error" in capsys.readouterr().err


def test_nevindex(tmp_path):
    out = tmp_path / "nev.json"
    assert run(["nevindex", "--pair", "poisson", "--points", "6",
                "--seed", "1", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["neg_index"] == 0
    assert payload["seed"] == 1


def test_verify_custom_file(tmp_path):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps({
        "name": "two-atoms", "antipodal": True, "strip_constant": 0.1,
        "mu": {"degree_bound": 2,
               "atoms": [{"t": -1.0, "re": 1.0, "im": 0.0},
                         {"t": 1.0, "re": 1.0, "im": 0.0}],
               "density": None},
        "a": {"growth_constant": 0.1, "support": []},
    }))
    out = tmp_path / "rep.json"
    code = run(["verify", "--pair", "file", "--file", str(pair_file),
                "--testfn", "bump", "--scale", "0.25", "--shift", "3.0",
                "--json", str(out)])
    # bump supported on [2.75, 3.25]: rhs empty, lhs = FT mass at the atoms
    assert code in (0, 1)
    payload = json.loads(out.read_text())
    assert payload["pair_name"] == "two-atoms"
