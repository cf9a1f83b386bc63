"""CLI surface: formats, exit codes, determinism, schema conformance."""

import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import polyspec
from polyspec import Polydisc, ZeroCache, dirichlet_factor
from polyspec.gridfile import write_grid
from polyspec.spectral_ops import sample_on_grid

SCHEMA_PATH = Path(polyspec.__file__).parent / "schema" / "spectrum_output.schema.json"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "polyspec", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_zeros_json():
    res = run_cli("zeros", "--order", "0", "--count", "1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["zeros"][0] == pytest.approx(2.404825557695773, abs=1e-12)


def test_zeros_negative_order_parity():
    a = run_cli("zeros", "--order", "-2", "--count", "1")
    b = run_cli("zeros", "--order", "2", "--count", "1")
    assert a.returncode == b.returncode == 0
    assert json.loads(a.stdout)["zeros"] == json.loads(b.stdout)["zeros"]


def test_zeros_csv_ascending():
    res = run_cli("zeros", "--order", "0", "--count", "3", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "order,index,value"
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(values) == 3 and values == sorted(values)


def test_spectrum_single_point():
    res = run_cli("spectrum", "--radii", "1,1", "--q", "1", "--max", "1.5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["points"]) == 1
    point = doc["points"][0]
    assert point["infinite"] is True
    assert point["finite_multiplicity"] == 0
    assert point["value"] == pytest.approx(1.445796490736696, abs=1e-12)


def test_spectrum_below_bottom_is_empty_success():
    res = run_cli("spectrum", "--radii", "1,2", "--q", "1", "--max", "0.3")
    assert res.returncode == 0
    assert json.loads(res.stdout)["points"] == []


def test_spectrum_validates_against_schema():
    schema = json.loads(SCHEMA_PATH.read_text())
    res = run_cli("spectrum", "--radii", "1,1.5", "--q", "1", "--max", "6")
    assert res.returncode == 0
    jsonschema.validate(json.loads(res.stdout), schema)


def test_spectrum_csv_columns():
    res = run_cli("spectrum", "--radii", "1,1", "--q", "1", "--max", "3", "--format", "csv")
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "value,finite_multiplicity,infinite,family"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[1] == "0" and first[2] == "true" and first[3] == "pure-holomorphic"


def test_spectrum_byte_determinism():
    args = ("spectrum", "--radii", "1,1.3", "--q", "1", "--max", "9", "--witnesses", "4")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_serialized_floats_roundtrip():
    res = run_cli("spectrum", "--radii", "1,1", "--q", "1", "--max", "3")
    doc = json.loads(res.stdout)
    cache = ZeroCache()
    exact = (cache.zero(0, 1) ** 2) / 4.0
    assert doc["points"][0]["value"] == exact  # 17 significant digits are lossless


def test_witness_cap_respected_in_record():
    res = run_cli(
        "spectrum", "--radii", "1,1", "--q", "1", "--max", "5.2", "--witnesses", "2"
    )
    doc = json.loads(res.stdout)
    assert doc["request"]["witnesses"] == 2
    assert all(len(p["witnesses"]) <= 2 for p in doc["points"])
    # the finite count is not truncated by the witness cap
    assert any(p["finite_multiplicity"] == 8 for p in doc["points"])


def test_negative_witness_cap_exits_3():
    res = run_cli(
        "spectrum", "--radii", "1,1", "--q", "1", "--max", "5.2", "--witnesses", "-1"
    )
    assert res.returncode == 3
    assert res.stdout == ""


def test_import_leaves_oracle_dependencies_unloaded():
    # scipy.linalg and mpmath serve only the FD and series oracles
    res = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, polyspec; "
            "print(sorted(m for m in ('scipy.linalg', 'mpmath') if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_q_out_of_range_exits_3():
    res = run_cli("spectrum", "--radii", "1,1", "--q", "2", "--max", "5")
    assert res.returncode == 3
    assert "q" in res.stderr and "n - 1" in res.stderr


def test_unsupported_window_exits_3():
    res = run_cli("zeros", "--order", "300", "--count", "1")
    assert res.returncode == 3


def test_bad_flags_exit_2():
    assert run_cli("spectrum", "--radii", "1,1", "--q", "1").returncode == 2  # missing --max
    assert run_cli("zeros", "--order", "x", "--count", "1").returncode == 2
    assert run_cli("spectrum", "--radii", "oops", "--q", "1", "--max", "1").returncode == 2
    assert run_cli("nonsense").returncode == 2


def test_bottom_command():
    res = run_cli("bottom", "--radii", "1,2", "--q", "1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["value"] == pytest.approx(0.361449122684174, abs=1e-12)
    assert doc["J"] == [2]


def test_verify_zeros_suite():
    res = run_cli("verify", "--suite", "zeros")
    assert res.returncode == 0, res.stdout + res.stderr
    doc = json.loads(res.stdout)
    assert doc["passed"] is True
    assert all(c["passed"] for s in doc["suites"] for c in s["checks"])


def test_verify_table_format():
    res = run_cli("verify", "--suite", "modes", "--format", "table")
    assert res.returncode == 0
    assert "[PASS]" in res.stdout and "[FAIL]" not in res.stdout


def test_oracle_fd_command():
    res = run_cli(
        "oracle", "fd", "--order", "0", "--bc", "dbar-neumann", "--grid", "2000", "--count", "2"
    )
    assert res.returncode == 0
    eigs = json.loads(res.stdout)["eigenvalues"]
    assert abs(eigs[0]) < 1e-6
    assert eigs[1] == pytest.approx(14.681970642123893, rel=1e-4)


def test_inverse_command(tmp_path):
    cache = ZeroCache()
    d = dirichlet_factor(0, 1, 1.0, cache)
    lam = math.sqrt(d.lambda_k)
    weight = 1.0 - 0.5j

    def f(z1, z2):
        r1 = np.abs(z1)
        radial = np.vectorize(lambda rr: polyspec.bessel_j(0, rr))(lam * r1)
        return weight * radial * np.ones(np.broadcast(z1, z2).shape)

    F = sample_on_grid(f, Polydisc((1.0, 1.0)), 64, 32)
    grid_path = tmp_path / "f.pspc"
    write_grid(str(grid_path), 2, 1, [(64, 32), (64, 32)], F)
    out_path = tmp_path / "out.json"
    res = run_cli(
        "inverse",
        "--input", str(grid_path),
        "--radii", "1,1",
        "--q", "1",
        "--J", "1",
        "--max-lambda", "2.0",
        "--p-max", "4",
        "--output", str(out_path),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(out_path.read_text())
    assert doc["op"] == "inverse"
    target_value = d.lambda_k / 4.0
    by_value = {
        (t["mode"]["value"], t["mode"]["factors"][1]["kind"], t["mode"]["factors"][1]["angular_order"]):
        complex(t["coeff_re"], t["coeff_im"])
        for t in doc["terms"]
    }
    got = by_value[(target_value, "holomorphic", 0)]
    assert abs(got - weight / target_value) < 1e-7
    others = [
        abs(c) for key, c in by_value.items()
        if key != (target_value, "holomorphic", 0)
    ]
    assert max(others) < 1e-7


def test_inverse_rejects_mismatched_flags(tmp_path):
    F = np.zeros((64, 32, 64, 32), dtype=complex)
    grid_path = tmp_path / "g.pspc"
    write_grid(str(grid_path), 2, 1, [(64, 32), (64, 32)], F)
    res = run_cli(
        "inverse", "--input", str(grid_path), "--radii", "1,1,1", "--q", "2",
        "--J", "1,2", "--max-lambda", "2.0",
    )
    assert res.returncode == 3


def test_help_shows_defaults():
    res = run_cli("spectrum", "--help")
    assert res.returncode == 0
    assert "default" in res.stdout
