"""CLI surface: formats, exit codes, determinism, schema conformance."""

import argparse
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import polyspec
from polyspec import (
    BoundaryCondition,
    Polydisc,
    ZeroCache,
    cli,
    dirichlet_factor,
    eigenforms,
    selfcheck,
    spectrum,
)
from polyspec.selfcheck import SUITES
from polyspec.gridfile import write_grid
from polyspec.spectral_ops import sample_on_grid
from polyspec.verify import MAX_GRID_POINTS

SCHEMA_PATH = Path(polyspec.__file__).parent / "schema" / "spectrum_output.schema.json"
# the package under test, importable in subprocesses without an install
SRC_DIR = str(Path(polyspec.__file__).resolve().parents[1])
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC_DIR, os.environ.get("PYTHONPATH")))),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "polyspec", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=ENV,
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
    for fmt in ("json", "csv", "table"):
        res = run_cli(
            "spectrum", "--radii", "1,1", "--q", "1", "--max", "5.2", "--witnesses", "-1",
            "--format", fmt,
        )
        assert res.returncode == 3
        assert res.stdout == ""


def test_only_json_builds_witnesses(monkeypatch, capsys):
    caps = []
    expand = spectrum._ClassTable.expand

    def spy(self, starts, cap):
        caps.append(cap)
        return expand(self, starts, cap)

    monkeypatch.setattr(spectrum._ClassTable, "expand", spy)
    argv = ["spectrum", "--radii", "1,1", "--q", "1", "--max", "5.2", "--witnesses", "5"]
    for fmt in ("json", "csv", "table"):
        assert cli.main(argv + ["--format", fmt]) == 0
    assert caps == [5]
    capsys.readouterr()


def _reference_json(radii, q, lam, cap):
    """The spectrum record laid out by `_json` from `assemble_spectrum`'s objects."""
    points = polyspec.assemble_spectrum(Polydisc(radii), q, lam, cache=ZeroCache(), witness_cap=cap)

    def mode(m):
        return {
            "J": list(m.J),
            "value": m.value,
            "family": m.family,
            "infinite_family": m.has_holomorphic,
            "factors": [cli._factor_record(f) for f in m.factors],
        }

    request = {"radii": list(radii), "q": q, "max_lambda": lam, "witnesses": cap}
    record = {
        "schema_version": cli.SCHEMA_VERSION,
        "request": request,
        "points": [
            {
                "value": p.value,
                "finite_multiplicity": p.finite_multiplicity,
                "infinite": p.infinite,
                "families": list(p.families),
                "witnesses": [mode(m) for m in p.witnesses],
            }
            for p in points
        ],
    }
    return cli._json(record) + "\n"


@pytest.mark.parametrize("chunk,batch", [(1, 1), (7, 3), (8192, 4096)])
@pytest.mark.parametrize(
    "radii,q,lam,cap",
    [
        ((1.0, 1.0, 1.0), 1, 20.0, 1000),  # points whose witnesses span many chunks
        ((1.0, 1.5), 1, 10.0, 3),
        ((1.0, 1.0, 1.3, 2.0), 2, 6.5, 8),
        ((1.0, 1.3, 2.0), 1, 9.0, 0),
        ((1.0, 1.5), 1, 0.5, 8),  # no point
    ],
)
def test_json_spectrum_is_the_object_record_at_any_chunk_size(
    monkeypatch, capsys, radii, q, lam, cap, chunk, batch
):
    # the streamed writer against `_json` of the objects, with chunks and
    # point batches cut between nearly all blocks and points
    monkeypatch.setattr(spectrum, "_CHUNK", chunk)
    monkeypatch.setattr(cli, "_POINTS", batch)
    argv = ["spectrum", "--radii", ",".join(map(repr, radii)), "--q", str(q), "--max", repr(lam)]
    assert cli.main(argv + ["--witnesses", str(cap)]) == 0
    assert capsys.readouterr().out == _reference_json(radii, q, lam, cap)


def test_json_spectrum_makes_no_eigenmode(monkeypatch, capsys):
    made = []
    batch = spectrum._batch

    def spy(cls, *args):
        made.append(cls)
        return batch(cls, *args)

    def refuse(self):
        raise AssertionError("an EigenMode was made")

    monkeypatch.setattr(spectrum, "_batch", spy)
    monkeypatch.setattr(spectrum.EigenMode, "__post_init__", refuse)
    argv = ["spectrum", "--radii", "1,1,1", "--q", "1", "--max", "20", "--witnesses", "1000"]
    for fmt in ("json", "csv", "table"):
        assert cli.main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out
    assert made == []


def _loaded(*argv):
    """The modules a child `python <argv>` imports, read from `-X importtime`."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=ENV,
    )
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


_NUMERICS = {"numpy", "scipy", "mpmath"}
_CALCULUS_AND_ORACLES = {
    "polyspec.eigenforms",
    "polyspec.spectral_ops",
    "polyspec.gridfile",
    "polyspec.selfcheck",
    "polyspec.verify",
    "scipy.linalg",
    "mpmath",
}
_SPECTRUM = ["-m", "polyspec", "spectrum", "--radii", "1,1.5", "--q", "1", "--max", "10"]


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["-c", "import polyspec"], _NUMERICS),
        (["-m", "polyspec", "zeros", "--order", "3", "--count", "5"], _NUMERICS),
        (["-m", "polyspec", "bottom", "--radii", "1,2,3", "--q", "2"], _NUMERICS),
        (_SPECTRUM, _CALCULUS_AND_ORACLES),
        (_SPECTRUM + ["--format", "csv"], _CALCULUS_AND_ORACLES),
        (
            ["-m", "polyspec", "verify", "--suite", "zeros"],
            {
                "scipy.linalg",
                "mpmath",
                "polyspec.spectrum",
                "polyspec.eigenforms",
                "polyspec.disc_modes",
                "polyspec.polydisc",
                "polyspec.verify",
                "polyspec.spectral_ops",
            },
        ),
    ],
)
def test_subcommand_loads_only_what_it_prints(argv, unloaded):
    loaded = _loaded(*argv)
    assert "polyspec" in loaded
    assert not loaded & unloaded


def test_oracle_fd_loads_scipy_linalg_and_no_calculus():
    loaded = _loaded("-m", "polyspec", "oracle", "fd", "--order", "0", "--bc", "dirichlet", "--grid", "200")
    assert "scipy.linalg" in loaded
    assert not loaded & {"polyspec.spectral_ops", "polyspec.eigenforms"}


def _choices(*path, flag):
    parser = cli.build_parser()
    for name in path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return list(next(a for a in parser._actions if flag in a.option_strings).choices)


def test_written_out_choices_match_their_sources():
    assert _choices("verify", flag="--suite") == sorted(SUITES) + ["all"]
    assert _choices("oracle", "fd", flag="--bc") == [bc.value for bc in BoundaryCondition]


@pytest.mark.parametrize(
    "flags",
    [
        "bottom --radii 1,1e160 --q 1",
        "bottom --radii 1,1e-200 --q 1",
        "spectrum --radii 1,1e-160 --q 1 --max 5",
    ],
)
def test_radii_past_the_admissible_range_exit_3(capsys, flags):
    # these used to die with a bare OverflowError or ZeroDivisionError (exit 1)
    assert cli.main(flags.split()) == 3
    out, err = capsys.readouterr()
    assert out == "" and "admissible range [2**-500, 2**500]" in err


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
    assert run_cli("verify", "--suite", "bessel", "--seed", "-1").returncode == 2
    assert run_cli("zeros", "--order", "0", "--count", "-2").returncode == 2
    # every enclosure has one fixed width; there is no width to set
    assert run_cli("zeros", "--order", "0", "--count", "3", "--tol", "1e-3").returncode == 2
    # points group by exact class key; there is no grouping tolerance to set
    assert run_cli("spectrum", "--radii", "1,1", "--q", "1", "--max", "3", "--group-tol", "1e-9").returncode == 2


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


def test_verify_every_suite_passes_in_process(capsys):
    assert cli.main(["verify", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(s["suite"] for s in doc["suites"]) == sorted(SUITES)
    assert all(s["checks"] and s["passed"] for s in doc["suites"])


@pytest.mark.parametrize(
    "patched,suite,check",
    [
        ("laplacian_residual", "forms", "eigenvalue-equation residual < 1e-8"),
        ("bessel_j_second", "bessel", "Bessel-equation residual < 1e-9"),
        ("bessel_j_prime", "zeros", "zeros are simple (|J'_m| > 1e-3)"),
    ],
)
def test_non_finite_sample_fails_its_check(monkeypatch, patched, suite, check):
    # a check imports what it uses past `bessel` and `zeros` when it runs, so
    # such a fault is planted in the module the check imports it from
    source = selfcheck if hasattr(selfcheck, patched) else eigenforms
    monkeypatch.setattr(source, patched, lambda *args: math.nan)
    results = {c["name"]: c for c in selfcheck.run_suite(suite)["checks"]}
    assert not results[check]["passed"]
    assert "not finite" in results[check]["detail"]


def test_run_checks_fails_a_check_that_reports_nothing():
    results = selfcheck.run_checks(None, None, [(lambda rng, cache: [], {})])
    assert [r.passed for r in results] == [False]


def test_verify_exits_1_naming_the_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(eigenforms, "laplacian_residual", lambda *args: math.nan)
    assert cli.main(["verify", "--suite", "forms"]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["passed"] is False
    assert "forms: eigenvalue-equation residual < 1e-8" in out.err


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


def test_inverse_refuses_a_non_finite_sample(tmp_path, capsys):
    F = np.ones((64, 32, 64, 32), dtype=complex)
    F[5, 7, 11, 13] = np.nan
    grid_path = tmp_path / "nan.pspc"
    write_grid(str(grid_path), 2, 1, [(64, 32), (64, 32)], F)
    flags = ["--radii", "1,1", "--q", "1", "--J", "1", "--max-lambda", "8", "--p-max", "4"]
    assert cli.main(["inverse", "--input", str(grid_path), *flags]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "polyspec: sample grid holds a non-finite value\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["--radius", "inf"],
        ["--radius", "1e-300"],
        ["--grid", str(MAX_GRID_POINTS + 1)],
        ["--radius", "1e120"],
        ["--radius", "1e-120"],
        ["--order", "1" * 161, "--grid", "64"],
    ],
)
def test_oracle_fd_refuses_unrepresentable_requests(capsys, flags):
    assert cli.main(["oracle", "fd", "--order", "0", "--bc", "dirichlet", *flags]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("polyspec: ")


def test_inverse_rejects_wrapped_grid_header(tmp_path):
    # 65536^4 node-count product wraps to 0 in int64; the empty payload
    # must still fail the size check
    grid_path = tmp_path / "w.pspc"
    grid_path.write_bytes(struct.pack("<4sIIIIIII", b"PSPC", 1, 2, 1, *(65536,) * 4))
    res = run_cli(
        "inverse", "--input", str(grid_path), "--radii", "1,1", "--q", "1",
        "--J", "1", "--max-lambda", "2.0",
    )
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr


def test_help_shows_defaults():
    res = run_cli("spectrum", "--help")
    assert res.returncode == 0
    assert "default" in res.stdout
