import dataclasses
import hashlib
import json
import logging
import math
import os
import sys

import numpy as np
import pytest
import scipy

from hypfield import _kernels, cli
from hypfield import fieldmc as fm
from hypfield.errors import ConfigurationError
from hypfield.greens import ModelParams, g_plus
from hypfield.tessellation import TriangleParams, generate


def test_tessellate_writes_outputs_and_manifest(tmp_path):
    csv_path, svg_path = tmp_path / "tiles.csv", tmp_path / "tiles.svg"
    argv = ["tessellate", "--p", "3", "--q", "4", "--r", "4", "--radius", "4"]
    assert cli.main(argv + ["--csv", str(csv_path), "--svg", str(svg_path)]) == 0

    lines = csv_path.read_text().splitlines()
    assert len(lines) == len(generate(TriangleParams(3, 4, 4), 4.0)) + 1
    assert lines[1].startswith("0,e,")
    assert svg_path.read_text().startswith("<svg")

    manifest = json.loads((tmp_path / "tiles.csv.manifest.json").read_text())
    assert manifest["command"] == "tessellate"
    assert [o["path"] for o in manifest["outputs"]] == [str(csv_path), str(svg_path)]
    for out in manifest["outputs"]:
        with open(out["path"], "rb") as fh:
            assert out["sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_manifest_records_blas_threads_and_cpus(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    csv_path = tmp_path / "tiles.csv"
    argv = ["tessellate", "--p", "3", "--q", "4", "--r", "4", "--radius", "2", "--csv", str(csv_path)]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "tiles.csv.manifest.json").read_text())
    want = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
    assert manifest["blas_threads"] == want
    assert manifest["cpus"] == len(os.sched_getaffinity(0))
    # a process with scipy loaded records the loaded version
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_tessellate_outputs_keep_their_bytes(tmp_path):
    # the digests of the (3,4,4) radius-3 CSV and SVG as written when tiles
    # were per-tile objects: the array paths write the same bytes
    csv_path, svg_path = tmp_path / "tiles.csv", tmp_path / "tiles.svg"
    argv = ["tessellate", "--p", "3", "--q", "4", "--r", "4", "--radius", "3"]
    assert cli.main(argv + ["--csv", str(csv_path), "--svg", str(svg_path)]) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "841f4f3f93752cc26b16dc316fc4721710b161ac64794d05879fb2ff95c1a139"
    )
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == (
        "24301ac91e2a111d3119068ba8a69d58573c4ee98fe64223823fa1437ecd448f"
    )


def test_json_writes_non_finite_floats_as_null(tmp_path):
    def no_constants(name):
        raise AssertionError(f"{name} is not JSON")

    path = tmp_path / "report.json"
    cli._write_json(path, {"a": -math.inf, "b": [math.nan, 1.5, (math.inf, 2)], "c": {"d": np.float64("nan")}})
    assert json.loads(path.read_text(), parse_constant=no_constants) == {
        "a": None, "b": [None, 1.5, [None, 2]], "c": {"d": None},
    }


def _assert_manifest_matches(manifest_path, command, outputs):
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == command
    assert [o["path"] for o in manifest["outputs"]] == [str(p) for p in outputs]
    for out in manifest["outputs"]:
        with open(out["path"], "rb") as fh:
            assert out["sha256"] == hashlib.sha256(fh.read()).hexdigest()


# Delta = 2 exactly at m2 = 2, (1 + sqrt(13)) / 2 at m2 = 3, 32.1 at m2 = 1000
@pytest.mark.parametrize("m2", ["2", "3", "1000"])
def test_green_audits_production_kernel(tmp_path, m2):
    csv_path = tmp_path / "green.csv"
    argv = ["green", "--m2", m2, "--steps", "40", "--csv", str(csv_path)]
    assert cli.main(argv) == 0

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "rho,g_plus_G2,g_plus_G3,g_plus,rel_dev"
    assert len(lines) == 41
    mp = ModelParams(float(m2))
    for line in lines[1:]:
        rho, g2, g3, gp, dev = map(float, line.split(","))
        assert gp == pytest.approx(g_plus(mp, rho), rel=1e-15)
        assert max(abs(g3 - g2), abs(gp - g2)) / g2 <= dev * (1.0 + 1e-9)
        assert dev < 1e-9
    _assert_manifest_matches(tmp_path / "green.csv.manifest.json", "green", [csv_path])


def test_green_audits_next_to_the_diagonal(tmp_path):
    # the kernel and both closed forms keep the log singularity to rho = 1e-6
    csv_path = tmp_path / "green.csv"
    argv = ["green", "--m2", "2", "--rho-min", "1e-6", "--rho-max", "1", "--steps", "5"]
    assert cli.main(argv + ["--csv", str(csv_path)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert all(float(row[4]) < 1e-9 for row in rows)


def test_neumann_audit_writes_report_and_manifest(tmp_path):
    json_path = tmp_path / "audit.json"
    argv = ["neumann-audit", "--orbit-radius", "4", "--tail-tol", "1", "--pairs", "400"]
    assert cli.main(argv + ["--json", str(json_path)]) == 0

    reports = json.loads(json_path.read_text())
    assert [r["audit_name"] for r in reports] == ["neumann_symmetry", "domination"]
    assert all(r["passed"] for r in reports)
    _assert_manifest_matches(tmp_path / "audit.json.manifest.json", "neumann-audit", [json_path])


def test_sample_audit_writes_report_and_manifest(tmp_path):
    json_path = tmp_path / "samples.json"
    argv = ["sample-audit", "--n", "4000", "--resolution", "2"]
    assert cli.main(argv + ["--json", str(json_path)]) == 0

    report = json.loads(json_path.read_text())
    assert report["passed"] and report["n_samples"] == 4000
    assert [w["k"] for w in report["wick_powers"]] == [1, 2, 3, 4]
    _assert_manifest_matches(tmp_path / "samples.json.manifest.json", "sample-audit", [json_path])


@pytest.mark.parametrize("argv", [
    ["neumann-audit", "--tail-tol", "1", "--pairs", "200", "--orbit-radius", "4"],
    ["sample-audit", "--n", "2000", "--resolution", "2"],
])
def test_audits_size_the_ball_their_orbit_radius_needs(tmp_path, argv):
    # the (4,4,4) ball reaches 2.39 beyond the orbit radius, more than 2;
    # the sample audit needs tile 0 alone
    argv = argv + ["--p", "4", "--q", "4", "--r", "4"]
    assert cli.main(argv + ["--json", str(tmp_path / "audit.json")]) == 0


@pytest.mark.parametrize("argv", [
    ["neumann-audit", "--orbit-radius", "4", "--tail-tol", "1", "--pairs", "400"],
    ["sample-audit", "--n", "20000", "--resolution", "3"],
])
def test_audits_write_the_same_json_for_any_thread_count(monkeypatch, caplog, tmp_path, argv):
    # every image-sum loop goes to the pool, however short its steps; the
    # sample audit's pooled loops are the Monte Carlo ones, three blocks
    # of its 20,000 samples each
    monkeypatch.setattr(_kernels, "_POOL_MIN_PRODUCTS", 0)
    reports = []
    for threads in ("1", "2"):
        json_path = tmp_path / f"threads{threads}.json"
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hypfield"):
            assert cli.main(["--threads", threads, *argv, "--json", str(json_path)]) == 0
        assert f", {threads} workers, " in caplog.text
        reports.append(json_path.read_bytes())
    assert reports[0] == reports[1]


def test_propagator_writes_tables_and_manifest(tmp_path):
    csv_path, json_path = tmp_path / "prop.csv", tmp_path / "sector.json"
    argv = ["propagator", "--grid", "3", "--sector-r0", "0.3", "--sector-samples", "50"]
    assert cli.main(argv + ["--csv", str(csv_path), "--json", str(json_path)]) == 0

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "z,zeta,h_plus_direct,h_plus_substituted,rel_dev"
    assert len(lines) == 1 + 3 * 3
    assert json.loads(json_path.read_text())["passed"]
    _assert_manifest_matches(
        tmp_path / "prop.csv.manifest.json", "propagator", [csv_path, json_path]
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["tessellate", "--p", "3", "--q", "4", "--r", "4", "--radius", "nan"],
        ["tessellate", "--p", "3", "--q", "4", "--r", "4", "--radius", "-1"],
        ["green", "--m2", "-1", "--csv", "{tmp}/x.csv"],
        ["green", "--m2", "2", "--rho-max", "400", "--csv", "{tmp}/x.csv"],
        ["sample-audit", "--resolution", "0", "--json", "{tmp}/x.json"],
    ],
    ids=[
        "radius-nan", "radius-negative", "green-m2-negative", "green-g-plus-underflows",
        "sample-audit-resolution-0",
    ],
)
def test_out_of_range_arguments_exit_2(tmp_path, capsys, argv):
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _config_text(cfg, **extra):
    # the layout of a full config: one key=repr(value) line per field
    lines = [
        f"{'lambda' if f.name == 'lam' else f.name}={getattr(cfg, f.name)!r}"
        for f in dataclasses.fields(cfg)
    ]
    lines += [f"{key}={value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


def test_triviality_writes_outputs_and_manifest(tmp_path, monkeypatch):
    # as in a fresh process: the decay run loads no scipy, and its manifest
    # records none (this process has scipy loaded for other tests)
    monkeypatch.delitem(sys.modules, "scipy", raising=False)
    cfg = dataclasses.replace(fm.TrivialityConfig(), cone_c=0.6, n_mc=2_000)
    cfg_path, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg_path.write_text(_config_text(cfg))
    assert cli.main(["triviality", "--config", str(cfg_path), "--out", str(out)]) == 0

    outputs = [out / name for name in ("decay.csv", "report.json", "decay.svg", "config.echo")]
    assert all(p.is_file() for p in outputs)
    _assert_manifest_matches(out / "manifest.json", "triviality", outputs)
    assert json.loads((out / "manifest.json").read_text())["versions"]["scipy"] is None
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert math.isfinite(report["eps_hat"])


def test_full_config_round_trips():
    cfg = dataclasses.replace(fm.TrivialityConfig(), cone_c=0.6, seed=3, threads=1)
    assert cli.RunConfig(_config_text(cfg)).to_triviality() == cfg


def test_optional_keys_take_dataclass_defaults():
    required = "\n".join(
        line for line in _config_text(fm.TrivialityConfig()).splitlines()
        if line.partition("=")[0] in cli._CONFIG_KEYS
    )
    assert cli.RunConfig(required).to_triviality() == fm.TrivialityConfig()


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text(_config_text(fm.TrivialityConfig(), min_stepp=5))
    assert cli.main(["triviality", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "min_stepp" in err
    assert not (tmp_path / "out").exists()


def test_missing_required_config_key_is_an_error():
    text = "\n".join(
        line for line in _config_text(fm.TrivialityConfig()).splitlines()
        if not line.startswith("seed=")
    )
    with pytest.raises(ConfigurationError, match="seed"):
        cli.RunConfig(text).to_triviality()


def test_config_value_of_wrong_type_is_an_error():
    text = _config_text(fm.TrivialityConfig()).replace("n_mc=20000", "n_mc=2e4")
    with pytest.raises(ConfigurationError, match="n_mc"):
        cli.RunConfig(text).to_triviality()
