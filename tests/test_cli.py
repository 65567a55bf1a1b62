import dataclasses
import hashlib
import json

import pytest

from hypfield import cli
from hypfield import fieldmc as fm
from hypfield.errors import ConfigurationError
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


@pytest.mark.parametrize(
    "argv",
    [
        ["tessellate", "--p", "3", "--q", "4", "--r", "4", "--radius", "nan"],
        ["tessellate", "--p", "3", "--q", "4", "--r", "4", "--radius", "-1"],
        ["green", "--m2", "-1", "--csv", "{tmp}/x.csv"],
        ["sample-audit", "--resolution", "0", "--json", "{tmp}/x.json"],
    ],
    ids=["radius-nan", "radius-negative", "green-m2-negative", "sample-audit-resolution-0"],
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
