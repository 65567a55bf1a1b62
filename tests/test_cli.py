import hashlib
import json

from hypfield import cli
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
