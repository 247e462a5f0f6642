import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from qpflab.artifacts import read_cdf_tables, read_curve, write_curve
from qpflab.cli import main
from qpflab.manifest import Manifest, load_manifest
from qpflab.errors import ManifestError
from qpflab.plgraph import PLGraph

SMALL = """
[weights]
n = 4
[grids]
fibers = 128
vertical = 128
bins = 128
[run]
seed = 3
crossings = 0
iters = 20000
burnin = 100
depth = 2
"""


def write_manifest(tmp_path: Path, body: str, name="m.ini") -> Path:
    p = tmp_path / name
    p.write_text(body, encoding="ascii")
    return p


def test_bad_manifest_exit_2(tmp_path):
    p = write_manifest(tmp_path, "[weights]\nbogus = 1\n")
    assert main(["blowup", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 2


def test_unknown_section_rejected(tmp_path):
    p = write_manifest(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(ManifestError):
        load_manifest(p)


def test_manifest_echo_lists_every_key(tmp_path):
    changed = Manifest(probe_points=16, waive_flatness=True, alpha=0.3)
    assert changed.normalized_text() != Manifest().normalized_text()
    p = write_manifest(tmp_path, "[curve]\npeak = 1/3\n[weights]\ns = 0.25\n"
                                 "[run]\nwaive_flatness = yes\nprobe_points = 16\n")
    echo = load_manifest(p).normalized_text().splitlines()
    for line in ("peak=1/3", "s=0.25", "waive_flatness=True", "probe_points=16"):
        assert line in echo


def test_readme_example_manifest_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    m = load_manifest(write_manifest(tmp_path, block))
    assert (m.fibers, m.depth, m.iters) == (4096, 4, 10000000)


def test_unparsed_key_rejected(tmp_path):
    # [base] phi was accepted and then ignored; no manifest field reads it
    with pytest.raises(ManifestError):
        load_manifest(write_manifest(tmp_path, "[base]\nphi = 1/2\n"))


def test_missing_certificate_exit_3(tmp_path):
    # a file curve arrives with no flatness certificate; without a waiver the
    # measure build must refuse
    from fractions import Fraction as F
    tent = PLGraph.tent(F(1, 5), F(7, 10))
    curve_file = tmp_path / "tent.txt"
    write_curve(curve_file, tent)
    p = write_manifest(tmp_path, SMALL + f"[curve]\nkind = file\nfile = {curve_file}\n")
    assert main(["blowup", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 3


def test_curve_command_artifacts(tmp_path):
    p = write_manifest(tmp_path, SMALL)
    out = tmp_path / "curve_out"
    assert main(["curve", "--manifest", str(p), "--out", str(out), "--emit-svg"]) == 0
    graph = read_curve(out / "curve.txt")
    assert graph.breakpoint_count() >= 1
    cert_lines = (out / "certificate.jsonl").read_text().splitlines()
    assert cert_lines
    assert (out / "curves.svg").read_text().startswith("<svg")


def test_blowup_artifacts_and_determinism(tmp_path):
    p = write_manifest(tmp_path, SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["blowup", "--manifest", str(p), "--out", str(out_a)]) == 0
    assert main(["blowup", "--manifest", str(p), "--out", str(out_b)]) == 0
    names = [f.name for f in out_a.iterdir() if f.name != "run.log"]
    assert set(names) >= {"curve.txt", "nu_cdf.bin", "residual.csv", "report.jsonl",
                          "atlas.jsonl", "manifest.echo.txt"}
    for name in names:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
    report = json.loads((out_a / "report.jsonl").read_text())
    assert report["min_v_fraction"] >= report["v_fraction_floor"] == 0.5
    knots, values = read_cdf_tables(out_a / "nu_cdf.bin")
    assert knots.shape == values.shape == (128, 129)
    assert np.all(np.diff(values, axis=1) >= -1e-12)


def test_curve_roundtrip(tmp_path):
    from fractions import Fraction as F
    g = PLGraph.tent(F(1, 7), F(2, 5))
    path = tmp_path / "c.txt"
    write_curve(path, g)
    back = read_curve(path)
    assert back == g


def test_analyze_and_cocycle_commands(tmp_path):
    p = write_manifest(tmp_path, SMALL)
    out = tmp_path / "an"
    assert main(["analyze", "--manifest", str(p), "--out", str(out)]) == 0
    assert (out / "rotation.csv").exists()
    assert (out / "verdict.jsonl").exists()
    assert (out / "fiberset.rle.txt").exists()
    # rotation of the default translation base is exact
    line = (out / "rotation.csv").read_text().splitlines()[1]
    est = float(line.split(",")[1])
    from qpflab.circle import RHO_SILVER
    assert abs(est - float(RHO_SILVER)) < 1e-12

    pc = write_manifest(tmp_path, """
[cocycle]
family = rotation
angle = 0.5
[grids]
fibers = 128
vertical = 128
bins = 128
[run]
iters = 20000
burnin = 100
""", name="c.ini")
    outc = tmp_path / "coc"
    assert main(["cocycle", "--manifest", str(pc), "--out", str(outc)]) == 0
    hist = (outc / "cardinality_hist.csv").read_text().splitlines()
    assert hist[0] == "clusters,fibers"


def test_blowup_passes_probe_points(tmp_path, monkeypatch):
    from qpflab import transport
    seen = []
    probe = transport._probe_hit_time

    def recording_probe(sampled, wit, height, npts, n_max):
        seen.append(npts)
        return probe(sampled, wit, height, npts, n_max)

    monkeypatch.setattr(transport, "_probe_hit_time", recording_probe)
    body = SMALL.replace("crossings = 0", "crossings = 1") + "probe_points = 16\n"
    p = write_manifest(tmp_path, body)
    assert main(["blowup", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 0
    assert seen and set(seen) == {16}
