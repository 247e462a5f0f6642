import filecmp
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qpflab.artifacts import read_cdf_tables, read_curve, write_curve
from qpflab import cli, surgery
from qpflab.cli import main
from qpflab.errors import LambdaNotFound, ManifestError, QpfLabError
from qpflab.manifest import _SCHEMA, Manifest, load_manifest
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
    changed = Manifest(probe_points=16, waive_flatness=True, weights_k=5)
    assert changed.normalized_text() != Manifest().normalized_text()
    p = write_manifest(tmp_path, "[curve]\npeak = 1/3\n[weights]\nk = 5\n"
                                 "[run]\nwaive_flatness = yes\nprobe_points = 16\n")
    echo = load_manifest(p).normalized_text().splitlines()
    for line in ("peak=1/3", "k=5", "waive_flatness=True", "probe_points=16"):
        assert line in echo


def test_weights_mode_other_than_quadratic_rejected(tmp_path):
    p = write_manifest(tmp_path, SMALL.replace("[weights]\n", "[weights]\nmode = hoelder\n"))
    with pytest.raises(ManifestError, match="mode"):
        load_manifest(p)
    assert main(["blowup", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 2


def test_weights_alpha_is_unknown_key(tmp_path):
    with pytest.raises(ManifestError, match="unknown key 'alpha'"):
        load_manifest(write_manifest(tmp_path, "[weights]\nalpha = 0.3\n"))


def test_depth_is_neither_key_nor_flag(tmp_path):
    # every command flattens to 2N+1 from [weights] n
    p = write_manifest(tmp_path, SMALL + "depth = 2\n")
    assert main(["curve", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(SystemExit):
        main(["curve", "--manifest", str(write_manifest(tmp_path, SMALL, name="s.ini")),
              "--depth", "2"])


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_example_manifest_loads(tmp_path):
    block = _readme().split("```ini\n", 1)[1].split("```", 1)[0]
    m = load_manifest(write_manifest(tmp_path, block))
    assert (m.fibers, m.weights_n, m.iters) == (4096, 8, 10000000)


def test_readme_accepted_keys_match_schema():
    sentence = " ".join(_readme().split("Accepted keys: ", 1)[1].split(".", 1)[0].split())
    listed = {}
    for part in sentence.split("`[")[1:]:
        section, keys = part.split("]`", 1)
        listed[section] = [k.strip() for k in keys.strip(" ;").split(",")]
    assert listed == _SCHEMA


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
    assert len(graph.thetas) >= 1
    cert_lines = (out / "certificate.jsonl").read_text().splitlines()
    assert cert_lines
    assert (out / "curves.svg").read_text().startswith("<svg")


def test_curve_search_timeout_exit_5(tmp_path):
    # N = 4 at depth 2N+1 = 9 with two crossings: seed 2's crossing search times out
    body = SMALL.replace("seed = 3", "seed = 2").replace("crossings = 0", "crossings = 2")
    p = write_manifest(tmp_path, body)
    assert main(["curve", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 5


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


@pytest.mark.parametrize("family", ["family = constant\na = 2\nd = 1",
                                    "family = diagonal\nlam = 0"])
def test_cocycle_outside_sl2_exits_3(tmp_path, capsys, family):
    p = write_manifest(tmp_path, f"[cocycle]\n{family}\n[grids]\nfibers = 64\n"
                                 "vertical = 64\nbins = 64\n")
    assert main(["cocycle", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("precondition failed: ")


def readme_exit_table() -> dict:
    """Error class -> (exit code, stderr prefix), from the README's table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| (\d) \| `([^`]+)` \| [^|]+ \|$", text, re.M)
    return {name: (int(code), prefix) for name, code, prefix in rows}


def error_classes(cls=QpfLabError) -> dict:
    """cls and every subclass of it, by name."""
    found = {cls.__name__: cls}
    for sub in cls.__subclasses__():
        found.update(error_classes(sub))
    return found


def test_every_error_class_exits_as_the_readme_says(tmp_path, monkeypatch, capsys):
    table = readme_exit_table()
    classes = error_classes()
    assert sorted(table) == sorted(classes)
    p = write_manifest(tmp_path, SMALL)
    for name, cls in classes.items():
        def stub(manifest, out, emit_svg=False, cls=cls):
            raise cls("stubbed")

        monkeypatch.setattr(cli, "cmd_curve", stub)
        code = main(["curve", "--manifest", str(p), "--out", str(tmp_path / "o")])
        assert (code, capsys.readouterr().err) == (table[name][0], f"{table[name][1]} stubbed\n")


def test_blowup_passes_probe_points(tmp_path, monkeypatch):
    from qpflab import transport
    seen = []
    probe = transport._probe_hit_time

    def recording_probe(tmap, wit, height, npts, n_max):
        seen.append(npts)
        return probe(tmap, wit, height, npts, n_max)

    monkeypatch.setattr(transport, "_probe_hit_time", recording_probe)
    body = SMALL.replace("crossings = 0", "crossings = 1") + "probe_points = 16\n"
    p = write_manifest(tmp_path, body)
    assert main(["blowup", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 0
    assert seen and set(seen) == {16}


def test_blowup_probes_never_sample_f(tmp_path, monkeypatch):
    # the witnesses' probes walk f itself: no table of any map is built
    from qpflab.systems import QpfSystem
    sampled = []
    monkeypatch.setattr(QpfSystem, "sample", lambda self, *a, **k: sampled.append(a))
    p = write_manifest(tmp_path, SMALL.replace("crossings = 0", "crossings = 1"))
    assert main(["blowup", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 0
    assert sampled == []


def test_analyze_reads_f_once_per_classifier_step(tmp_path, monkeypatch):
    # f's classification (n = 512, 4 fiber samples) reads one fiber per step
    # for both start points, and its rho comes from that walk: 2048 reads
    from qpflab import transport
    calls = []
    fiber_values = transport.TransportedMap.fiber_values

    def counted(self, theta, xs):
        calls.append(len(xs))
        return fiber_values(self, theta, xs)

    monkeypatch.setattr(transport.TransportedMap, "fiber_values", counted)
    p = write_manifest(tmp_path, SMALL)
    assert main(["analyze", "--manifest", str(p), "--out", str(tmp_path / "an")]) == 0
    assert len(calls) == 2048 and set(calls) == {3}


STEEP_TENT = """
[curve]
kind = tent
amplitude = 9/10
peak = 1/2
[weights]
k = 6
n = 2
epsilon = 1/3
[grids]
fibers = 64
vertical = 64
bins = 64
[run]
crossings = 0
"""


def test_steep_tent_flattens_through_a_narrower_box(tmp_path, monkeypatch):
    # some box of this tent is too wide for a split point: past theta + delta/2 a copy
    # still meets one of another group; the box search runs again at half its delta
    failed = []
    plan = surgery.plan_perturbation

    def spy(table, box, **kwargs):
        try:
            return plan(table, box, **kwargs)
        except LambdaNotFound:
            failed.append(box.delta)
            raise

    monkeypatch.setattr(surgery, "plan_perturbation", spy)
    p = write_manifest(tmp_path, STEEP_TENT)
    assert main(["curve", "--manifest", str(p), "--out", str(tmp_path / "c")]) == 0
    assert failed
    assert main(["blowup", "--manifest", str(p), "--out", str(tmp_path / "b")]) == 0
