import contextlib
import filecmp
import io
import json
import os
import re
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpflab.artifacts import read_cdf_tables, read_curve, write_cdf_tables, write_curve
from qpflab import cli, minimal, surgery
from qpflab.cli import main
from qpflab.errors import (InvariantViolation, LambdaNotFound, ManifestError,
                           PreconditionError, QpfLabError)
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


def test_readme_one_value_keys_are_enforced(tmp_path):
    # the paragraph's "`[section] key` must be `value`" phrases are the validator's
    paragraph = " ".join(_readme().split("Accepted keys: ", 1)[1].split("\n\n", 1)[0].split())
    pinned = {(section, key): value for section, key, value
              in re.findall(r"`\[(\w+)\] (\w+)` must be `([^`]+)`", paragraph)}
    assert pinned == {("weights", "mode"): "quadratic", ("run", "anchor"): "0"}
    for (section, key), value in pinned.items():
        load_manifest(write_manifest(tmp_path, f"[{section}]\n{key} = {value}\n"))
        with pytest.raises(ManifestError, match=f"{key} .*not supported"):
            load_manifest(write_manifest(tmp_path, f"[{section}]\n{key} = {value}1\n"))


@pytest.mark.parametrize("anchor", [1, -1])
@pytest.mark.parametrize("command", ["blowup", "analyze"])
def test_nonzero_anchor_exits_2_before_any_work(tmp_path, capsys, command, anchor):
    p = write_manifest(tmp_path, SMALL + f"anchor = {anchor}\n")
    out = tmp_path / "o"
    assert main([command, "--manifest", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: anchor {anchor} not supported")
    assert not out.exists()


def test_anchor_zero_echoes_as_no_key(tmp_path):
    explicit = load_manifest(write_manifest(tmp_path, SMALL + "anchor = 0\n", name="a.ini"))
    assert explicit.normalized_text() == load_manifest(write_manifest(tmp_path, SMALL)).normalized_text()


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


def test_curve_search_timeout_exit_5(tmp_path, monkeypatch, capsys):
    # N = 4 at depth 2N+1 = 9 with two crossings: seed 2's second crossing needs
    # m = 24835, past a budget of 10^4 orbit times
    monkeypatch.setattr(surgery, "_CROSSING_M_MAX", 10**4)
    body = SMALL.replace("seed = 3", "seed = 2").replace("crossings = 0", "crossings = 2")
    p = write_manifest(tmp_path, body)
    assert main(["curve", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 5
    assert capsys.readouterr().err.startswith(
        "timeout: no orbit segment hit the J box within m_max=10000 ")


@pytest.mark.parametrize("flags, body", [
    (["--grid", "0"], SMALL), (["--grid", "5"], SMALL), (["--grid", str(3 * 10**6)], SMALL),
    (["--seed", "-1"], SMALL), ([], SMALL.replace("seed = 3", "seed = -1")),
])
def test_cli_overrides_are_validated_before_any_work(tmp_path, capsys, flags, body):
    # curve reads no grid, so an unchecked grid would just pass here; a seed < 0
    # reaches the crossing draws
    p = write_manifest(tmp_path, body.replace("crossings = 0", "crossings = 2"))
    out = tmp_path / "o"
    assert main(["curve", "--manifest", str(p), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("line", ["probe_points = 0", "probe_points = -4",
                                  "crossings = -1", "burnin = -1"])
def test_run_counts_below_their_range_exit_2(tmp_path, capsys, line):
    key = line.split()[0]
    body = re.sub(rf"^{key} = .*\n", "", SMALL, flags=re.M) + line + "\n"
    out = tmp_path / "o"
    assert main(["blowup", "--manifest", str(write_manifest(tmp_path, body)),
                 "--out", str(out)]) == 2
    value = line.split()[-1]
    assert capsys.readouterr().err.startswith(f"config error: {key} {value} out of range")
    assert not out.exists()


def test_repeated_key_exits_2(tmp_path, capsys):
    p = write_manifest(tmp_path, "[weights]\nn = 2\nn = 3\n")
    with pytest.raises(ManifestError, match="'n'"):
        load_manifest(p)
    assert main(["blowup", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: malformed manifest: ")


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


def test_cut_free_blowup_encodes_each_row_once(tmp_path, monkeypatch):
    # one chamber and no cut: every grid fiber is in one class, so the nu CDF
    # row and the atlas row's text are each made once and written 128 times
    calls = []
    for name in ("_cdf_row", "_u_arcs"):
        monkeypatch.setattr(cli, name, lambda *args, fn=getattr(cli, name), name=name:
                            calls.append(name) or fn(*args))
    p = write_manifest(tmp_path, "[curve]\nkind = constant\nvalue = 1/5\n" + SMALL)
    out = tmp_path / "o"
    assert main(["blowup", "--manifest", str(p), "--out", str(out)]) == 0
    assert sorted(calls) == ["_cdf_row", "_u_arcs"]
    lines = (out / "atlas.jsonl").read_text().splitlines()
    assert len(lines) == 128 and len(set(line.split(", ", 1)[1] for line in lines)) == 1
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True, allow_nan=False)
    _, values = read_cdf_tables(out / "nu_cdf.bin")
    assert values.shape == (128, 129) and np.all(values == values[0])


@pytest.mark.parametrize("rows, message", [
    ([bytes(24), bytes(16)], r"row 1 has 16 bytes where 2 rows of 24 are due"),
    ([bytes(24)], r"1 rows for 2 fibers"),
    ([bytes(24)] * 3, r"row 2 has 24 bytes where 2 rows of 24 are due"),
])
def test_cdf_table_rows_are_checked(tmp_path, rows, message):
    # a short, a missing or a surplus row raises InvariantViolation, under
    # python -O too, and leaves no file
    with pytest.raises(InvariantViolation, match=r"^t\.bin: " + message):
        write_cdf_tables(tmp_path / "t.bin", np.zeros(3), 2, iter(rows))
    assert not (tmp_path / "t.bin").exists()


def test_short_cdf_row_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_cdf_row", lambda density, xs, theta: bytes(8))
    p = write_manifest(tmp_path, SMALL)
    assert main(["blowup", "--manifest", str(p), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("invariant violation: nu_cdf.bin: row 0 has 8 bytes")
    assert not (tmp_path / "o" / "nu_cdf.bin").exists()


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
    log = (out / "run.log").read_text().splitlines()
    assert [line.split("=")[0] for line in log] == [
        "command", "elapsed_s", "f_branch_s", "minimal_branch_s", "finished_at"]
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
    log = (outc / "run.log").read_text().splitlines()
    assert [line.split("=")[0] for line in log] == [
        "command", "elapsed_s", "lyapunov_s", "cardinality_s", "finished_at"]


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


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for the given seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_analyze(tmp_path):
    """analyze on SMALL, then check that it left no child process behind."""
    out = tmp_path / "an"
    with deadline(60):
        code = main(["analyze", "--manifest", str(write_manifest(tmp_path, SMALL)),
                     "--out", str(out)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, out


def wait_for(path):
    for _ in range(1000):
        if path.exists():
            return
        time.sleep(0.01)
    raise AssertionError(f"{path} never appeared")


def test_analyze_minimal_branch_error_keeps_its_exit(tmp_path, monkeypatch, capsys):
    def fails(*args, **kwargs):
        raise PreconditionError("stubbed K")

    monkeypatch.setattr(cli, "minimal_set_via_projection", fails)
    code, out = run_analyze(tmp_path)
    assert (code, capsys.readouterr().err) == (3, "precondition failed: stubbed K\n")
    assert not (out / "verdict.jsonl").exists()
    assert not (out / "fiberset.rle.txt").exists()


@pytest.mark.parametrize("k_fails", [True, False])
def test_analyze_f_error_wins_and_leaves_no_fiber_set(tmp_path, monkeypatch, capsys, k_fails):
    # f fails only once the child has failed too, or has written its fiber set
    marker = tmp_path / ("k_failed" if k_fails else "an/fiberset.rle.txt")
    minimal_set = cli.minimal_set_via_projection
    classify = cli.classify_rho_boundedness
    calls = []

    def k_stub(*args, **kwargs):
        if k_fails:
            marker.touch()
            raise PreconditionError("stubbed K")
        return minimal_set(*args, **kwargs)

    def f_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:                     # the base's classification
            return classify(*args, **kwargs)
        wait_for(marker)
        raise InvariantViolation("stubbed f")

    monkeypatch.setattr(cli, "minimal_set_via_projection", k_stub)
    monkeypatch.setattr(cli, "classify_rho_boundedness", f_fails)
    code, out = run_analyze(tmp_path)
    assert (code, capsys.readouterr().err) == (4, "invariant violation: stubbed f\n")
    assert not {"verdict.jsonl", "fiberset.rle.txt"} & {f.name for f in out.iterdir()}


def test_analyze_lost_child_is_a_named_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "minimal_set_via_projection",
                        lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL))
    code, out = run_analyze(tmp_path)
    err = capsys.readouterr().err
    assert code == 4 and err.startswith("error: the forked branch (pid ")
    assert err.endswith(" ended without a result: killed by SIGKILL\n")
    assert not (out / "verdict.jsonl").exists()


def test_cocycle_lost_orbit_child_is_a_named_error(tmp_path, monkeypatch, capsys):
    # Harper lambda=2 contracts, so the parent waits for the orbit's child,
    # which is the only process that runs the packed tail
    monkeypatch.setattr(minimal, "_packed_tail",
                        lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    p = write_manifest(tmp_path, "[cocycle]\nfamily = harper\nenergy = 0\nlam = 2\n"
                                 "[grids]\nfibers = 128\nvertical = 128\nbins = 128\n"
                                 f"[run]\niters = {2 * minimal._BLOCK}\nburnin = 100\n")
    out = tmp_path / "coc"
    with deadline(60):
        code = main(["cocycle", "--manifest", str(p), "--out", str(out)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    err = capsys.readouterr().err
    assert code == 4 and err.startswith("error: the forked branch (pid ")
    assert err.endswith(" ended without a result: killed by SIGKILL\n")
    assert not (out / "verdict.jsonl").exists()


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


STEEP_CROSSED = STEEP_TENT.replace("amplitude = 9/10", "amplitude = 7/10").replace(
    "crossings = 0", "crossings = 2").replace("= 64", "= 32")


def test_steep_tent_crosses(tmp_path):
    # the tent's J triangle is 1.4e-3 by 1.9e-2: its first crossing needs m = 1175506
    p = write_manifest(tmp_path, STEEP_CROSSED)
    assert main(["curve", "--manifest", str(p), "--out", str(tmp_path / "c")]) == 0
    records = [json.loads(line) for line in (tmp_path / "c" / "certificate.jsonl").open()]
    crossings = [r for r in records if r["type"] == "crossing"]
    assert [r["m"] for r in crossings] == [1175506, 63382]
    assert all(r["verified"] for r in crossings)


def test_crossing_timeout_names_the_j_triangle_and_the_kept_orbit_times(tmp_path, capsys,
                                                                        monkeypatch):
    # the steep tent's J triangle is so small that 10^4 orbit times are expected
    # to put fewer than 3 points in its bounding box, and none lands inside
    monkeypatch.setattr(surgery, "_CROSSING_M_MAX", 10**4)
    p = write_manifest(tmp_path, STEEP_CROSSED)
    assert main(["curve", "--manifest", str(p), "--out", str(tmp_path / "c")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("timeout: no orbit segment hit the J box within m_max=10000 ")
    assert "I=[" in err and "J=[" in err
    width, height, screened, inside = re.search(
        r"J triangle (\d\.\de-\d\d) x (\d\.\de-\d\d) \(theta-width x x-height\), "
        r"orbit times that passed the float screen / the exact triangle test: (\d+)/(\d+)\n$",
        err).groups()
    assert float(width) * float(height) * 10**4 < 3
    assert int(screened) >= int(inside) == 0


MANIFEST_FIELDS = st.fixed_dictionaries({
    "base": st.sampled_from(["translation", "skew"]),
    "curve": st.sampled_from(["constant", "tent"]),
    "n": st.integers(1, 2),
    "k": st.integers(1, 6),
    "epsilon": st.sampled_from(["1/10", "1/4", "1/3", "1/2", "3/4"]),
    "amplitude": st.integers(1, 9),
    "anchor": st.sampled_from([-1, 0, 1]),
})


@settings(derandomize=True, deadline=None, max_examples=100)
@given(fields=MANIFEST_FIELDS)
def test_every_manifest_passes_or_exits_as_documented(fields):
    # exit 0; exit 4 with no message, a failed audit verdict; or a qpflab.errors
    # class's code and prefix.  A nonzero anchor is refused before any work.
    body = (f"[base]\nkind = {fields['base']}\n[curve]\nkind = {fields['curve']}\n"
            f"amplitude = {fields['amplitude']}/10\n[weights]\nk = {fields['k']}\n"
            f"n = {fields['n']}\nepsilon = {fields['epsilon']}\n"
            f"[grids]\nfibers = 32\nvertical = 32\nbins = 32\n"
            f"[run]\ncrossings = 0\nanchor = {fields['anchor']}\n")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        with contextlib.redirect_stderr(err):
            code = main(["blowup", "--manifest", str(write_manifest(Path(tmp), body)),
                         "--out", str(out)])
        made_out = out.exists()
    message = err.getvalue()
    if fields["anchor"] != 0:
        assert (code, made_out) == (2, False)
        assert message.startswith(f"config error: anchor {fields['anchor']} not supported")
    elif code == 4 and not message:
        pass                                    # the run finished and failed its own audit
    elif code:
        documented = set(readme_exit_table().values())
        assert any(code == c and message.startswith(prefix + " ") for c, prefix in documented), \
            (code, message)
