"""The bytes of every data artifact, pinned by sha256.

Three small manifests: one on a constant curve and one with two certified
crossings, each run through blowup, analyze and cocycle, and one on a tent
curve, whose chambers are all non-constant, run through blowup and analyze.  A change meant to
keep the artifacts byte-identical must leave these hashes as they are; a
change meant to alter an artifact updates its hash here and says so in
CHANGES.md.  run.log holds wall-clock times and is not pinned.
"""

import hashlib

import pytest

from qpflab.cli import main

# fibers = 600 is not a power of two, and blowup writes every second atlas row
CONSTANT = """
[curve]
kind = constant
value = 199/997
[weights]
n = 4
[grids]
fibers = 600
vertical = 64
bins = 64
[run]
seed = 1
crossings = 0
iters = 20000
burnin = 100
[cocycle]
family = harper
energy = 0
lam = 2
"""

CROSSED = """
[curve]
kind = constant
value = 199/997
[weights]
n = 4
[grids]
fibers = 96
vertical = 64
bins = 64
[run]
seed = 3
crossings = 2
iters = 20000
burnin = 100
[cocycle]
family = rotation
angle = 0.5
"""

TENT = """
[curve]
kind = tent
base = 1/5
amplitude = 7/10
peak = 1/2
[weights]
n = 2
[grids]
fibers = 96
vertical = 64
bins = 64
[run]
seed = 1
crossings = 0
iters = 20000
burnin = 100
"""

CONSTANT_ECHO = "1d70b6bba80a1070790c08c442eb06c02254516d4d796dd624edb64252afba01"
CROSSED_ECHO = "d8218e99e425b421b4978f949cc1daeb0417bf4121525829260b79b13d771b22"
TENT_ECHO = "76034c21629a9f3f9ce3675df35b39db9849781599d9e617d7de9ef0e661eb1a"

PINS = {
    ("constant", "blowup"): {
        "atlas.jsonl": "252558010cd9df36be5b76831e278ebabbeb4bb8727dd6a4d712cd50afc0e151",
        "curve.txt": "e6ed6b71dd6108700fe6e1545a1e73e63d232a6f3869d341e47069036f83ac90",
        "manifest.echo.txt": CONSTANT_ECHO,
        "nu_cdf.bin": "95bde1e79b3c04d504e4fd866227cf0978aacc5441e1c9b6107de8c87ea40436",
        "report.jsonl": "39009b8215c5e80cfc6090ce3ba283b71fb70cad83d8f9aa418b8ea5e4629fe7",
        "residual.csv": "209ba80a2b82121be1467a437817dcbedadd23aa7e2e4d0a630c375721d026d6",
    },
    ("constant", "analyze"): {
        "deviations.csv": "e25eea5d182d7ef1788352316762a7cfef4105cb83339d0535c42ff5a3e9fbdc",
        "fiberset.rle.txt": "27f0a4f4158cbdc943f0d214dbf962d8164f9c9e60908893d3430b7bd3868969",
        "manifest.echo.txt": CONSTANT_ECHO,
        "rotation.csv": "58a7204a968f2a4a6f390bcd467f2217645166491b05e869fbb8cebe6a337782",
        "verdict.jsonl": "17850285a7d0e1ec93a8179655b6e8ef6db0ecfb99fc58dd85f3a938d8491af6",
    },
    ("constant", "cocycle"): {
        "cardinality_hist.csv": "dea1a2362512c51241339eae989ccc9a0b4da68bbfefeaa0751a72fab57ced72",
        "lyapunov.csv": "74bde7c384c3f9b09951694e0d2387dd898f21bfa214424fda0de9b87123c068",
        "manifest.echo.txt": CONSTANT_ECHO,
        "verdict.jsonl": "ea379e3d074fa633e5caa5d3a3e77c5a5264578b53be180f30610963630a48e9",
    },
    ("crossed", "blowup"): {
        "atlas.jsonl": "31e025fd6524c97c94b7a4285fdb940f52db1e4942e347145a3fd23acd9a96a6",
        "curve.txt": "a1cb1286f41b6d677e62e099e3e0dbf420c42a3d6649e8eef1de0345b9e8e729",
        "manifest.echo.txt": CROSSED_ECHO,
        "nu_cdf.bin": "51ecbb82fdf767f3e7c0484b07114f938a437b10e9f1b975f9c4ca2b6b3de538",
        "report.jsonl": "afe19f4c0cf282255e95d53040e5b6614da894b791667425b20bf90dbc24a913",
        "residual.csv": "1df70c88a4690418799235a099ccb4e2c10b3d68d102a10ba68600cbaf4481ee",
    },
    ("crossed", "analyze"): {
        "deviations.csv": "f59969cf0faffd9652358377c3edc946983e5a07f1fa3e6a259ca01124fc8b52",
        "fiberset.rle.txt": "0e9362ec59d647b7c086accef86d806adf0370a10ee60c8233323f4cf25838b9",
        "manifest.echo.txt": CROSSED_ECHO,
        "rotation.csv": "32520548d35b04a2b23a621a01533f77a1765cce1f2783b4a9ab0e7f6c4b59eb",
        "verdict.jsonl": "50700c08cfd08e3bba531bc105fc125871027aa82bd5169cd420154249a8ae23",
    },
    ("crossed", "cocycle"): {
        "cardinality_hist.csv": "ff484dbe3a2c7a8c4d1ad961d29e117858d75985f7408102eb39bb52fd1bc6f6",
        "lyapunov.csv": "714e0c4c0f72f004faa2db5908c3539ef1846746274032322a60c4bf6ad02622",
        "manifest.echo.txt": CROSSED_ECHO,
        "verdict.jsonl": "5429630644358eb35529b156c42da42cc77e0965f2c8e72e2df95b85b965f983",
    },
    ("tent", "blowup"): {
        "atlas.jsonl": "558e5f93c55b5b4f2b6e04449b4d351b4b4eded4b48193e43b58f65b109747f3",
        "curve.txt": "8b76b0be50b3b354a1c1ec89ee48666bfbd73ff018ca9faf8394717f02d424c8",
        "manifest.echo.txt": TENT_ECHO,
        "nu_cdf.bin": "1e8e856d807240fd0af24faffed2b2a94da322130bfb74835340010e8a54751a",
        "report.jsonl": "4661dc842b4d2908aea85bfe9eeb3edf8f595ad0841c3109931a066c5f8025c4",
        "residual.csv": "90511793cbbc54bcdbca701106bd469a869ec70625d4b5dc4004862f2ece72d1",
    },
    ("tent", "analyze"): {
        "deviations.csv": "f59969cf0faffd9652358377c3edc946983e5a07f1fa3e6a259ca01124fc8b52",
        "fiberset.rle.txt": "632a822f3ec4c853b057726b97859f93c3feb8e1bd432d71a483a8bd44dd3e02",
        "manifest.echo.txt": TENT_ECHO,
        "rotation.csv": "32520548d35b04a2b23a621a01533f77a1765cce1f2783b4a9ab0e7f6c4b59eb",
        "verdict.jsonl": "b511c9cd82b2108ec037e2ebde42e020ec18c5ff8a113712259bfeec0c799cac",
    },
}


@pytest.mark.parametrize("manifest, command", sorted(PINS))
def test_artifact_bytes_are_pinned(tmp_path, manifest, command):
    path = tmp_path / "m.ini"
    path.write_text({"constant": CONSTANT, "crossed": CROSSED, "tent": TENT}[manifest], encoding="ascii")
    out = tmp_path / "out"
    assert main([command, "--manifest", str(path), "--out", str(out)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in out.iterdir() if f.name != "run.log"}
    assert got == PINS[manifest, command]
