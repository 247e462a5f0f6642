"""Sectioned key=value manifests with strict validation.

Unknown sections or keys are rejected before any computation; values are
parsed as exact fractions where geometry demands it ('p/q', named constants)
and as plain numbers elsewhere.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .circle import OMEGA_GOLDEN, RHO_SILVER
from .errors import ManifestError
from .plgraph import PLGraph
from .systems import QpfSystem

_NAMED = {"golden": OMEGA_GOLDEN, "sqrt2m1": RHO_SILVER}


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if text in _NAMED:
        return _NAMED[text]
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(text).limit_denominator(10**15)


def parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


#: (section, key) -> (Manifest attribute, parser of the value text); the
#: accepted keys, the loader and the echo all come from this one table
_FIELDS = {
    ("base", "kind"): ("base_kind", str),
    ("base", "omega"): ("omega", parse_fraction),
    ("base", "rho"): ("rho", parse_fraction),
    ("base", "phi_base"): ("phi_base", parse_fraction),
    ("base", "phi_amplitude"): ("phi_amplitude", parse_fraction),
    ("curve", "kind"): ("curve_kind", str),
    ("curve", "value"): ("curve_value", parse_fraction),
    ("curve", "base"): ("curve_base", parse_fraction),
    ("curve", "amplitude"): ("curve_amplitude", parse_fraction),
    ("curve", "peak"): ("curve_peak", parse_fraction),
    ("curve", "file"): ("curve_file", str),
    ("weights", "mode"): ("weights_mode", str),
    ("weights", "k"): ("weights_k", int),
    ("weights", "n"): ("weights_n", int),
    ("weights", "epsilon"): ("epsilon", parse_fraction),
    ("grids", "fibers"): ("fibers", int),
    ("grids", "vertical"): ("vertical", int),
    ("grids", "bins"): ("bins", int),
    ("run", "seed"): ("seed", int),
    ("run", "crossings"): ("crossings", int),
    ("run", "burnin"): ("burnin", int),
    ("run", "iters"): ("iters", int),
    ("run", "anchor"): ("anchor", int),
    ("run", "waive_flatness"): ("waive_flatness", parse_bool),
    ("run", "probe_points"): ("probe_points", int),
    ("cocycle", "family"): ("cocycle_family", str),
    ("cocycle", "a"): ("cocycle_a", float),
    ("cocycle", "angle"): ("cocycle_angle", float),
    ("cocycle", "b"): ("cocycle_b", float),
    ("cocycle", "c"): ("cocycle_c", float),
    ("cocycle", "d"): ("cocycle_d", float),
    ("cocycle", "energy"): ("cocycle_energy", float),
    ("cocycle", "lam"): ("cocycle_lam", float),
}

_SCHEMA = {section: [k for s, k in _FIELDS if s == section] for section, _ in _FIELDS}


@dataclass
class Manifest:
    base_kind: str = "translation"
    omega: Fraction = OMEGA_GOLDEN
    rho: Fraction = RHO_SILVER
    phi_base: Fraction = Fraction(3, 10)
    phi_amplitude: Fraction = Fraction(1, 10)
    curve_kind: str = "constant"
    curve_value: Fraction = Fraction(1, 5)
    curve_base: Fraction = Fraction(1, 5)
    curve_amplitude: Fraction = Fraction(7, 10)
    curve_peak: Fraction = Fraction(1, 2)
    curve_file: str | None = None
    weights_mode: str = "quadratic"
    weights_k: int = 4
    weights_n: int = 8
    epsilon: Fraction = Fraction(1, 2)
    fibers: int = 4096
    vertical: int = 4096
    bins: int = 4096
    seed: int = 0
    crossings: int = 0
    burnin: int = 10**5
    iters: int = 10**7
    anchor: int = 0
    waive_flatness: bool = False
    probe_points: int = 64
    cocycle_family: str = "harper"
    cocycle_a: float = 1.0
    cocycle_angle: float = 0.5
    cocycle_b: float = 0.0
    cocycle_c: float = 0.0
    cocycle_d: float = 1.0
    cocycle_energy: float = 0.0
    cocycle_lam: float = 2.0

    def base_system(self) -> QpfSystem:
        if self.base_kind == "translation":
            return QpfSystem.translation(rho=self.rho, omega=self.omega)
        if self.base_kind == "skew":
            phi = PLGraph.tent(self.phi_base, self.phi_amplitude)
            return QpfSystem.skew(phi, omega=self.omega)
        raise ManifestError(f"unknown base kind {self.base_kind!r}")

    def initial_curve(self) -> PLGraph:
        if self.curve_kind == "constant":
            return PLGraph.constant(self.curve_value)
        if self.curve_kind == "tent":
            return PLGraph.tent(self.curve_base, self.curve_amplitude, self.curve_peak)
        if self.curve_kind == "file":
            if not self.curve_file:
                raise ManifestError("curve kind 'file' needs file=")
            from .artifacts import read_curve
            return read_curve(Path(self.curve_file))
        raise ManifestError(f"unknown curve kind {self.curve_kind!r}")

    def normalized_text(self) -> str:
        """Deterministic echo of every manifest key, for artifact reproducibility."""
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            lines += [f"{key}={getattr(self, _FIELDS[section, key][0])}" for key in keys]
        return "\n".join(lines) + "\n"


def load_manifest(path, seed: int | None = None, grid: int | None = None) -> Manifest:
    """The manifest at path, with the command line's seed and grid (all three grids)
    put over its own, validated once they are in place."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ManifestError(f"malformed manifest: {exc}") from exc
    if not read:
        raise ManifestError(f"manifest {path} not found or unreadable")
    m = Manifest()
    try:
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ManifestError(f"unknown manifest section [{section}]")
            for key, text in parser[section].items():
                if key not in _SCHEMA[section]:
                    raise ManifestError(f"unknown key {key!r} in section [{section}]")
                attr, parse = _FIELDS[section, key]
                setattr(m, attr, parse(text))
    except (ValueError, ArithmeticError) as exc:
        raise ManifestError(f"malformed manifest value: {exc}") from exc
    if seed is not None:
        m.seed = seed
    if grid is not None:
        m.fibers = m.vertical = m.bins = grid
    _validate(m)
    return m


def _validate(m: Manifest) -> None:
    if m.base_kind not in ("translation", "skew"):
        raise ManifestError(f"base kind {m.base_kind!r} not supported")
    if m.curve_kind not in ("constant", "tent", "file"):
        raise ManifestError(f"curve kind {m.curve_kind!r} not supported")
    if m.weights_mode != "quadratic":
        raise ManifestError(f"weights mode {m.weights_mode!r} not supported")
    if m.anchor != 0:
        raise ManifestError(f"anchor {m.anchor} not supported: pi is anchored at curve 0")
    for name, val in (("fibers", m.fibers), ("vertical", m.vertical), ("bins", m.bins)):
        if val < 16 or val > 2**20:
            raise ManifestError(f"grid {name}={val} out of range")
    for name, val, least in (("seed", m.seed, 0), ("crossings", m.crossings, 0),
                             ("burnin", m.burnin, 0), ("iters", m.iters, 1),
                             ("probe_points", m.probe_points, 1)):
        if val < least:
            raise ManifestError(f"{name} {val} out of range: it must be >= {least}")
    if not (0 < m.epsilon < 1):
        raise ManifestError("epsilon must lie in (0,1)")
    if m.cocycle_family not in ("constant", "rotation", "diagonal", "harper"):
        raise ManifestError(f"cocycle family {m.cocycle_family!r} not supported")
