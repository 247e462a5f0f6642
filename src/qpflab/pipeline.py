"""End-to-end blowup pipeline: curve prep, measure, atlas, density, transport.

A pipeline run holds every stage as an immutable snapshot, each built from
the stage below it alone, so audits and reports can be generated repeatedly
without recomputation; the audits take their grids from the caller.  It
builds one measure family, mu; the semiconjugacy audit pushes mu forward by
R itself.  Crossing insertions, when requested, happen before the final
flattening pass and are re-verified on the finished curve; each witness
records in `verified` whether its crossing survived.  Every reader of the
blown-up map, the non-minimality probes included, reads the exact
transported map `tmap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .atlas import PartitionAtlas
from .density import DensityField
from .errors import PreconditionError
from .geometry import OrbitIntersections, crosses_over, image_curve
from .measure import MeasureFamily, Projection, build_mu, build_pi
from .plgraph import PLGraph
from .surgery import CrossingWitness, ensure_crossing, flatten_to_depth
from .systems import MAX_DEPTH, QpfSystem
from .transport import TransportedMap, build_f
from .weights import WeightScheme, make_weights


@dataclass(eq=False)
class BlowupPipeline:
    """The stages of one run: mu, then pi anchored at curve 0, the atlas, the density
    (with its bumps) and f, which carries the blown-up Gamma_0 onto the blown-up Gamma_1."""

    system: QpfSystem
    curve: PLGraph
    weights: WeightScheme
    family: dict                      # n -> PLGraph for n in [-N, N+1]; N+1 only for curves.svg
    witnesses: list
    mu: MeasureFamily
    projection: Projection
    atlas: PartitionAtlas
    density: DensityField
    tmap: TransportedMap


def prepare_curve(system: QpfSystem, curve: PLGraph, depth: int,
                  crossings: int = 0, seed: int = 0):
    """Flatten to the requested depth, optionally inserting certified crossings."""
    witnesses: list[CrossingWitness] = []
    cur, cert = flatten_to_depth(system, curve, depth)
    if crossings:
        rng = np.random.default_rng(seed)
        for _ in range(crossings):
            width_i = 0.15 + 0.15 * rng.random()
            width_j = 0.15 + 0.15 * rng.random()
            ilo = Fraction(int(rng.integers(0, 10**6)), 10**6)
            jlo = Fraction(int(rng.integers(0, 10**6)), 10**6)
            arc_i = (ilo, ilo + Fraction(int(width_i * 10**6), 10**6))
            arc_j = (jlo, jlo + Fraction(int(width_j * 10**6), 10**6))
            cur, wit = ensure_crossing(system, cur, arc_i, arc_j, depth)
            witnesses.append(wit)
        cur, cert = flatten_to_depth(system, cur, depth)
        for wit in witnesses:
            wit.verified = crosses_over(
                cur, image_curve(system, cur, wit.m, check_depth=False), wit.arc_exact)
    return cur, cert, witnesses


def run_blowup(system: QpfSystem, curve: PLGraph, weights: WeightScheme,
               crossings: int = 0, seed: int = 0,
               flatten: bool = True, waive_flatness: bool = False) -> BlowupPipeline:
    """The blowup stack of the curve, with the shrinking epsilon of the weight scheme."""
    n = weights.half_width
    depth = 2 * n + 1
    if 2 * depth + 1 > MAX_DEPTH:
        raise PreconditionError("weight window too deep for the configured max depth")
    cert = None
    witnesses: list = []
    cur = curve
    if flatten:
        cur, cert, witnesses = prepare_curve(system, curve, depth, crossings=crossings, seed=seed)
    # the flattening's table already holds X_1..X_depth of this curve
    table = cert.table if cert and cert.table else OrbitIntersections(system, cur)
    family = {m: table.image(m) for m in range(-n, n + 2)}
    window = {m: family[m] for m in range(-n, n + 1)}
    mu = build_mu(window, weights=weights, waive_flatness=waive_flatness, table=table)
    projection = build_pi(mu)
    atlas = PartitionAtlas(projection, weights.epsilon)
    density = DensityField(weights, atlas)
    tmap = build_f(system, density, projection)
    return BlowupPipeline(system=system, curve=cur, weights=weights, family=family,
                          witnesses=witnesses, mu=mu, projection=projection, atlas=atlas,
                          density=density, tmap=tmap)


def default_pipeline(half_width: int = 8, k: int = 4, epsilon=Fraction(1, 2),
                     curve_value=Fraction(1, 5), crossings: int = 0,
                     seed: int = 0) -> BlowupPipeline:
    """The spec-default run: minimal translation base, constant initial curve."""
    system = QpfSystem.translation()
    weights = make_weights(k=k, half_width=half_width, epsilon=epsilon)
    curve = PLGraph.constant(curve_value)
    return run_blowup(system, curve, weights, crossings=crossings, seed=seed)
