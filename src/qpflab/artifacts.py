"""Artifact writers and readers: deterministic, timestamp-free formats.

- curves: text lines 'theta_num/theta_den value_num/value_den', sorted
- certificates / reports: JSON lines with sorted keys
- per-fiber CDF tables: little-endian binary (u64 fiber count, u64 knot
  count, then per fiber knot positions then CDF values, float64)
- residuals: CSV
- fiber sets: run-length-encoded text rows
- optional SVG: hand-rolled polylines and bands (no library, byte-stable)
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from .chamber import grid_pass
from .errors import InvariantViolation
from .plgraph import PLGraph

# the side of every SVG image, in pixels
SVG_SIZE = 640


def write_curve(path: Path, graph: PLGraph) -> None:
    lines = [f"{t.numerator}/{t.denominator} {v.numerator}/{v.denominator}"
             for t, v in zip(graph.thetas, graph.values)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def read_curve(path: Path) -> PLGraph:
    pts = []
    for line in path.read_text(encoding="ascii").splitlines():
        if not line.strip():
            continue
        tpart, vpart = line.split()
        tn, td = tpart.split("/")
        vn, vd = vpart.split("/")
        pts.append((Fraction(int(tn), int(td)), Fraction(int(vn), int(vd))))
    return PLGraph.from_points(pts)


def write_jsonl(path: Path, records) -> None:
    """One line per record: json.dumps(rec, sort_keys=True, allow_nan=False), or rec
    itself when it is a str, a line its writer has already encoded so."""
    with path.open("w", encoding="ascii") as fh:
        for rec in records:
            line = rec if isinstance(rec, str) else json.dumps(rec, sort_keys=True, allow_nan=False)
            fh.write(line + "\n")


def write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_cdf_tables(path: Path, knots: np.ndarray, fibers: int, values) -> None:
    """fiber count, knot count (u64 LE), then per fiber: knots, cdf values (f64 LE).

    Every fiber shares the one row of knots, encoded once.  values is any
    iterable of one row per fiber, each the row's knot-count values as
    little-endian float64 bytes, written as it is consumed.  A row of
    another length, or another number of rows than fibers, raises
    InvariantViolation.  A write that raises, here or in values, removes
    the file, so no table with a header that promises more rows than it
    holds is left behind.
    """
    head = knots.astype("<f8").tobytes()
    written = 0
    try:
        with path.open("wb") as fh:
            fh.write(struct.pack("<QQ", fibers, len(knots)))
            for row in values:
                if written == fibers or len(row) != len(head):
                    raise InvariantViolation(f"{path.name}: row {written} has {len(row)} bytes "
                                             f"where {fibers} rows of {len(head)} are due")
                fh.write(head)
                fh.write(row)
                written += 1
        if written != fibers:
            raise InvariantViolation(f"{path.name}: {written} rows for {fibers} fibers")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def read_cdf_tables(path: Path):
    raw = path.read_bytes()
    fibers, nk = struct.unpack_from("<QQ", raw, 0)
    body = np.frombuffer(raw, dtype="<f8", offset=16).reshape(fibers, 2, nk)
    return body[:, 0, :], body[:, 1, :]


def write_rle(path: Path, lines, resolution: int) -> None:
    with path.open("w", encoding="ascii") as fh:
        fh.write(f"# resolution={resolution}\n")
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# minimal SVG emission
# ---------------------------------------------------------------------------


def svg_document(width: int, height: int, elements) -> str:
    body = "\n".join(elements)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n{body}\n</svg>\n')


def svg_polyline(points, color: str) -> str:
    pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.0" points="{pts}"/>'


def svg_rect(x, y, w, h, color: str, opacity: float = 1.0) -> str:
    return (f'<rect x="{x:.3f}" y="{y:.3f}" width="{w:.3f}" height="{h:.3f}" '
            f'fill="{color}" fill-opacity="{opacity:.3f}"/>')


def curve_svg(graphs) -> str:
    """Plot circle graphs (wrap-split polylines)."""
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    elements = [svg_rect(0, 0, SVG_SIZE, SVG_SIZE, "#ffffff")]
    for gi, graph in enumerate(graphs):
        color = colors[gi % len(colors)]
        ts = np.linspace(0.0, 1.0, 512)
        vals = np.array([float(graph.circle_value(Fraction(t).limit_denominator(10**9)))
                         for t in ts])
        segment = []
        for t, v in zip(ts, vals):
            if segment and abs(v - segment[-1][1]) > 0.5:
                elements.append(svg_polyline(
                    [(x * SVG_SIZE, (1 - y) * SVG_SIZE) for x, y in segment], color))
                segment = []
            segment.append((t, v))
        if segment:
            elements.append(svg_polyline(
                [(x * SVG_SIZE, (1 - y) * SVG_SIZE) for x, y in segment], color))
    return svg_document(SVG_SIZE, SVG_SIZE, elements)


def atlas_svg(atlas, grid: int) -> str:
    """Raster bands of the atlas allocations across fibers, one column per grid fiber."""
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    elements = [svg_rect(0, 0, SVG_SIZE, SVG_SIZE, "#ffffff")]
    cell = SVG_SIZE / grid
    for g, fa in enumerate(grid_pass(grid, [(atlas.chambers, 0)], atlas.fiber)):
        for ni, n in enumerate(atlas.order):
            color = colors[ni % len(colors)]
            for lo, hi in fa.u[n]:
                lo_f = float(lo) % 1.0
                h = float(hi - lo)
                elements.append(svg_rect(g * cell, (1 - lo_f - h) * SVG_SIZE, cell,
                                         h * SVG_SIZE, color, 0.8))
    return svg_document(SVG_SIZE, SVG_SIZE, elements)


def fiberset_svg(fs) -> str:
    """Raster strips of a binned fiber set (downsampled to the image size)."""
    n = fs.resolution
    step = max(1, n // SVG_SIZE)
    reduced = fs.bins[::step, ::step]
    elements = [svg_rect(0, 0, SVG_SIZE, SVG_SIZE, "#ffffff")]
    cell = SVG_SIZE / reduced.shape[0]
    for i, j in np.argwhere(reduced):
        elements.append(svg_rect(i * cell, SVG_SIZE - (j + 1) * cell, cell, cell, "#222222"))
    return svg_document(SVG_SIZE, SVG_SIZE, elements)
