from fractions import Fraction as F

import pytest

from qpflab.atlas import audit_atlas, build_partition_atlas
from qpflab.errors import CoverFailure
from qpflab.measure import build_mu, build_pi
from qpflab.plgraph import PLGraph


def overlap_pair():
    """Two curves with exact crossing-style flat overlaps at value 1/2."""
    g1 = PLGraph.constant(F(1, 2))
    g2 = PLGraph.from_points([
        (0, F(3, 10)), (F(1, 10), F(1, 2)), (F(2, 10), F(1, 2)),
        (F(3, 10), F(13, 20)), (F(6, 10), F(1, 2)), (F(7, 10), F(1, 2)),
        (F(8, 10), F(3, 10)),
    ])
    return g1, g2


def test_single_curve_annulus():
    mu = build_mu({0: PLGraph.constant(F(1, 5))}, masses={0: F(1, 4)}, beta=F(3, 4))
    pi = build_pi(mu, 0)
    atlas = build_partition_atlas(mu, pi, F(1, 2))
    fa = atlas.fiber(F(1, 3))
    assert fa.u[0] == ((F(0), F(1, 4)),)  # interior of the annulus T x [0, a_0]
    audit_atlas(atlas, 32)


def test_two_disjoint_constants():
    mu = build_mu({0: PLGraph.constant(F(1, 10)), 1: PLGraph.constant(F(6, 10))},
                  masses={0: F(1, 5), 1: F(1, 10)}, beta=F(7, 10))
    atlas = build_partition_atlas(mu, build_pi(mu, 0), F(1, 2))
    fa = atlas.fiber(F(2, 7))
    assert len(fa.u[0]) == 1 and len(fa.u[1]) == 1
    assert fa.u_width(0) == F(1, 5) and fa.u_width(1) == F(1, 10)
    audit_atlas(atlas, 32)


def test_overlap_pair_components_and_widths():
    g1, g2 = overlap_pair()
    mu = build_mu({0: g1, 1: g2}, masses={0: F(1, 4), 1: F(1, 8)}, beta=F(5, 8))
    atlas = build_partition_atlas(mu, build_pi(mu, 0), F(1, 2))
    audit_atlas(atlas, 64)
    hist = {}
    for g in range(400):
        fa = atlas.fiber(F(g, 400))
        assert fa.u_width(1) == F(1, 8)
        hist[len(fa.u[1])] = hist.get(len(fa.u[1]), 0) + 1
    # on overlap-interior fibers the later curve is punctured by the earlier one
    assert set(hist) == {1, 2}
    assert hist[2] > 0
    # bound 2|n|+1 always holds
    assert max(hist) <= 3


def test_allocation_continuity_across_overlap_edge():
    from qpflab.plgraph import CircIntervalSet

    g1, g2 = overlap_pair()
    mu = build_mu({0: g1, 1: g2}, masses={0: F(1, 4), 1: F(1, 8)}, beta=F(5, 8))
    atlas = build_partition_atlas(mu, build_pi(mu, 0), F(1, 2))
    # just inside vs just outside the overlap endpoint 1/10 the allocations
    # agree up to a vanishing sliver (continuity of the collapsing recursion)
    eps = F(1, 10**6)
    inside = atlas.fiber(F(1, 10) + eps)
    outside = atlas.fiber(F(1, 10) - eps)
    from qpflab.circle import mod1
    for n in (0, 1):
        a = CircIntervalSet.from_pieces([(mod1(lo), mod1(lo) + (hi - lo))
                                         for lo, hi in inside.u[n]])
        b = CircIntervalSet.from_pieces([(mod1(lo), mod1(lo) + (hi - lo))
                                         for lo, hi in outside.u[n]])
        common = sum((x.intersect_arc(lo, hi).measure()
                      for x in (a,) for lo, hi in b.pieces), F(0))
        sym_diff = a.measure() + b.measure() - 2 * common
        assert sym_diff < F(1, 1000)


def test_shrink_and_cover_failure(small4):
    atlas = small4.atlas
    with pytest.raises(CoverFailure):
        build_partition_atlas(atlas.mu, atlas.projection, 0)
    for g in range(small4.fiber_grid):
        fa = atlas.fiber(F(g, small4.fiber_grid))
        for n in atlas.order:
            assert fa.v_width(n) >= (1 - atlas.epsilon) * atlas.mu.masses[n]


def test_default_pipeline_atlas_audit(small4):
    audit = audit_atlas(small4.atlas, 128)
    assert audit.passed
    assert max(audit.max_components.values()) == 1  # disjoint constant family
    assert audit.min_v_fraction >= 0.5 - 1e-12
