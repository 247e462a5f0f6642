from fractions import Fraction as F

import pytest

from qpflab.plgraph import CircIntervalSet, PLGraph


def test_constant_and_tent_evaluation():
    c = PLGraph.constant(F(1, 5))
    assert c.value(F(3, 7)) == F(1, 5)
    t = PLGraph.tent(F(1, 5), F(1, 10))
    assert t.value(F(1, 2)) == F(3, 10)
    assert t.value(F(1, 4)) == F(1, 5) + F(1, 20)
    assert t.value(F(3, 4)) == F(1, 5) + F(1, 20)
    # lift periodicity
    assert t.value(F(5, 4)) == t.value(F(1, 4))


def test_shift_and_add():
    t = PLGraph.tent(F(1, 5), F(1, 10))
    s = t.shift_theta(F(1, 3))
    for u in (F(0), F(1, 7), F(9, 11)):
        assert s.value(u) == t.value(u - F(1, 3))
    q = t.add_graph(PLGraph.constant(F(1, 2)))
    assert q.value(F(1, 4)) == t.value(F(1, 4)) + F(1, 2)


def test_canonical_removes_collinear():
    g = PLGraph.from_points([(0, F(0)), (F(1, 4), F(0)), (F(1, 2), F(0))])
    assert len(g.canonical().thetas) == 1


def test_splice_replaces_arc_exactly():
    c = PLGraph.constant(F(1, 5))
    path = [(F(1, 10), F(1, 5)), (F(3, 20), F(1, 4)), (F(2, 10), F(1, 5))]
    s = c.splice(F(1, 10), F(2, 10), path)
    assert s.value(F(3, 20)) == F(1, 4)
    assert s.value(F(1, 20)) == F(1, 5)
    assert s.value(F(3, 10)) == F(1, 5)
    with pytest.raises(ValueError):
        c.splice(F(1, 10), F(2, 10), [(F(1, 10), F(1, 3)), (F(2, 10), F(1, 5))])


def test_interval_set_normalization():
    s = CircIntervalSet.from_pieces([(F(1, 10), F(2, 10)), (F(2, 10), F(3, 10))])
    assert s.n_components() == 1
    assert s.measure() == F(2, 10)
    # wrap merge across the seam
    s2 = CircIntervalSet.from_pieces([(F(9, 10), F(1)), (F(0), F(1, 10))])
    assert s2.n_components() == 1
    assert s2.measure() == F(2, 10)
    assert s2.contains(F(19, 20)) and s2.contains(F(1, 20))
    # degenerate points absorbed by touching arcs
    s3 = CircIntervalSet.from_pieces([(F(1, 2), F(1, 2)), (F(1, 2), F(3, 5))])
    assert s3.n_components() == 1 and not s3.degenerate_components()


def test_interval_set_full_and_gap():
    assert CircIntervalSet.from_pieces([(F(0), F(1))]).is_full
    s = CircIntervalSet.from_pieces([(F(0), F(1, 4)), (F(1, 2), F(3, 4))])
    assert s.min_component_gap() == F(1, 4)
    cut = s.intersect_arc(F(1, 8), F(5, 8))
    assert cut.measure() == F(1, 8) + F(1, 8)


def test_shift_interval_set():
    s = CircIntervalSet.from_pieces([(F(9, 10), F(11, 10))])
    t = s.shift(F(1, 10))
    assert t.contains(F(1, 20)) and not t.contains(F(9, 10) - F(1, 100))
