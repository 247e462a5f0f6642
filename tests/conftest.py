"""Shared fixtures: pipelines are expensive, so they are session-scoped."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qpflab.pipeline import default_pipeline


@pytest.fixture(scope="session")
def plain8():
    """Spec-default pipeline: N=8, k=4, eps=1/2, constant curve."""
    return default_pipeline(half_width=8)


@pytest.fixture(scope="session")
def plain4():
    return default_pipeline(half_width=4)


@pytest.fixture(scope="session")
def plain16():
    return default_pipeline(half_width=16)


@pytest.fixture(scope="session")
def crossed4():
    """N=4 pipeline with two certified crossings inserted before flattening."""
    return default_pipeline(half_width=4, crossings=2, seed=5)


@pytest.fixture(scope="session")
def small4(plain4):
    """The N=4 stack of the module-level checks: the audits take their own grids, so it is plain4."""
    return plain4
