"""Error taxonomy shared by all modules.

Every failure mode that a caller is expected to handle has its own class;
the CLI maps them onto the documented exit codes.
"""

from __future__ import annotations


class QpfLabError(Exception):
    """Base class for all package errors."""


class ConfigError(QpfLabError):
    """Invalid manifest / parameters (CLI exit 2)."""


class PreconditionError(QpfLabError):
    """An operation was invoked without its contract inputs (CLI exit 3)."""


class InvariantViolation(QpfLabError):
    """A verified invariant failed an audit (CLI exit 4)."""


class TimeoutError_(QpfLabError):
    """A bounded search ran out of budget (CLI exit 5)."""


# -- curves / surgery ------------------------------------------------------

class EscapeTimeout(TimeoutError_):
    """The first-return orbit of a point did not terminate within the horizon."""


class IntervalTooWide(PreconditionError):
    """An interval has no well-defined itinerary; bisect and retry."""


class BoxNotFound(QpfLabError):
    """Perturbation-box bisection hit the resolution floor."""


class LambdaNotFound(QpfLabError):
    """No dyadic split point separates the graph copies as the surgery requires."""


class SurgeryStalled(InvariantViolation):
    """A flattening sweep failed to reduce the isolated-point count."""


class OrbitSearchTimeout(TimeoutError_):
    """No orbit segment landed in the target box within the iteration bound."""


# -- blowup ----------------------------------------------------------------

class WeightsInvalid(ConfigError):
    """A weight-scheme inequality is violated; the message names it."""


class LiftAmbiguous(QpfLabError):
    """A measure lift could not be resolved from the overlap side data."""


class NotSameMeasure(QpfLabError):
    """Two projections do not transport the same fiber measures."""


class AtlasInvariantViolation(InvariantViolation):
    """A partition-atlas invariant failed; message carries fiber and index."""


class CoverFailure(QpfLabError):
    """The compact-shrinking cover cannot reach the requested mass fraction."""


class BumpBoundViolation(InvariantViolation):
    """A bump function violated its support or integral bounds."""


class DensityNonpositive(InvariantViolation):
    """The transported density lost positivity."""


class EtaNotInvertible(QpfLabError):
    """The fiberwise mass coordinate is not invertible (atom upstream)."""


class DegenerateTriple(PreconditionError):
    """A projective triple is repeated or not strictly cyclically ordered."""


class ManifestError(ConfigError):
    """Malformed or unknown manifest content."""
