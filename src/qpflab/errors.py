"""Error taxonomy shared by all modules.

Every failure mode that a caller is expected to handle has its own class.
A class carries the CLI's exit code and stderr prefix for it; subclasses
inherit them from the kind of failure they are.
"""

from __future__ import annotations


class QpfLabError(Exception):
    """Base class for all package errors: a failed search or construction."""
    exit_code, prefix = 4, "error:"


class ConfigError(QpfLabError):
    """Invalid manifest / parameters."""
    exit_code, prefix = 2, "config error:"


class PreconditionError(QpfLabError):
    """An operation was invoked without its contract inputs."""
    exit_code, prefix = 3, "precondition failed:"


class InvariantViolation(QpfLabError):
    """A verified invariant failed an audit."""
    exit_code, prefix = 4, "invariant violation:"


class TimeoutError_(QpfLabError):
    """A bounded search ran out of budget."""
    exit_code, prefix = 5, "timeout:"


# -- curves / surgery ------------------------------------------------------

class EscapeTimeout(TimeoutError_):
    """The first-return orbit of a point did not terminate within the horizon."""


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


class ManifestError(ConfigError):
    """Malformed or unknown manifest content."""


# -- forked branches ---------------------------------------------------------

class BranchLost(QpfLabError):
    """A forked branch (analyze's minimal set, or the second half of an orbit)
    ended without sending its result (a signal, or out of memory)."""
