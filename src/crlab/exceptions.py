"""Exception types raised by crlab operations."""


class CRLabError(Exception):
    """Base class for all crlab errors."""


class CoefficientError(CRLabError):
    """Coefficient data fails validation (non-symmetric, non-periodic, NaN)."""


class ResolutionError(CRLabError):
    """Grid or mode resolution too small for the requested computation."""


class FredholmWeightError(CRLabError):
    """A weight exponent collides with the asymptotic spectrum."""


class DegenerateEndError(CRLabError):
    """An asymptotic operator required to be nondegenerate has a zero eigenvalue."""


class AssemblyError(CRLabError):
    """Discrete operator assembly failed an internal consistency check."""


class NumericalError(CRLabError):
    """A dense linear-algebra kernel (eigensolver, SVD) failed."""


class InstabilityError(CRLabError):
    """Computed index failed to stabilize under grid refinement."""


class IncompatibleEndsError(CRLabError):
    """Two problems cannot be glued because their shared-end data disagree."""


class GraphError(CRLabError):
    """A configuration graph violates its structural invariants."""


class ConfigError(CRLabError):
    """An experiment configuration is malformed."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


def refuse_unknown_keys(d, allowed, error, what):
    """Raise ``error`` naming every key of the mapping ``d`` outside ``allowed``."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise error(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}")
