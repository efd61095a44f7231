"""Exception types shared across the package."""


class ConicEmbedError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ConicEmbedError):
    """Operands or file contents have incompatible shapes."""


class NotSymmetric(ConicEmbedError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class NotFinite(ConicEmbedError):
    """Matrix or vector data holds a NaN or an infinite entry."""


class EighConvergenceError(ConicEmbedError):
    """Jacobi sweeps exhausted before the off-diagonal dropped below threshold."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = float(residual)
        self.sweeps = int(sweeps)
        super().__init__(
            f"eigendecomposition did not converge in {sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e})"
        )


class NotArrowHead(ConicEmbedError):
    """Matrix is not arrow-head structured within tolerance."""

    def __init__(self, violation: float, where: str = ""):
        self.violation = float(violation)
        detail = f" at {where}" if where else ""
        super().__init__(
            f"matrix deviates from arrow-head structure by {violation:.3e}{detail}"
        )


class OutsideCone(ConicEmbedError):
    """Vector lies outside the second-order cone beyond tolerance."""


class NotInterior(ConicEmbedError):
    """Operation requires a cone-interior vector."""


class BadSubset(ConicEmbedError):
    """Rank-k subset is inconsistent with the requested rank or dimension."""


class EpsilonInvalid(ConicEmbedError):
    """No valid full-rank split found after exhausting epsilon halvings."""


class NotPSD(ConicEmbedError):
    """Matrix expected positive semidefinite is indefinite beyond tolerance."""


class NotComplementary(ConicEmbedError):
    """Matrix pair expected complementary has trace inner product above tolerance."""


class InconsistentPair(ConicEmbedError):
    """Cone vector pair violates complementarity or position constraints."""


class LabelMismatch(ConicEmbedError):
    """Supplied partition label is impossible for the given block data."""


class InconsistentDual(ConicEmbedError):
    """Slack recovered from the matrix block disagrees with c - A^T v."""


class TemplateViolation(ConicEmbedError):
    """Slack matrix does not follow the structured template within tolerance."""


class ProvenanceMismatch(ConicEmbedError):
    """Embedded problem does not match the cone problem it supposedly came from."""


class MissingSolutionPart(ConicEmbedError):
    """Operation needs a solution component that is absent."""


class GenerationError(ConicEmbedError):
    """Random instance generation could not satisfy the request."""


class ParseError(ConicEmbedError):
    """Problem or solution file is malformed."""
