"""Exception types shared across the package."""


class DDDError(Exception):
    """Base class for all package errors."""


class ConfigError(DDDError):
    """Invalid or malformed configuration input."""


class GeometryError(DDDError):
    """Degenerate or inadmissible network geometry."""


class NearSingularError(DDDError):
    """Acoustic tensor is (nearly) singular; Legendre-Hadamard likely violated."""


class NotIsotropicError(DDDError):
    """Operation requires an isotropic stiffness tensor."""


class SolverError(DDDError):
    """Velocity solve failed or produced an unusable mesh."""
