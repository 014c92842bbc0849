"""Exception hierarchy shared across the toolkit.

Every class derives from one of three families, which set the CLI exit
codes: ValidationError (bad input data, meshes included, or configuration,
exit 2), NumericalError (a solver or the training loop failed, exit 3) and
CacheError (a corrupt cache file or checkpoint, exit 4). The CLI also exits 2
on ValueError (used for simple scalar-argument violations) and IndexError,
and 4 on OSError, as on an unwritable cache. A missing cache file is built.
"""


class ValidationError(Exception):
    """Input data or configuration violates a documented precondition."""


class NumericalError(Exception):
    """A numerical routine failed to produce a usable result."""


class CacheError(Exception):
    """A cache or container file is unreadable."""


# --- mesh ---------------------------------------------------------------

class ParseError(ValidationError):
    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ("" if path is None else
                 f"{path}: " if line is None else f"{path}:{line}: ")
        super().__init__(f"{where}{message}")


class NonTriangleFace(ValidationError):
    pass


class NonManifoldEdge(ValidationError):
    pass


class InconsistentOrientation(ValidationError):
    pass


class DegenerateTriangle(ValidationError):
    pass


class IsolatedVertex(ValidationError):
    pass


# --- operators / spectrum ------------------------------------------------

class FrameMeshMismatch(ValidationError):
    pass


class KTooLarge(ValidationError):
    pass


class FactorizationFailed(NumericalError):
    pass


class NotConverged(NumericalError):
    def __init__(self, message, residuals=None):
        self.residuals = residuals
        super().__init__(message)


# --- wavelets -------------------------------------------------------------

class SpectrumMismatch(ValidationError):
    pass


class ZeroColumnNorm(NumericalError):
    pass


# --- network ---------------------------------------------------------------

class SingleVertexShape(ValidationError):
    pass


class EmptyDataset(ValidationError):
    pass


class NonFiniteLoss(NumericalError):
    pass


# --- correspondence ---------------------------------------------------------

class DisconnectedMesh(ValidationError):
    def __init__(self, message, unreachable=None):
        self.unreachable = unreachable
        super().__init__(message)


class NonFiniteDescriptor(NumericalError):
    pass


# --- synthetic data ----------------------------------------------------------

class MagnitudeOutOfRange(ValidationError):
    pass


class ResolutionTooSmall(ValidationError):
    pass


class ConfigInvalid(ValidationError):
    pass


class ManifestInvalid(ValidationError):
    pass


# --- cli / caching -------------------------------------------------------------

class CorruptCache(CacheError):
    pass
