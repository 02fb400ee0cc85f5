"""Exception types shared across the package."""


class QmapError(Exception):
    """Base class for all package-specific errors."""


class TruncationError(QmapError):
    """An operation needed a moment beyond the tracked effective order."""


class RegularityError(QmapError):
    """A functional failed a regularity (quasi-definiteness) requirement."""


class MappingConditionError(QmapError):
    """Block data does not satisfy the polynomial-mapping conditions."""


class SingularCaseError(QmapError):
    """A case fixture hit a singular parameter configuration."""


class CaseError(QmapError):
    """A full-pipeline case build failed; message names the stage.

    ``failures`` holds the bare validation failures when the fixture itself
    is invalid at the given q, and is empty for a failure in a later stage.
    """

    def __init__(self, message: str, failures: tuple[str, ...] = ()):
        super().__init__(message)
        self.failures = failures
