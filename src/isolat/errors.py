"""Exception types shared across the package.

Every error carries a short machine-readable code (used by the CLI error
records) and an optional input path for schema/validation failures.
"""


class IsolatError(Exception):
    code = "error"

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


class GroupTooLarge(IsolatError):
    """A finite rotation group would exceed the element cap."""

    code = "group-too-large"


class UnclassifiableGroup(IsolatError):
    """Finite rotation set does not match any catalog axis profile."""

    code = "unclassifiable-group"


class NotSubconjugate(IsolatError):
    code = "not-subconjugate"


class NoUniqueMinimum(IsolatError):
    code = "no-unique-minimum"


class ClassNotInLattice(IsolatError):
    code = "class-not-in-lattice"


class NotRealizableInG(IsolatError):
    """A declared class is not a subgroup class of the ambient group."""

    code = "not-realizable"


class NotTotallyIsotropic(IsolatError):
    code = "not-totally-isotropic"


class NotTangent(IsolatError):
    code = "not-tangent"


class SchemaError(IsolatError):
    code = "schema"


class ValidationError(IsolatError):
    code = "validation"
