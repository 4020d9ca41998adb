"""Exception hierarchy for polyface.

Every error the library raises deliberately derives from PolyfaceError, so
callers can catch one base class at API boundaries (the CLI does exactly
that and turns failures into nonzero exit codes).
"""


class PolyfaceError(Exception):
    """Base class for all polyface errors."""


class MixedDimensionsError(PolyfaceError):
    """Vectors or points of different dimensions were mixed in one call."""


class ZeroVectorError(PolyfaceError):
    """A nonzero vector was required (direction, hyperplane normal)."""


class EmptyInputError(PolyfaceError):
    """An operation that needs at least one point received none."""


class TooLargeError(PolyfaceError):
    """Input exceeds the documented desk-scale guard for an operation."""


class EulerViolationError(PolyfaceError):
    """An f-vector failed the Euler relation, or a lattice's 0-faces are
    not its atoms; signals an upstream bug."""


class NotAFaceError(PolyfaceError):
    """A vertex set does not describe a (suitable) face of the polytope."""


class BadInputError(PolyfaceError):
    """A polytope input file is unreadable or is not polytope JSON."""


class BadOutputError(PolyfaceError):
    """An --out path cannot be opened for writing."""


class BadSpecError(PolyfaceError):
    """A family specification or a command line is malformed or
    unsupported."""


class OutOfRangeError(PolyfaceError):
    """An index or parameter is outside its documented range."""


class BoundViolationError(PolyfaceError):
    """A proved inequality failed on a concrete polytope: a toolkit bug,
    never a genuine counterexample.  The message carries a JSON dump of
    the offending instance."""


class UnsupportedDimensionError(PolyfaceError):
    """Closed-form angle evaluation requested above dimension 3."""


class GeneralPositionError(PolyfaceError):
    """A direction is not in general position for the requested operation."""


class ZeroDotProductError(GeneralPositionError):
    """A direction is orthogonal to a facet normal: not in general position."""


class DimensionTooLowError(PolyfaceError):
    """Shadow-diagram construction needs a polytope of dimension >= 2."""


class GramViolationError(PolyfaceError):
    """A sampled direction broke Gram's relation: the faces whose tangent
    cones hold it must have alternating dimension sum zero, so a violation
    means a wrong cone or a floating-point tie, never noise."""
