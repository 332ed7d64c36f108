"""Exception types shared across the package.

Every failure mode that a caller can sensibly branch on gets its own class;
all of them are ValueErrors so generic handling stays easy.
"""

from __future__ import annotations


class TangleSumError(ValueError):
    """Base class for all package-specific errors."""


class SizeLimitError(TangleSumError):
    """A size parameter is outside the supported range."""


class InvalidModulusError(TangleSumError):
    """A modulus that must be prime (or otherwise constrained) is not."""


class NotAGroupError(TangleSumError):
    """A Cayley table fails the group axioms; message carries a witness."""


class GroupMismatchError(TangleSumError):
    """Elements or tables from different groups were mixed."""


class NonComposableError(TangleSumError):
    """Categorical-group morphisms with target != source were composed."""


class XmodMismatchError(TangleSumError):
    """An operation received data over a different crossed module."""


class KernelNotCentralError(TangleSumError):
    """A claimed central extension has a non-central kernel."""


class NotSurjectiveError(TangleSumError):
    """A map that must be onto is not."""


class NotBijectiveError(TangleSumError):
    """A crossing transfer row (or other required bijection) is not bijective."""


class NotClosedError(TangleSumError):
    """A subset is not closed under the relevant operation."""


class MultiComponentError(TangleSumError):
    """A diagram operation that needs a single strand saw several components."""


class NonClosableError(TangleSumError):
    """A tangle cannot be closed with the requested closure."""


class EnhancementMismatchError(TangleSumError):
    """A boundary enhancement does not fit the diagram's boundary word."""


class DiagramError(TangleSumError):
    """Base class for sliced-diagram construction problems."""


class ParseError(DiagramError):
    """Malformed diagram text; message carries the line number."""


class WidthMismatchError(DiagramError):
    """A slice generator is placed outside the current strand range."""


class OrientationMismatchError(DiagramError):
    """A slice generator meets strand orientations it cannot accept."""


class IndexOutOfRangeError(DiagramError):
    """A braid letter refers to a strand that does not exist."""
