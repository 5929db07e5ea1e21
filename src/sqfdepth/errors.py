"""Exception types shared across the package.

The errors that mean a bad argument or bad input (malformed text, an index,
count or parameter out of range, a space above a cap, a non-tree) also
subclass ``ValueError``, and the CLI exits 2 on every ``ValueError``.
``ZeroIdeal`` and ``DegenerateSample`` do not: the input was well formed
but the quantity asked for does not exist, and the CLI exits 1.
"""


class SqfdepthError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGenerator(SqfdepthError, ValueError):
    """A generator is constant, or a variable index is out of range."""


class AmbientMismatch(SqfdepthError, ValueError):
    """Operands live in polynomial rings with different variable counts."""


class InvalidExponent(SqfdepthError, ValueError):
    """Squarefree power requested with exponent < 1."""


class ZeroIdeal(SqfdepthError):
    """Operation undefined for the zero ideal."""


class NotATree(SqfdepthError, ValueError):
    """The tree depth formula was applied to a graph that is not a tree."""


class InvalidFamilyParameter(SqfdepthError, ValueError):
    """Counterexample family requires n >= 6."""


class DegenerateSample(SqfdepthError):
    """Random sampling kept producing the zero ideal."""


class SpaceTooLarge(SqfdepthError, ValueError):
    """An enumeration was requested on a space above its cap: an exhaustive
    search space, or the representatives, survivors or complex of a Betti walk."""


class ParseError(SqfdepthError, ValueError):
    """Malformed ideal or graph text input."""
