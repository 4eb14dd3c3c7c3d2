"""Exception types shared across the package."""


class ChromarankError(Exception):
    """Base class for all package errors."""


class InvalidPermutation(ChromarankError, ValueError):
    """Image sequence does not describe a bijection of {0, ..., d-1}."""


class DegreeMismatch(ChromarankError, ValueError):
    """Operands act on different point sets."""


class NotInGroup(ChromarankError, ValueError):
    """A permutation expected to lie in a group does not."""


class ThresholdExceeded(ChromarankError):
    """Desk-scale exceeded: an operation would enumerate past the order limit."""


class HeightExceeded(ChromarankError):
    """Requested tuple height lies above chromatic.DEFAULT_MAX_HEIGHT."""


class ParseError(ChromarankError, ValueError):
    """Malformed expression or generator file; carries a byte offset when known."""

    def __init__(self, message, offset=None, line=None):
        self.offset = offset
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif offset is not None:
            where = f" (offset {offset})"
        super().__init__(message + where)


class ConsistencyError(ChromarankError):
    """Registry contradiction: matching fingerprints with incompatible claims."""
