"""Exception types shared across the package, and the memo that keeps refusals."""

from functools import lru_cache, wraps

# a projected size is exact below 2^PROJECTED_BITS; above, its log2 stands in
# for it, so that a refusal prints and serializes in bounded time and space
PROJECTED_BITS = 1024


def projected_size(log2: float, exact):
    """``exact()`` when ``log2`` is under ``PROJECTED_BITS``, else "2^x" with x
    the size's float log2 to one decimal."""
    return exact() if log2 < PROJECTED_BITS else f"2^{log2:.1f}"


class FdsrankError(Exception):
    """Base class for all package errors."""


class SizeLimitExceeded(FdsrankError):
    """An exact computation was refused because it exceeds a configured guard.

    The ``projected`` attribute carries the size that triggered the refusal
    (function count, state count, vertex count, ... depending on the guard),
    in the bounded form of :func:`projected_size` where it can be huge.
    """

    def __init__(self, message, projected=None):
        super().__init__(message)
        self.projected = projected


def memo(maxsize: int):
    """``lru_cache`` that keeps a guard's refusal too: a call refused once
    raises an equal ``SizeLimitExceeded`` (same message, same ``projected``)
    again without recomputing. ``__wrapped__`` is the uncached function."""
    def decorate(fn):
        @lru_cache(maxsize=maxsize)
        def outcome(*args):
            try:
                return fn(*args), None
            except SizeLimitExceeded as exc:
                return None, (str(exc), exc.projected)

        @wraps(fn)
        def cached(*args):
            value, refusal = outcome(*args)
            if refusal is not None:
                raise SizeLimitExceeded(*refusal)
            return value

        cached.cache_info, cached.cache_clear = outcome.cache_info, outcome.cache_clear
        cached.cache_parameters = outcome.cache_parameters
        return cached
    return decorate


class GraphFormatError(FdsrankError):
    """A graph or system text file could not be parsed.

    ``line`` is the 1-based line number of the offending input line.
    """

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class LoopsPresent(FdsrankError):
    """Operation requires a loopless digraph."""


class NotStronglyConnected(FdsrankError):
    """Operation requires a strongly connected digraph."""


class ShapeMismatch(FdsrankError):
    """System definition has inconsistent dimensions or invalid vertex ids."""


class ValueOutOfRange(FdsrankError):
    """A table entry or state coordinate lies outside the alphabet."""


class AlphabetTooSmall(FdsrankError):
    """Construction needs a larger alphabet than the one supplied."""


class EvenN(FdsrankError):
    """Construction is defined for odd satellite counts only."""


class BadPacking(FdsrankError):
    """Supplied cycle family is not a disjoint cover of the vertex set."""


class InconsistentBounds(FdsrankError):
    """A computed lower bound exceeded a computed upper bound."""


class IntegrityError(FdsrankError):
    """A result contradicts an identity it must satisfy: a bug, not bad input.

    Raised by the internal cross-checks (histogram totals against the family
    size, two computations of one value), which stay on under ``python -O``.
    """
