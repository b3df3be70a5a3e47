"""Exception types shared across the toolkit."""


class GentileError(Exception):
    """Base class for all toolkit errors."""


class OutOfRange(GentileError):
    pass


class ParseError(GentileError):
    """Raised on malformed expression input.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected one of: {', '.join(sorted(expected))})"
                            if expected else ""))
        self.offset = offset
        self.expected = frozenset(expected)


class DegenerateNodes(GentileError):
    """Interpolation nodes closer than the distinctness threshold.

    ``pair`` holds the colliding state indices (nu, nu_prime).
    """

    def __init__(self, pair, separation):
        super().__init__(
            f"interpolation nodes for states {pair[0]} and {pair[1]} "
            f"coincide (separation {separation:.3e})")
        self.pair = pair
        self.separation = separation


class GateFailed(GentileError):
    """A gate failed: ``GateFailed(contract, detail)``, where ``contract``
    names the gate.  ``main`` writes the two as the JSON diagnostic and
    exits 2."""
