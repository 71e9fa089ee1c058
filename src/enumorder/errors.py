"""Exception types shared across the package.

Each error's message names the offending datum.  Only the data some caller
reads are kept as attributes: `value` on DuplicateValue, ValueAbsent and
InsufficientPrefix, and ChainInvariantViolated's `index`.
"""


class EnumOrderError(ValueError):
    """Base class for all domain errors."""


class DuplicateValue(EnumOrderError):
    def __init__(self, value: int):
        self.value = value
        super().__init__(f"duplicate value in prefix: {value}")


class ZeroValue(EnumOrderError):
    def __init__(self):
        super().__init__("prefix values must be >= 1")


class LengthMismatch(EnumOrderError):
    def __init__(self, left: int, right: int):
        super().__init__(f"prefix lengths differ: {left} != {right}")


class ValueAbsent(EnumOrderError):
    def __init__(self, value: int):
        self.value = value
        super().__init__(f"value not enumerated in prefix: {value}")


class ValueSetMismatch(EnumOrderError):
    pass


class ChainInvariantViolated(EnumOrderError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"chain not descending at step {index}: "
            f"listing {index + 1} is not reducible to listing {index}"
        )


class PreconditionViolated(EnumOrderError):
    pass


class BadPattern(EnumOrderError):
    pass


class BadExtra(EnumOrderError):
    pass


class InvalidPairing(EnumOrderError):
    pass


class InsufficientPrefix(EnumOrderError):
    def __init__(self, value: int):
        self.value = value
        super().__init__(f"prefix too short to resolve value {value}")


class BadBound(EnumOrderError):
    def __init__(self, bound: int, n: int):
        super().__init__(f"sample bound {bound} is below n={n}")


class SpecParseError(EnumOrderError):
    def __init__(self, position: int, expected: str):
        super().__init__(f"bad enumerator spec at position {position}: expected {expected}")


class TooLarge(EnumOrderError):
    """A named quantity past the limit set for work that grows steeply with it."""

    def __init__(self, quantity: str, value: int, limit: int):
        super().__init__(f"{quantity} {value} exceeds the limit {limit}")


class UnknownProperty(EnumOrderError):
    def __init__(self, name: str):
        super().__init__(f"unknown property: {name}")
