"""Exception types shared across the package.

Every refusal raises EnumOrderError, a ValueError, whose message names the
offending datum.  A subclass is kept only when some code catches it or reads
its data (ValueAbsent), the README names it (DuplicateValue, ZeroValue), or
it formats one message for several raise sites (LengthMismatch,
SpecParseError, TooLarge).  The only attribute is `value`, on DuplicateValue
and ValueAbsent.
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


class SpecParseError(EnumOrderError):
    def __init__(self, position: int, expected: str):
        super().__init__(f"bad enumerator spec at position {position}: expected {expected}")


class TooLarge(EnumOrderError):
    """A named quantity past the limit set for work that grows steeply with it."""

    def __init__(self, quantity: str, value: int, limit: int):
        super().__init__(f"{quantity} {value} exceeds the limit {limit}")
