"""Exception types shared across the package, and its int and alpha checks."""

from __future__ import annotations

from fractions import Fraction


def require_int(name: str, value, least: int | None = None,
                error: type[Exception] = ValueError) -> int:
    """Return value if it is an int (no bool or other subclass) >= least;
    else raise `error` naming it. Every integer from outside input comes
    through here; the caller's error class sets the CLI exit code."""
    if type(value) is int and (least is None or value >= least):
        return value
    bound = "" if least is None else f" >= {least}"
    raise error(f"{name} must be an int{bound}, got {value!r}")


def require_alpha(alpha) -> Fraction:
    """Return alpha as an exact Fraction >= 1, else raise ValueError (on a
    bool too, as require_int does). A float is read through its repr, the
    shortest decimal that rounds to it, so 2.1 is 21/10 and not the binary
    fraction nearest it; inf and nan are refused."""
    try:
        exact = Fraction(repr(alpha) if isinstance(alpha, float) else alpha)
    except (TypeError, ValueError, OverflowError):
        exact = 0
    if isinstance(alpha, bool) or exact < 1:
        raise ValueError(f"alpha must be a rational number >= 1, got {alpha!r}")
    return exact


class SmraError(Exception):
    """Base class for every error raised by this package."""


class UniverseMismatch(SmraError):
    """An item set or valuation refers to items outside the shared universe."""


class NotMonotone(SmraError):
    """A valuation table violates monotonicity or has v(empty) != 0."""


class GenerationFailed(SmraError):
    """The random valuation generator exhausted its attempt budget."""


class InvalidBid(SmraError):
    """A bid overlaps the bidder's provisional set or leaves the universe."""

    def __init__(self, bidder: int, mask: int, reason: str):
        self.bidder = bidder
        self.mask = mask
        super().__init__(f"invalid bid by bidder {bidder}: {reason}")


class InvalidAllocation(SmraError):
    """An allocation assigns some item to more than one bidder."""


class InvalidPartition(SmraError):
    """A scripted partition has overlapping or empty parts."""


class OracleTooLarge(SmraError):
    """The exact welfare oracle would exceed its work budget."""


class InsecureProvisionalState(SmraError):
    """No secure bid exists: the bidder's own provisional set already
    contains a subset priced above its value."""

    def __init__(self, bidder: int, witness_mask: int):
        self.bidder = bidder
        self.witness_mask = witness_mask
        super().__init__(
            f"bidder {bidder} holds an insecure provisional set "
            f"(witness mask {witness_mask:#x})"
        )


class Divergence(SmraError):
    """The auction exceeded its round budget. Carries the partial outcome."""

    def __init__(self, max_rounds: int, outcome):
        self.max_rounds = max_rounds
        self.outcome = outcome
        super().__init__(f"auction still live after {max_rounds} rounds")


class TraceMismatch(SmraError):
    """A recorded trace is internally inconsistent or contradicts a replay."""
