"""Exception hierarchy shared by all modules."""


class Picard31Error(Exception):
    """Base class for all errors raised by this package."""


class DomainError(Picard31Error):
    """An operation was applied outside its mathematical domain
    (e.g. image_of_infinity or translation_data on a matrix that fixes
    infinity: g41 = 0 leaves no affine coordinates)."""


class ParityError(Picard31Error):
    """The vertical coordinate k and the squared translation length disagree mod 2,
    so the requested Heisenberg translation does not have Eisenstein entries."""


class ShapeError(Picard31Error):
    """A matrix does not have the structural shape required by the operation
    (e.g. a stabilizer-of-infinity factorization applied to a non-stabilizer)."""


class NotMemberError(Picard31Error):
    """The input is not a member of the group in question."""


class WordParseError(Picard31Error):
    """Malformed word text.  Carries the byte offset of the first offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class InternalError(Picard31Error):
    """A mathematical guarantee that must hold for valid inputs failed at runtime.
    Always indicates a bug, never a bad input.  When raised inside
    decomposer.decompose or decompose_traced, steps holds the
    ReductionSteps completed before the failure; otherwise it stays None."""

    steps = None
