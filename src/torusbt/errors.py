"""Exception types shared across the package."""


class TorusBTError(Exception):
    """Base class for all errors raised by this package."""


class NonPermutation(TorusBTError):
    """A generator is not a bijection of the point set."""


class NotSubgroup(TorusBTError):
    """An element tuple is out of range or not closed under the group law."""


class GroupTooLarge(TorusBTError):
    """Group order exceeds the configured subgroup-enumeration bound."""


class GroupMismatch(TorusBTError):
    """Two lattices live over different groups."""


class NotUnimodular(TorusBTError):
    """An action matrix has determinant different from +-1."""


class NotHomomorphism(TorusBTError):
    """A map fails multiplicativity; args carry the offending pair."""


class NotSurjective(TorusBTError):
    """A realization does not cover the whole Galois group."""


class ShapeMismatch(TorusBTError):
    """A bad argument: wrong matrix dimensions, a non-int entry, or a value out of range."""


class InconsistentRank(TorusBTError):
    """Involution decomposition ranks do not add up; indicates a bug."""


class InvariantViolation(TorusBTError):
    """An exact computation broke one of its own invariants; indicates a bug."""


class NoSolution(TorusBTError):
    """The induction linear system is infeasible (invalid character)."""


class NotRational(TorusBTError):
    """A cyclotomic value expected to be rational is not."""


class NonAbelianRealization(TorusBTError):
    """The splitting group is non-abelian; only symbolic output exists."""


class NotTotallyReal(TorusBTError):
    """Complex conjugation does not land on the identity."""


class MultiplicityNotInteger(TorusBTError):
    """A character multiplicity came out non-integral or negative."""


class StabilizationBoundExceeded(TorusBTError):
    """A p-part failed to stabilize within the configured depth."""


class BadReduction(TorusBTError):
    """Point counts requested at a prime dividing the conductor."""


class CharacterMismatch(TorusBTError):
    """Isogeny check on lattices with different characters."""


class ManifestError(TorusBTError):
    """Manifest parse/validation failure with location info."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
