"""Exception hierarchy shared by every pnrkit module."""

from __future__ import annotations

# answers of the selection rule when no window clears the threshold; kept
# here so the CLI parser can offer them without loading localization
FALLBACKS = ("prior-point", "argmax-confidence")


class PnrKitError(Exception):
    """Base class for all errors raised by this package.

    Carries the 1-based input line at fault when one is known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(PnrKitError):
    """A value or record violates a structural contract."""


class DomainError(ValidationError):
    """A numeric argument lies outside its legal range."""


class BoundsError(ValidationError):
    """A frame index or window does not fit inside its clip."""


class ClipTooShortError(BoundsError):
    """The clip has fewer frames than one window length."""


class NegativeSpaceEmpty(PnrKitError):
    """No window start avoids every annotated state-change frame."""


class ParseError(PnrKitError):
    """A line of wire-format input could not be decoded."""


class ConflictError(PnrKitError):
    """Two records make incompatible claims about the same clip."""


class CoverageError(PnrKitError):
    """Predictions and annotations do not cover the same clips."""

    def __init__(self, message: str, clip_ids: tuple[str, ...] = ()):
        if clip_ids:
            shown = ", ".join(clip_ids[:5])
            if len(clip_ids) > 5:
                shown += f", ... ({len(clip_ids)} total)"
            message = f"{message}: {shown}"
        super().__init__(message)
        self.clip_ids = clip_ids


class EmptyInputError(PnrKitError):
    """An operation that needs at least one element received none."""
