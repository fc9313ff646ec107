"""Exception types shared across the kit.

Structural verification does not raise; it returns diagnostics. Everything
else that can go wrong raises one of these.
"""


class StaircaseError(Exception):
    """Base class for all errors raised by this package."""


# --- IR construction / mutation ---


class DuplicateDialect(StaircaseError):
    pass


class UnknownOperation(StaircaseError):
    pass


class TypeMismatch(StaircaseError):
    pass


class DominanceViolation(StaircaseError):
    pass


class HasUses(StaircaseError):
    pass


class InvalidBound(StaircaseError):
    pass


class ArityMismatch(StaircaseError):
    pass


class RankMismatch(StaircaseError):
    pass


class DuplicateSymbol(StaircaseError):
    pass


class UnknownSymbol(StaircaseError):
    pass


class SignatureMismatch(StaircaseError):
    pass


# --- capture ---


class CaptureError(StaircaseError):
    pass


class UnannotatedParameter(CaptureError):
    pass


class UnsupportedConstruct(CaptureError):
    """Raised for host constructs the capture cannot stage; carries the line."""

    def __init__(self, msg, line=None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


class CaptureLeak(CaptureError):
    """A value defined inside a region was used after the region closed."""


class UnbalancedMarkers(CaptureError):
    pass


class VerificationFailed(StaircaseError):
    """Wraps verifier diagnostics for callers that need an exception."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "; ".join(str(d) for d in self.diagnostics) or "verification failed"
        )


# --- textual IR and pipeline specs ---


class ParseError(StaircaseError, SyntaxError):
    """Syntax error in .sir text or a pipeline spec, with position."""

    def __init__(self, msg, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            pos = f"{line}" if column is None else f"{line}:{column}"
            msg = f"{pos}: {msg}"
        super().__init__(msg)


class UnknownPass(StaircaseError):
    pass


class PassFailure(StaircaseError):
    pass


class InvalidFactor(StaircaseError):
    pass


class OutliningUnsupported(StaircaseError):
    pass


# --- interpretation ---


class OutOfBounds(StaircaseError):
    pass


class MissingMain(StaircaseError):
    pass


class ModeUnsupported(StaircaseError):
    pass


# --- tuner ---


class EmptySpace(StaircaseError):
    pass


class MalformedLine(StaircaseError):
    def __init__(self, msg, lineno):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {msg}")
