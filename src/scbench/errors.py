"""Exception and warning types shared across the package."""


class ScbenchError(Exception):
    """Base class for all package-specific errors."""


class UnknownMarker(ScbenchError):
    """An annotation marker does not resolve to any vulnerability class."""


class UnsupportedVersion(ScbenchError):
    """A Solidity version lies below the supported compatibility scale."""


class SourceLexError(ScbenchError):
    """Base for lexer failures; carries the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnterminatedBlockComment(SourceLexError):
    def __init__(self, position: int):
        super().__init__("unterminated block comment", position)


class UnterminatedString(SourceLexError):
    def __init__(self, position: int):
        super().__init__("unterminated string literal", position)


class DuplicateRecord(ScbenchError):
    """Two records name the same (tool, contract) pair."""


class MissingRecord(ScbenchError):
    """No scan record exists for the requested (tool, contract) pair."""


class NotApplicable(ScbenchError):
    """The tool does not support the queried vulnerability class."""


class EmptyMatrix(ScbenchError):
    """A confusion matrix with no evaluated cases cannot yield metrics."""


class NoSupportedClasses(ScbenchError):
    """A tool exposes no class with computable classification metrics."""


class NoValidRuns(ScbenchError):
    """A tool finished no scan successfully; average time is undefined."""


class NotReciprocal(ScbenchError):
    """A pairwise comparison matrix violates a_ji = 1/a_ij."""


class NonConvergence(ScbenchError):
    """Power iteration failed to reach the residual target."""


class DimensionMismatch(ScbenchError):
    """Weight vector length does not match the indicator column count."""


class MissingMetadata(ScbenchError):
    """Time-series aggregation referenced contracts without metadata."""

    def __init__(self, contract_ids):
        self.contract_ids = sorted(contract_ids)
        preview = ", ".join(self.contract_ids[:5])
        if len(self.contract_ids) > 5:
            preview += ", ..."
        super().__init__(
            f"{len(self.contract_ids)} contract(s) lack metadata: {preview}"
        )


class AnnotationMismatch(UserWarning):
    """Header-declared vulnerable lines disagree with inline markers.

    Emitted as a warning: mined corpora routinely contain imperfect
    annotations and a mismatch must not abort a load.
    """
