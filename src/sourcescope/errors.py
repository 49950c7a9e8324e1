"""Exception hierarchy shared across the package.

Every operational failure maps to a distinct class so callers (and the CLI
exit-code logic) can dispatch on type rather than parse messages.
"""


class SourceScopeError(Exception):
    """Base class for all package errors."""


class EstimationError(SourceScopeError):
    """A fit or a statistic cannot be computed from the data given; the CLI
    exits 5 on these and 4 on every other package error."""


# --- fetching / feature extraction -----------------------------------------

class FetchError(SourceScopeError):
    """A site could not be fetched; ``url`` names the failing request and
    ``reason`` says what went wrong."""

    def __init__(self, url: str, message: str):
        super().__init__(url, message)
        self.url = url
        self.reason = message

    def __str__(self) -> str:
        return f"{self.reason} ({self.url})"


class NetworkUnreachableError(FetchError):
    pass


class FetchTimeoutError(FetchError):
    pass


class TooManyRedirectsError(FetchError):
    pass


class NonHtmlContentError(FetchError):
    pass


class BodyTooLargeError(FetchError):
    pass


class LexiconError(SourceScopeError):
    """Keyword lexicon file is malformed or violates its invariants."""


# --- domain screening -------------------------------------------------------

class UnparseableUrlError(SourceScopeError):
    """Input could not be reduced to a hostname."""


class EmptyDatabaseError(SourceScopeError):
    """Mimicry screening requires at least one known domain."""


# --- model fitting / scoring -------------------------------------------------

class SingularDesignError(EstimationError):
    """Design matrix is rank deficient (collinear or constant columns)."""


class SeparationError(EstimationError):
    """Quasi-complete separation: a coefficient diverged during fitting."""


class ConvergenceError(EstimationError):
    """Fitting did not converge within the iteration budget."""


class ModelDocumentError(SourceScopeError):
    """A model document, or a model built in code, is malformed."""


class UnknownFeatureError(ModelDocumentError):
    """Model document names a feature outside the supported set."""


class NonFiniteValueError(ModelDocumentError):
    """A model's intercept or a coefficient is NaN or infinite."""


# --- statistics ---------------------------------------------------------------

class DomainError(EstimationError):
    """Numeric argument outside the mathematical domain of the function."""


class ZeroMarginError(EstimationError):
    """A 2x2 table has an empty margin, so association is undefined."""


class UnknownVariableError(EstimationError):
    """Requested variable is not one of the six dataset columns."""


class SingleClassDataError(EstimationError):
    """Dataset contains only one label value; baselines are undefined."""


class EmptyDataError(SourceScopeError):
    """Operation requires a non-empty dataset."""


# --- dataset ingestion ---------------------------------------------------------

class DatasetError(SourceScopeError):
    """Base class for CSV ingestion failures."""


class EmptyFileError(DatasetError):
    pass


class MissingColumnError(DatasetError):
    pass


class DuplicateHeaderError(DatasetError):
    pass


class NonBinaryCellError(DatasetError):
    pass


class NotUtf8Error(DatasetError):
    """The file's bytes are not UTF-8 text."""
