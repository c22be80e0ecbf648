"""Error taxonomy shared across the package.

Every domain error derives from PolyfindError and carries the HTTP status
the API layer should answer with. The error code sent on the wire is the
class name, so renaming a class here is a wire-format change.
"""

from __future__ import annotations


class PolyfindError(Exception):
    """Base class for all errors raised by this package."""

    http_status = 500

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.__class__.__name__)
        self.detail = detail or self.__class__.__name__


# --- identifiers, ontology model ---


class InvalidIdentifier(PolyfindError):
    http_status = 400


class InvalidLanguageTag(InvalidIdentifier):
    """A language tag is malformed; a special case of a bad identifier."""


class DuplicateId(PolyfindError):
    http_status = 400


class UnknownTerm(PolyfindError):
    http_status = 404


class SameLanguage(PolyfindError):
    http_status = 400


class MalformedDocument(PolyfindError):
    """A persisted document is not valid UTF-8 / JSON at all."""

    http_status = 400


class SchemaViolation(PolyfindError):
    """A JSON document parsed but does not match the expected schema."""

    http_status = 400

    def __init__(self, path: str, detail: str):
        super().__init__(f"{path}: {detail}")
        self.path = path


class InvariantViolation(PolyfindError):
    """A value violates a structural invariant of its type."""

    http_status = 400


class PortionNotFound(PolyfindError):
    http_status = 404


# --- language detection ---


class CorpusTooSmall(PolyfindError):
    http_status = 400


class EmptyInput(PolyfindError):
    http_status = 400


class NoProfiles(PolyfindError):
    http_status = 500


# --- descriptor parsing ---


class MalformedXml(PolyfindError):
    http_status = 400

    def __init__(self, detail: str, line: int | None = None, column: int | None = None):
        at = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(detail + at)
        self.line = line
        self.column = column


class UnsupportedFeature(MalformedXml):
    """Input is XML, but uses a construct outside the accepted subset."""


class MissingElement(MalformedXml):
    """A required element or attribute is absent."""


class InvalidType(MalformedXml):
    """An input/output names a type outside the simple-type set."""


# --- registry ---


class EmptyQuery(PolyfindError):
    http_status = 400


class UnknownService(PolyfindError):
    http_status = 404


class EmptyRequester(PolyfindError):
    http_status = 400


# --- remote import ---


class RepoUnreachable(PolyfindError):
    http_status = 502


class ValidationFailed(PolyfindError):
    """Remote portion fetched but failed schema or structural validation."""

    http_status = 502


class ImportInProgress(PolyfindError):
    http_status = 409


class UnknownRepo(PolyfindError):
    http_status = 404


# --- discovery ---


class PortionUnavailable(PolyfindError):
    http_status = 424


class DetectionFailed(PolyfindError):
    http_status = 500


# --- configuration / startup ---


class ConfigError(PolyfindError):
    http_status = 500


class StartupError(PolyfindError):
    """The server cannot start: persisted state under data_dir is unreadable
    or inconsistent, or data_dir or the listen address cannot be used."""

    http_status = 500
