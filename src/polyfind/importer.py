"""Fetching ontology portions from remote repositories and merging them in.

A repository is a plain HTTP tree: portion documents under
portions/<domain>.<lang>.json, optional alignment documents under
alignments/<domain>.json. Fetch and merge are separate steps so a
server can do network I/O outside its write lock; merge is pure and either
returns a fully updated store or raises, never a partial state.
"""

from __future__ import annotations

import http.client
import logging
import urllib.error
import urllib.request
from dataclasses import dataclass

from .errors import (
    InvalidIdentifier,
    InvariantViolation,
    MalformedDocument,
    PortionNotFound,
    RepoUnreachable,
    SchemaViolation,
    ValidationFailed,
)
from .ontology import (
    OntologyStore,
    add_alignment,
    load_alignments,
    load_portion,
    resolves,
    set_portion,
)
from .textutil import check_identifier, check_language

log = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 10.0


@dataclass(frozen=True)
class RemoteRepoRef:
    name: str
    base_url: str


@dataclass(frozen=True)
class ImportReport:
    repo: str
    domain: str
    language: str
    outcome: str  # "imported", "upgraded", "already_current" or "rejected"
    version_before: int | None
    version_after: int | None
    detail: str = ""


@dataclass(frozen=True)
class FetchedPortion:
    """Raw documents pulled from a repository, not yet validated or merged."""

    repo: str
    domain: str
    language: str
    portion_doc: bytes
    alignment_doc: bytes | None


class _NotFound(Exception):
    pass


def _fetch(url: str, timeout: float) -> bytes:
    # One retry on transport errors and broken responses; a 404 is meaningful.
    last: Exception | None = None
    for attempt in range(2):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                raise _NotFound(url) from exc
            raise RepoUnreachable(f"GET {url} answered HTTP {exc.code}") from exc
        except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
            last = exc
            if attempt == 0:
                log.warning("retrying %s after %s", url, exc)
    raise RepoUnreachable(f"GET {url} failed: {last}") from last


def fetch_portion_docs(
    repo: RemoteRepoRef, domain: str, language: str, timeout: float = DEFAULT_TIMEOUT
) -> FetchedPortion:
    """Pull the portion document and, when present, the domain's alignments."""
    check_identifier(domain, "domain")
    check_language(language)
    base = repo.base_url.rstrip("/")
    try:
        portion_doc = _fetch(f"{base}/portions/{domain}.{language}.json", timeout)
    except _NotFound as exc:
        raise PortionNotFound(
            f"repository {repo.name!r} has no portion {domain}.{language}"
        ) from exc
    try:
        alignment_doc = _fetch(f"{base}/alignments/{domain}.json", timeout)
    except _NotFound:
        alignment_doc = None
    return FetchedPortion(repo.name, domain, language, portion_doc, alignment_doc)


def merge_portion(store: OntologyStore, fetched: FetchedPortion) -> tuple[OntologyStore, ImportReport]:
    """Validate fetched documents and merge them into the store.

    Version policy against the local portion, if any: newer wins
    (upgraded), absent is inserted (imported), same version with equal
    content is a no-op (already_current), anything else is rejected.
    The store given is returned unless the portion was imported or upgraded.
    Alignment links whose endpoints do not resolve after the merge are
    dropped; structurally invalid remote content raises ValidationFailed
    and leaves the store untouched.
    """
    try:
        remote = load_portion(fetched.portion_doc)
    except (InvalidIdentifier, InvariantViolation, MalformedDocument, SchemaViolation) as exc:
        raise ValidationFailed(f"portion document from {fetched.repo!r}: {exc}") from exc
    if remote.domain != fetched.domain or remote.language != fetched.language:
        raise ValidationFailed(
            f"portion from {fetched.repo!r} says {remote.domain}.{remote.language},"
            f" expected {fetched.domain}.{fetched.language}"
        )
    links = []
    if fetched.alignment_doc is not None:
        try:
            links = load_alignments(fetched.alignment_doc)
        except (MalformedDocument, SchemaViolation) as exc:
            raise ValidationFailed(f"alignment document from {fetched.repo!r}: {exc}") from exc

    local = store.portions.get((fetched.domain, fetched.language))

    def report(outcome: str, detail: str = "") -> ImportReport:
        return ImportReport(
            fetched.repo,
            fetched.domain,
            fetched.language,
            outcome,
            None if local is None else local.version,
            remote.version,
            detail,
        )

    if local is not None:
        if remote.version < local.version:
            return store, report("rejected", "remote version is older than local")
        if remote.version == local.version:
            if remote == local:
                return store, report("already_current")
            return store, report("rejected", "same version but different content")
        outcome = "upgraded"
    else:
        outcome = "imported"
    merged = set_portion(store, remote)
    # Links may reference portions we do not hold; those are skipped, not errors.
    return add_alignment(merged, *(l for l in links if resolves(merged, l))), report(outcome)

