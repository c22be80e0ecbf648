"""File-backed state: atomic persistence, startup loading, and the single
writer that mutates store snapshots.

Disk layout under data_dir:

    portions/<domain>.<lang>.json
    alignments/<domain>.json      one file per canonical (smaller) domain
    services/<id>.xml
    seq                           not below any service sequence number assigned

Every write lands in a temporary file in the same directory followed by an
atomic rename, so a kill at any instant leaves either the old or the new
content, never a torn file. Readers work on immutable snapshots; all
mutations flow through one lock, persist first, then swap the snapshot.
"""

from __future__ import annotations

import logging
import os
import re
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from . import importer as imp
from . import ontology as onto
from . import registry as reg
from .config import ServerConfig
from .descriptor import ServiceDescriptor, parse_descriptor, serialize_descriptor
from .discovery import DiscoveryResponse, Query, discover
from .errors import (
    ImportInProgress,
    PolyfindError,
    StartupError,
    UnknownRepo,
)
from .langdetect import TrigramProfile, load_profiles, packaged_corpora_dir
from .registry import BindingTicket
from .textutil import DIGITS_RE, IDENTIFIER_RE, LANGUAGE_RE

log = logging.getLogger(__name__)

_SERVICE_FILE_RE = re.compile(rf"({reg.SERVICE_ID_RE.pattern})\.xml\Z")
_PORTION_FILE_RE = re.compile(rf"({IDENTIFIER_RE.pattern})\.({LANGUAGE_RE.pattern})\.json\Z")
_ALIGNMENT_FILE_RE = re.compile(rf"({IDENTIFIER_RE.pattern})\.json\Z")


@dataclass(frozen=True)
class Snapshot:
    ontology: onto.OntologyStore
    registry: reg.RegistryStore


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a sibling temp file and rename; never leaves a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _portions_dir(data_dir: Path) -> Path:
    return data_dir / "portions"


def _alignments_dir(data_dir: Path) -> Path:
    return data_dir / "alignments"


def _services_dir(data_dir: Path) -> Path:
    return data_dir / "services"


def _read_dir(directory: Path, name_re: re.Pattern, what: str, parse):
    """Yield (path, name match, parsed content) for each file in name order.

    Temporary files are skipped; a file with an unexpected name or content
    fails startup by name."""
    if not directory.is_dir():
        return
    for path in sorted(directory.iterdir(), key=lambda path: path.name):
        if path.suffix == ".tmp" or not path.is_file():
            continue
        m = name_re.match(path.name)
        if not m:
            raise StartupError(f"unexpected file in {directory.name}/: {path}")
        try:
            parsed = parse(path.read_bytes())
        except PolyfindError as exc:
            raise StartupError(f"corrupt {what} file {path}: {exc}") from exc
        yield path, m, parsed


def _alignment_files(store: onto.OntologyStore) -> dict[str, list[onto.AlignmentLink]]:
    """The links of each alignment file, by domain. A canonical link's source
    has the smaller domain, because '#' sorts before identifier characters."""
    groups: dict[str, list[onto.AlignmentLink]] = {}
    for link in onto.iter_links(store):
        groups.setdefault(link.source.term.domain, []).append(link)
    return groups


def load_snapshot(data_dir: Path) -> Snapshot:
    """Rebuild both stores from disk; any unreadable file fails startup by name.

    Links to terms no portion holds are dropped, as a portion replace would
    drop them, and their alignment file is rewritten without them."""
    store = onto.empty_store()
    for path, m, portion in _read_dir(
        _portions_dir(data_dir), _PORTION_FILE_RE, "portion", onto.load_portion
    ):
        if (portion.domain, portion.language) != (m.group(1), m.group(2)):
            raise StartupError(f"portion file {path} holds {portion.domain}.{portion.language}")
        store = onto.set_portion(store, portion)
    for path, _, links in _read_dir(
        _alignments_dir(data_dir), _ALIGNMENT_FILE_RE, "alignment", onto.load_alignments
    ):
        kept = [link for link in links if onto.resolves(store, link)]
        if len(kept) < len(links):
            log.warning("dropping %d links to missing terms from %s", len(links) - len(kept), path)
            try:
                atomic_write_bytes(path, onto.save_alignments(kept))
            except OSError as exc:
                raise StartupError(f"cannot rewrite alignment file {path}: {exc}") from exc
        store = onto.add_alignment(store, *kept)
    descriptors = [
        replace(parsed, service_id=m.group(1))
        for _, m, parsed in _read_dir(
            _services_dir(data_dir), _SERVICE_FILE_RE, "service", parse_descriptor
        )
    ]
    seq = _read_seq(data_dir / "seq")
    registry_store = reg.registry_from_descriptors(descriptors, last_seq=seq or 0)
    return Snapshot(store, registry_store)


def _read_seq(seq_path: Path) -> int | None:
    """The number in the seq file, or None if there is no such file."""
    if not seq_path.exists():
        return None
    text = seq_path.read_bytes().decode("utf-8", "replace").strip()
    if not DIGITS_RE.fullmatch(text):
        raise StartupError(f"corrupt seq file {seq_path}: {text!r}")
    return int(text)


class AppState:
    """Owns the current snapshot and the write path. Thread-safe."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        profile_dir = config.profile_dir or packaged_corpora_dir()
        try:
            self.profiles: tuple[TrigramProfile, ...] = tuple(load_profiles(profile_dir))
        except PolyfindError as exc:
            raise StartupError(f"cannot build detector profiles from {profile_dir}: {exc}") from exc
        self._snapshot = load_snapshot(self.data_dir)
        self._lock = threading.Lock()
        self._imports_in_flight: dict[tuple[str, str], threading.Event] = {}
        # Catch seq up when it is missing, or behind the ids on disk after a
        # kill between a publish's two writes; otherwise a removed service's
        # id is handed out again after the next restart. Writing a missing
        # seq also makes a read-only volume fail at startup.
        seq_path = self.data_dir / "seq"
        last_seq = self._snapshot.registry.last_seq
        seq = _read_seq(seq_path)
        if seq is None or seq < last_seq:
            try:
                atomic_write_bytes(seq_path, f"{last_seq}\n".encode())
            except OSError as exc:
                raise StartupError(f"data_dir {self.data_dir} is not writable: {exc}") from exc

    # --- reads ---

    def snapshot(self) -> Snapshot:
        return self._snapshot

    def health(self) -> dict:
        snap = self._snapshot
        return {
            "status": "ok",
            "services": len(snap.registry.descriptors),
            "portions": len(snap.ontology.portions),
        }

    # --- persistence helpers (call with the lock held) ---

    def _persist_portion(self, portion: onto.OntologyPortion) -> None:
        path = _portions_dir(self.data_dir) / f"{portion.domain}.{portion.language}.json"
        atomic_write_bytes(path, onto.save_portion(portion))

    def _commit_portion(self, store: onto.OntologyStore, portion: onto.OntologyPortion) -> None:
        """Persist a portion and the alignment files whose links changed,
        build the portion's label index, the term tokens of each portion
        without them (every portion, at the first commit after start-up)
        and the store's adjacency, then swap in the new store, so no reader
        builds an index after a write."""
        self._persist_portion(portion)
        before = self._snapshot.ontology
        if store.alignments is not before.alignments:
            old, new = _alignment_files(before), _alignment_files(store)
            directory = _alignments_dir(self.data_dir)
            for domain in sorted(old.keys() | new.keys()):
                if old.get(domain) == new.get(domain):
                    continue
                path = directory / f"{domain}.json"
                if domain in new:
                    atomic_write_bytes(path, onto.save_alignments(new[domain]))
                else:
                    path.unlink(missing_ok=True)
        portion.label_index, store.adjacency  # fills the cached_property slots
        for held in store.portions.values():
            held.term_tokens
        self._snapshot = Snapshot(store, self._snapshot.registry)

    # --- writes ---

    def publish_descriptor(self, document: bytes) -> str:
        descriptor = parse_descriptor(document)
        with self._lock:
            new_registry, service_id = reg.publish(self._snapshot.registry, descriptor)
            published = new_registry.descriptors[service_id]
            path = _services_dir(self.data_dir) / f"{service_id}.xml"
            atomic_write_bytes(path, serialize_descriptor(published))
            atomic_write_bytes(self.data_dir / "seq", f"{new_registry.last_seq}\n".encode())
            self._snapshot = Snapshot(self._snapshot.ontology, new_registry)
        return service_id

    def remove_service(self, service_id: str) -> None:
        with self._lock:
            new_registry = reg.remove(self._snapshot.registry, service_id)
            path = _services_dir(self.data_dir) / f"{service_id}.xml"
            if path.exists():
                path.unlink()
            self._snapshot = Snapshot(self._snapshot.ontology, new_registry)

    def put_portion(self, portion: onto.OntologyPortion) -> None:
        with self._lock:
            self._commit_portion(onto.set_portion(self._snapshot.ontology, portion), portion)

    def bind_service(self, service_id: str, requester_id: str) -> BindingTicket:
        return reg.bind(self._snapshot.registry, service_id, requester_id)

    def find_repo(self, name: str) -> imp.RemoteRepoRef:
        for repo in self.config.remote_repos:
            if repo.name == name:
                return repo
        raise UnknownRepo(f"no configured repository {name!r}")

    def import_portion(
        self, repo_name: str, domain: str, language: str, wait: bool = True
    ) -> imp.ImportReport:
        """Fetch outside the lock, merge+persist+swap inside it.

        Imports of the same (domain, language) are serialized; with
        wait=False a concurrent second call raises ImportInProgress.
        """
        repo = self.find_repo(repo_name)
        key = (domain, language)
        event = threading.Event()
        while True:
            with self._lock:
                current = self._imports_in_flight.get(key)
                if current is None:
                    self._imports_in_flight[key] = event
                    break
            if not wait:
                raise ImportInProgress(f"import of {domain}.{language} already running")
            current.wait()
        try:
            fetched = imp.fetch_portion_docs(
                repo, domain, language, timeout=self.config.network_timeout
            )
            with self._lock:
                merged, report = imp.merge_portion(self._snapshot.ontology, fetched)
                if report.outcome in ("imported", "upgraded"):
                    self._commit_portion(merged, merged.portions[key])
            return report
        finally:
            with self._lock:
                del self._imports_in_flight[key]
            event.set()

    # --- discovery ---

    def _import_for_discovery(
        self, domain: str, language: str
    ) -> tuple[onto.OntologyStore, tuple[imp.ImportReport, ...]]:
        reports: list[imp.ImportReport] = []
        for repo in self.config.remote_repos:
            try:
                report = self.import_portion(repo.name, domain, language, wait=True)
            except PolyfindError as exc:
                log.warning(
                    "import of %s.%s from %r failed: %s", domain, language, repo.name, exc
                )
                continue
            reports.append(report)
            if (domain, language) in self._snapshot.ontology.portions:
                break
        return self._snapshot.ontology, tuple(reports)

    def discover(self, query: Query) -> DiscoveryResponse:
        snap = self._snapshot
        return discover(
            query,
            snap.ontology,
            snap.registry,
            self.profiles,
            import_missing=self._import_for_discovery,
        )
