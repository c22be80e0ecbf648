"""Server configuration: UTF-8 JSON file plus environment overrides."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping
from urllib.parse import urlsplit

from .errors import ConfigError, MalformedDocument, SchemaViolation
from .importer import RemoteRepoRef
from .registry import DEFAULT_FIELD_WEIGHTS
from .textutil import check_fields, load_json

DATA_DIR_ENV = "MOS_DATA_DIR"

# Every key of the config file is optional.
_CONFIG_FIELDS = {
    "listen": str,
    "data_dir": str,
    "profile_dir": (str, type(None)),
    "remote_repos": list,
    "expansion_depth": int,
    "field_weights": dict,
    "network_timeout": (int, float),
}
_REPO_FIELDS = {"name": str, "base_url": str}


@dataclass(frozen=True)
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 8080
    data_dir: Path = Path("data")
    profile_dir: Path | None = None  # None: use the packaged corpora
    remote_repos: tuple[RemoteRepoRef, ...] = ()
    expansion_depth: int = 1
    field_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_FIELD_WEIGHTS)
    )
    network_timeout: float = 10.0


def _read_document(raw: Path) -> dict:
    try:
        doc = check_fields(load_json(raw.read_bytes()), "$", {}, _CONFIG_FIELDS)
        for i, entry in enumerate(doc.get("remote_repos", [])):
            check_fields(entry, f"$.remote_repos[{i}]", _REPO_FIELDS, {})
        weights = dict.fromkeys(DEFAULT_FIELD_WEIGHTS, (int, float))
        check_fields(doc.get("field_weights", {}), "$.field_weights", {}, weights)
    except (MalformedDocument, SchemaViolation) as exc:
        raise ConfigError(f"config file {raw}: {exc}") from exc
    return doc


def _parse_listen(value: str) -> tuple[str, int]:
    if ":" not in value:
        raise ConfigError(f"listen must be 'host:port', got {value!r}")
    host, _, port_text = value.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(f"listen port {port_text!r} is not an integer") from None
    if not 0 <= port <= 65535:
        raise ConfigError(f"listen port {port} out of range")
    return host or "127.0.0.1", port


def _check_base_url(url: str, i: int) -> str:
    """An http or https URL with a host and no space or control character
    (which http.client refuses), or ConfigError naming the entry."""
    try:
        parts = urlsplit(url)
    except ValueError:
        parts = None
    if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
            or re.search(r"[\x00-\x20\x7f]", url)):
        raise ConfigError(
            f"$.remote_repos[{i}].base_url: {url!r} is not an http or https URL with a host"
        )
    return url


def load_config(path: Path | str | None = None, env: Mapping[str, str] | None = None) -> ServerConfig:
    """Read the config file (all keys optional) and apply env overrides."""
    env = os.environ if env is None else env
    doc: dict = {}
    if path is not None:
        raw = Path(path)
        if not raw.exists():
            raise ConfigError(f"config file {raw} does not exist")
        doc = _read_document(raw)

    host, port = ("127.0.0.1", 8080)
    if "listen" in doc:
        host, port = _parse_listen(doc["listen"])

    data_dir = Path(doc.get("data_dir", "data"))
    if env.get(DATA_DIR_ENV):
        data_dir = Path(env[DATA_DIR_ENV])

    profile_dir = None
    if doc.get("profile_dir") is not None:
        profile_dir = Path(doc["profile_dir"])

    repos = []
    seen_names = set()
    for i, entry in enumerate(doc.get("remote_repos", [])):
        if entry["name"] in seen_names:
            raise ConfigError(f"duplicate remote repo name {entry['name']!r}")
        seen_names.add(entry["name"])
        repos.append(RemoteRepoRef(entry["name"], _check_base_url(entry["base_url"], i)))

    depth = doc.get("expansion_depth", 1)
    if depth < 1:
        raise ConfigError(f"expansion_depth must be an integer >= 1, got {depth!r}")

    weights = dict(DEFAULT_FIELD_WEIGHTS)
    for key, value in doc.get("field_weights", {}).items():
        if value <= 0:
            raise ConfigError(f"field weight {key!r} must be a positive number")
        weights[key] = float(value)

    timeout = doc.get("network_timeout", 10.0)
    if timeout <= 0:
        raise ConfigError(f"network_timeout must be a positive number, got {timeout!r}")

    return ServerConfig(
        host=host,
        port=port,
        data_dir=data_dir,
        profile_dir=profile_dir,
        remote_repos=tuple(repos),
        expansion_depth=depth,
        field_weights=weights,
        network_timeout=float(timeout),
    )
