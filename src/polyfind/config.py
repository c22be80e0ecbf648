"""Server configuration: UTF-8 JSON file plus environment overrides."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping
from urllib.parse import urlsplit

from .errors import ConfigError, MalformedDocument, SchemaViolation
from .importer import RemoteRepoRef
from .textutil import DIGITS_RE, check_fields, load_json

DATA_DIR_ENV = "MOS_DATA_DIR"
# The longest network_timeout, in seconds: one day, well below what a
# socket's settimeout accepts.
MAX_NETWORK_TIMEOUT = 86_400.0

# Every key of the config file is optional.
_CONFIG_FIELDS = {
    "listen": str,
    "data_dir": str,
    "profile_dir": (str, type(None)),
    "remote_repos": list,
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
    network_timeout: float = 10.0


def _read_document(raw: Path) -> dict:
    try:
        doc = check_fields(load_json(raw.read_bytes()), "$", {}, _CONFIG_FIELDS)
        for i, entry in enumerate(doc.get("remote_repos", [])):
            check_fields(entry, f"$.remote_repos[{i}]", _REPO_FIELDS, {})
    except (MalformedDocument, SchemaViolation) as exc:
        raise ConfigError(f"config file {raw}: {exc}") from exc
    return doc


def _parse_listen(value: str) -> tuple[str, int]:
    if ":" not in value:
        raise ConfigError(f"listen must be 'host:port', got {value!r}")
    host, _, port_text = value.rpartition(":")
    if not DIGITS_RE.fullmatch(port_text):
        raise ConfigError(f"listen port {port_text!r} is not an integer")
    port = int(port_text)
    if port > 65535:
        raise ConfigError(f"listen port {port} out of range")
    return host or "127.0.0.1", port


def _check_base_url(url: str, i: int) -> str:
    """An http or https URL with a host, written in printable ASCII only
    (http.client refuses a space or control character and cannot encode the
    rest), or ConfigError naming the entry."""
    try:
        parts = urlsplit(url)
    except ValueError:
        parts = None
    if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
            or re.search(r"[^\x21-\x7e]", url)):
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

    timeout = doc.get("network_timeout", 10.0)
    if not 0 < timeout <= MAX_NETWORK_TIMEOUT:  # NaN fails every comparison
        raise ConfigError(
            f"network_timeout must be a positive number of seconds up to "
            f"{MAX_NETWORK_TIMEOUT:g}, got {timeout!r}"
        )

    return ServerConfig(
        host=host,
        port=port,
        data_dir=data_dir,
        profile_dir=profile_dir,
        remote_repos=tuple(repos),
        network_timeout=float(timeout),
    )
