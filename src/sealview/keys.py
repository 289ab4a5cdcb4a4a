"""Key files: versioned binary blobs with hex text sidecars.

Table and family keys are 16-byte secrets; view key sets carry the
family id and tag length they were minted for. Keys travel in files,
never on command lines.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from .backend import ViewKeySet
from .encoding import ByteReader
from .primitives import KEY_LEN

KEY_MAGIC = b"MKY1"
KEY_VERSION = 1


class KeyFileError(Exception):
    pass


def _write_private(path: Path, data: bytes) -> None:
    """Write `data` to `path`, readable by its owner only, also when it
    replaces a file: open's mode applies only to a file it creates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "wb") as fh:
        os.fchmod(fd, 0o600)
        fh.write(data)


def write_key(path: str | Path, key: bytes) -> None:
    if len(key) != KEY_LEN:
        raise KeyFileError(f"keys are {KEY_LEN} bytes")
    path = Path(path)
    _write_private(path, KEY_MAGIC + struct.pack(">H", KEY_VERSION) + key)
    _write_private(path.with_suffix(path.suffix + ".hex"), key.hex().encode() + b"\n")


def read_key(path: str | Path) -> bytes:
    rd = ByteReader(Path(path).read_bytes(), KeyFileError, f"key file {path}")
    rd.header(KEY_MAGIC, KEY_VERSION)
    key = rd.take(KEY_LEN)
    rd.end()
    return key


def write_view_keys(path: str | Path, keys: ViewKeySet) -> None:
    path = Path(path)
    blob = keys.serialize()
    _write_private(path, blob)
    _write_private(path.with_suffix(path.suffix + ".hex"), blob.hex().encode() + b"\n")


def read_view_keys(path: str | Path) -> ViewKeySet:
    return ViewKeySet.deserialize(Path(path).read_bytes())
