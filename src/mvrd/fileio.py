"""One writer and one line parser for every file this package saves.

The features and teacher files and a run's JSONL outputs are UTF-8 text: a
compact JSON header line, then one JSON record per line. Each array in a data
file is one string, ``encode_floats``' base64 of its little-endian float64
bytes, which ``decode_floats`` reads back bit for bit. Only a run's outputs
hold decimal floats, as Python's shortest round-trip ``repr``. Either way a
non-finite value is refused. Every file, the binary checkpoint too, is written
beside its target and renamed over it only when whole, so a failed save
leaves the previous file as it was, never truncated.

Records stream both ways: ``write_records`` encodes one record at a time and
``read_record_lines`` yields one parsed line at a time, so a loader checks the
header before any record and never holds the list of every record dict. The
features and teacher files hold one record per sample, so their loaders build
each sample from its own line, in one pass.
"""

from __future__ import annotations

import base64
import json
import os
import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """A data file does not match its declared format."""


@contextmanager
def replace_atomically(path, mode: str = "w"):
    """Yield a file open on a temporary beside ``path``, renamed over ``path``
    only when the block ends without error; on any error it is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:  # plain open, not mkstemp, so the saved file gets the umask's mode, not 0600
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def write_records(path, records: Iterable[dict]) -> None:
    """Write one compact JSON line per record, header first, replacing ``path``."""
    with replace_atomically(path) as fh:
        for lineno, record in enumerate(records, start=1):
            try:
                line = _encode(record)
            except ValueError as exc:  # allow_nan=False: a NaN or an infinity
                raise FormatError(f"{path}: line {lineno}: non-finite value ({exc})") from exc
            fh.write(line + "\n")


def parse_record(raw: bytes, where: str) -> dict:
    """One line's JSON object; bad UTF-8 or JSON, deep nesting or a non-object
    raise ``FormatError`` prefixed with ``where``."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where}: invalid record ({exc})") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: record is not an object")
    return obj


def read_record_lines(path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, record)`` for each non-blank line, the header first."""
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isspace():
                yield lineno, parse_record(raw, f"{path}: line {lineno}")


def check_format_version(path, header: dict | None, expected: int, remedy: str = "") -> None:
    """Refuse a missing header or any ``format_version`` but ``expected``;
    ``remedy``, when given, ends the message and says how to get a readable file."""
    if header is None:
        raise FormatError(f"{path}: missing header line")
    version = header.get("format_version")
    if version != expected:
        raise FormatError(f"{path}: unsupported format_version {version!r} (expected {expected}){remedy}")


def encode_floats(values: np.ndarray, where: str) -> str:
    """The standard base64, with padding, of ``values`` as little-endian
    float64, row-major; a non-finite value raises ``FormatError`` prefixed
    with ``where``."""
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: non-finite value")
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_floats(text, width: int, where: str) -> np.ndarray:
    """The (rows >= 1, width) float64 array that ``encode_floats`` wrote as
    ``text``. A non-string, invalid base64, a byte count that is not a whole
    number >= 1 of rows, or a non-finite value raises ``FormatError``
    prefixed with ``where``."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise FormatError(f"{where}: not a base64 string ({exc})") from exc
    if not raw or len(raw) % (8 * width):
        raise FormatError(f"{where}: {len(raw)} bytes are not one or more {width}-wide float64 rows")
    values = np.frombuffer(raw, "<f8").reshape(-1, width)
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: non-finite value")
    return values
