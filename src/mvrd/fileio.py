"""One writer and one line parser for every file this package saves.

The features and teacher files and a run's JSONL outputs are UTF-8 text: a
compact JSON header line, then one JSON record per line. Floats are written
as Python's shortest round-trip ``repr``, which reads back to the same
double, and a non-finite value is refused on save. Every file, the binary
checkpoint too, is written beside its target and renamed over it only when
whole, so a failed save leaves the previous file as it was, never truncated.

Records stream both ways: ``write_records`` encodes one record at a time and
``read_record_lines`` yields one parsed line at a time, so a loader checks the
header before any record and never holds the list of every record dict.
"""

from __future__ import annotations

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


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False, default=_plain).encode


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


def check_format_version(path, header: dict | None, expected: int = 1) -> None:
    if header is None:
        raise FormatError(f"{path}: missing header line")
    version = header.get("format_version")
    if version != expected:
        raise FormatError(f"{path}: unsupported format_version {version!r} (expected {expected})")
