"""Line-delimited record files with bit-exact float round-trips.

Every dataset/teacher file in this package is UTF-8 text: one JSON header
line followed by one JSON record per line. Floats are serialized with 17
significant digits, which is enough to reproduce any IEEE-754 double exactly
on reload.

Records stream: ``read_record_lines`` yields one parsed line at a time, so a
loader checks the header before it parses any record and keeps only what it
takes out of each record, never the list of every record dict.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """A data file does not match its declared format."""


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def floats_json(values) -> str:
    """Serialize a 1-D array as a JSON number array at full precision."""
    return "[" + ",".join(format_float(v) for v in np.asarray(values).reshape(-1)) + "]"


def floats2d_json(rows) -> str:
    """Serialize a 2-D array as a JSON array of number arrays at full precision."""
    return "[" + ",".join(floats_json(row) for row in np.asarray(rows)) + "]"


def read_record_lines(path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, record)`` for each non-blank line, the header first."""
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
                raise FormatError(f"{path}: line {lineno}: invalid record ({exc})") from exc
            if not isinstance(obj, dict):
                raise FormatError(f"{path}: line {lineno}: record is not an object")
            yield lineno, obj


def check_format_version(path, header: dict | None, expected: int = 1) -> None:
    if header is None:
        raise FormatError(f"{path}: missing header line")
    version = header.get("format_version")
    if version != expected:
        raise FormatError(f"{path}: unsupported format_version {version!r} (expected {expected})")
