"""Hand-built lines of a features file, for tests that need a file the saver
would never write. The token encoding is spelled out here, not taken from
``mvrd.fileio``, so the tests pin the format itself."""

import base64
import json

import numpy as np

from mvrd.views import SOURCE_TAGS


def header_line(d_in, version: int = 2) -> str:
    return json.dumps({"format_version": version, "d_in": d_in})


def tokens_text(tokens) -> str:
    """Format 2's ``tokens`` field: the padded standard base64 of the array
    as little-endian float64, row-major."""
    return base64.b64encode(np.asarray(tokens, dtype="<f8").tobytes()).decode("ascii")


def record_line(tag: str, tokens, sample_id: str = "s", label=0, corruption: str = "none") -> str:
    """One features record whose ``tokens`` field encodes ``tokens``."""
    return json.dumps({"sample_id": sample_id, "label": label, "corruption": corruption,
                       "source_tag": tag, "tokens": tokens_text(tokens)})


def one_sample_file(path, d_in, tokens: dict) -> None:
    """A header declaring ``d_in``, then one record per source tag of sample
    "s", each with ``tokens[tag]``."""
    lines = [header_line(d_in)] + [record_line(tag, tokens[tag]) for tag in SOURCE_TAGS]
    path.write_text("\n".join(lines) + "\n", "utf-8")
