"""Hand-built lines of a features file, for tests that need a file the saver
would never write. The token encoding is spelled out here, not taken from
``mvrd.fileio``, so the tests pin the format itself."""

import base64
import json

import numpy as np

from mvrd.views import SOURCE_TAGS


def header_line(d_in, version: int = 3) -> str:
    return json.dumps({"format_version": version, "d_in": d_in})


def tokens_text(tokens) -> str:
    """One token array as the ``tokens`` map holds it: the padded standard
    base64 of the array as little-endian float64, row-major."""
    return base64.b64encode(np.asarray(tokens, dtype="<f8").tobytes()).decode("ascii")


def record_line(tokens, sample_id: str = "s", label=0, corruption: str = "none") -> str:
    """One features record whose ``tokens`` map holds each array of
    ``tokens`` encoded, under the same key."""
    texts = {tag: tokens_text(t) for tag, t in tokens.items()}
    return json.dumps({"sample_id": sample_id, "label": label, "corruption": corruption, "tokens": texts})


def one_sample_file(path, d_in, tokens: dict) -> None:
    """A header declaring ``d_in``, then the record of sample "s" with
    ``tokens[tag]`` for each source tag."""
    record = record_line({tag: tokens[tag] for tag in SOURCE_TAGS})
    path.write_text(header_line(d_in) + "\n" + record + "\n", "utf-8")
