"""Hand-built lines of a teacher file, for tests that need a file the saver
would never write. The embedding encoding is spelled out here, not taken from
``mvrd.fileio``, so the tests pin the format itself."""

import base64
import json

import numpy as np


def header_line(d_t: int = 8, d: int = 4, projection_seed: int = 0, version: int = 2) -> str:
    return json.dumps({"format_version": version, "d_t": d_t, "d": d, "projection_seed": projection_seed})


def embeddings_text(raw) -> str:
    """Format 2's ``embeddings`` field: the padded standard base64 of the raw
    (3, d_t) array as little-endian float64, row-major."""
    return base64.b64encode(np.asarray(raw, dtype="<f8").tobytes()).decode("ascii")


def record_line(raw, sample_id: str = "s0", chains=("", "", "")) -> str:
    """One teacher record whose ``embeddings`` field encodes ``raw``."""
    return json.dumps({"sample_id": sample_id, "chains": list(chains), "embeddings": embeddings_text(raw)})
