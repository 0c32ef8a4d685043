"""Teacher-side supply of distillation targets.

The real teacher is a hosted multimodal chat model plus a sentence embedder;
neither is bundled here. This module provides everything around that gap:

* a prompt registry (templates are editable data files, one per view)
* one path for reasoning chains: ``fetch_chains`` asks a ``fetch`` source
  for each sample's chains, one per view, a few samples at a time. The
  source is ``mock_chain`` (offline and deterministic) or the ``fetch_chain``
  of ``ReasoningClient``, an HTTP chat-completion client with an on-disk
  response cache
* ``fallback_embed``, a deterministic feature-hashing stand-in for the
  sentence embedder
* a synthetic oracle that emits teacher embeddings with a planted
  class/corruption geometry for desk-scale experiments
* the teacher file format and the fixed random projection that bridges the
  teacher embedding dimension d_t to the student dimension d

A sample's teacher is one (3, d) float64 array, a row per view in ``VIEWS``
order, and a raw embedding is a plain (d_t,) array. Plain arrays carry no
gradient, so teacher targets are gradient-free by type: the (B, 3, d) batch
array goes straight into ``diffcore.tempered_kl``, and no backward path can
reach it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .diffcore import DimensionError, ParameterError, Tensor, ValidationError
from .fileio import (
    FormatError,
    check_format_version,
    read_record_lines,
    replace_atomically,
    write_records,
)
from .views import VIEWS

logger = logging.getLogger(__name__)

CORRUPTION_TYPES = ("none", "text-fabrication", "image-artifact", "cross-mismatch")
CORRUPTION_VIEW = {
    "text-fabrication": "text",
    "image-artifact": "image",
    "cross-mismatch": "cross",
}
TOKEN_ENV_VAR = "MRD_TEACHER_TOKEN"
# chain requests in flight at once in fetch_chains
MAX_IN_FLIGHT = 4


# ---------------------------------------------------------------------------
# prompts


@dataclass(frozen=True)
class PromptTemplate:
    """One view's generation prompt; body carries {TEXT} / {IMAGE_REF} placeholders."""

    view: str
    template_id: str
    body: str

    def __post_init__(self):
        if self.view not in VIEWS:
            raise ValidationError(f"unknown view {self.view!r}")
        if not self.body.strip():
            raise ValidationError(f"template {self.template_id!r} has an empty body")

    def fill(self, text: str, image_ref: str) -> str:
        return self.body.replace("{TEXT}", text).replace("{IMAGE_REF}", image_ref)


def default_templates() -> dict[str, PromptTemplate]:
    """Load the bundled per-view templates shipped as package data."""
    templates = {}
    for view in VIEWS:
        body = resources.files("mvrd").joinpath(f"prompts/{view}.txt").read_text("utf-8")
        templates[view] = PromptTemplate(view, f"default-{view}-v1", body)
    return templates


# ---------------------------------------------------------------------------
# embeddings and projection


@dataclass
class TeacherEmbeddings:
    """Per-view reasoning embeddings in student dimension d: one (3, d) array,
    a row per view in ``VIEWS`` order."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != len(VIEWS):
            raise DimensionError(f"teacher embeddings must be (3, d), got {self.values.shape}")

    def view(self, name: str) -> Tensor:
        """One view's row, wrapped as a gradient-free tensor."""
        return Tensor(self.values[VIEWS.index(name)])


@dataclass(frozen=True)
class ProjectionSpec:
    """Fixed seeded random projection d_t -> d, stored with any dataset that used it."""

    d_t: int
    d: int
    seed: int

    def __post_init__(self):
        # named as in the teacher file's header
        fields = (("d_t", self.d_t, 1), ("d", self.d, 1), ("projection_seed", self.seed, 0))
        for name, value, least in fields:
            if type(value) is not int or value < least:
                raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")

    def matrix(self) -> np.ndarray:
        return _projection_matrix(self.d_t, self.d, self.seed)


@lru_cache(maxsize=64)
def _projection_matrix(d_t: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(0.0, 1.0 / np.sqrt(d_t), size=(d_t, d))
    m.flags.writeable = False
    return m


# ---------------------------------------------------------------------------
# reasoning records and the teacher file format


@dataclass
class ReasoningRecord:
    """One generated explanation plus its raw (pre-projection) embedding."""

    sample_id: str
    view: str
    chain: str
    raw_embedding: np.ndarray

    def __post_init__(self):
        if self.view not in VIEWS:
            raise ValidationError(f"unknown view {self.view!r}")


@dataclass
class TeacherFileData:
    spec: ProjectionSpec
    embeddings: dict[str, TeacherEmbeddings]


def save_teacher_file(records, spec: ProjectionSpec, path) -> None:
    """Write records in the line-delimited teacher format; a record of the
    wrong width or with a non-finite value raises ``FormatError``."""

    def lines():
        yield {"format_version": 1, "d_t": spec.d_t, "d": spec.d, "projection_seed": spec.seed}
        for rec in records:
            if rec.raw_embedding.shape != (spec.d_t,):
                raise FormatError(
                    f"record ({rec.sample_id}, {rec.view}) has embedding {rec.raw_embedding.shape}, "
                    f"expected ({spec.d_t},)"
                )
            yield {"sample_id": rec.sample_id, "view": rec.view, "chain": rec.chain,
                   "embedding": rec.raw_embedding}

    write_records(path, lines())


def load_teacher_file(path) -> TeacherFileData:
    """Load and validate a teacher file; every sample must carry all three views.

    Each record must carry a chain, but only the projected rows are kept."""
    path = Path(path)
    lines = read_record_lines(path)
    _, header = next(lines, (0, None))
    check_format_version(path, header)
    try:
        spec = ProjectionSpec(header.get("d_t"), header.get("d"), header.get("projection_seed"))
    except ParameterError as exc:
        raise FormatError(f"{path}: header {exc}") from exc

    by_sample: dict[str, dict[str, np.ndarray]] = {}
    for lineno, obj in lines:
        try:
            rec = ReasoningRecord(
                sample_id=str(obj["sample_id"]),
                view=str(obj["view"]),
                chain=str(obj["chain"]),
                raw_embedding=np.asarray(obj["embedding"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: line {lineno}: bad record ({exc})") from exc
        if rec.raw_embedding.shape != (spec.d_t,):
            raise FormatError(
                f"{path}: line {lineno}: embedding has shape {rec.raw_embedding.shape}, "
                f"header declares d_t={spec.d_t}"
            )
        if not np.isfinite(rec.raw_embedding).all():
            raise FormatError(f"{path}: line {lineno}: non-finite embedding value")
        slot = by_sample.setdefault(rec.sample_id, {})
        if rec.view in slot:
            raise ValidationError(f"duplicate record for ({rec.sample_id!r}, {rec.view})")
        slot[rec.view] = rec.raw_embedding

    missing = [
        (sid, view) for sid, views in by_sample.items() for view in VIEWS if view not in views
    ]
    if missing:
        raise ValidationError(f"missing teacher views: {missing}")

    # row by row: one (3, d_t) GEMM would round differently from three GEMVs
    matrix = spec.matrix()
    embeddings = {
        sid: TeacherEmbeddings(np.stack([views[v] @ matrix for v in VIEWS]))
        for sid, views in by_sample.items()
    }
    return TeacherFileData(spec=spec, embeddings=embeddings)


# ---------------------------------------------------------------------------
# deterministic fallback embedder


# key -> {packed 3-gram -> 64-bit keyed blake2b of its UTF-8 bytes}; a pure
# cache, bounded by the distinct 3-grams seen (2,197 for Sample.content's
# 13-character alphabet)
_GRAM_HASHES: dict[bytes, dict[int, int]] = {}


def fallback_embed(chain: str, d_t: int, seed: int = 0) -> np.ndarray:
    """Hash character 3-grams into d_t signed buckets, then L2-normalize.

    Each 3-gram's keyed blake2b digest picks its bucket (digest mod d_t) and
    its sign (the digest's top bit). Deterministic across runs and platforms;
    the empty (or sub-3-char) string maps to the zero vector, which is left
    unnormalized. A lone surrogate raises ``UnicodeEncodeError``.
    """
    if d_t < 8:
        raise ParameterError(f"d_t must be >= 8, got {d_t}")
    key = hashlib.blake2b(str(seed).encode(), digest_size=16).digest()
    vec = np.zeros(d_t)
    if len(chain) >= 3:
        # code points are < 2**21, so one uint64 holds a whole 3-gram
        points = np.frombuffer(chain.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
        grams = (points[:-2] << np.uint64(42)) | (points[1:-1] << np.uint64(21)) | points[2:]
        distinct, inverse = np.unique(grams, return_inverse=True)
        codes = distinct.tolist()
        memo = _GRAM_HASHES.setdefault(key, {})
        for code in set(codes).difference(memo):
            gram = "".join(chr((code >> shift) & 0x1FFFFF) for shift in (42, 21, 0))
            digest = hashlib.blake2b(gram.encode("utf-8"), key=key, digest_size=8).digest()
            memo[code] = int.from_bytes(digest, "little")
        hashes = np.fromiter(map(memo.__getitem__, codes), dtype=np.uint64, count=len(codes))
        bucket = (hashes % np.uint64(d_t)).astype(np.intp)
        sign = np.where(hashes >> np.uint64(63), -1.0, 1.0)
        # sums of +-1 are exact in float64, so the order of accumulation is free
        vec = np.bincount(bucket[inverse], weights=sign[inverse], minlength=d_t)
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


# ---------------------------------------------------------------------------
# synthetic oracle


@lru_cache(maxsize=32)
def teacher_directions(d: int, seed: int) -> dict[str, np.ndarray]:
    """Fixed orthonormal unit vectors: one class direction + one per corruption view."""
    if d < 4:
        raise ParameterError(f"teacher dimension must be >= 4, got {d}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, 4)))
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity
    dirs = {"class": q[:, 0], "text": q[:, 1], "image": q[:, 2], "cross": q[:, 3]}
    for v in dirs.values():
        v.flags.writeable = False
    return dirs


def synthetic_teacher_oracle(
    corruption: str,
    label: int,
    d: int,
    noise_sigma: float,
    seed: int,
    directions_seed: int = 0,
    class_scale: float = 1.0,
    corruption_scale: float = 2.0,
) -> TeacherEmbeddings:
    """Emulated teacher reasoning with one embedding per analysis view.

    Each view carries the teacher's *per-view* verdict along the class
    direction: + (looks authentic) unless the corruption targets that view,
    in which case the sign flips and the view's corruption direction is added.
    A clean sample is + in all three views. The per-view structure is what
    makes each distillation term informative about exactly one falsity type.

    ``corruption_scale`` is what gives the teacher its higher signal-to-noise
    ratio relative to the student-side features; callers set it from config.
    """
    if corruption not in CORRUPTION_TYPES:
        raise ParameterError(f"unknown corruption type {corruption!r}")
    if (label == 1) != (corruption != "none"):
        raise ParameterError(
            f"label {label} inconsistent with corruption {corruption!r}"
        )
    dirs = teacher_directions(d, directions_seed)
    targeted = CORRUPTION_VIEW.get(corruption)
    rng = np.random.default_rng(seed)
    rows = []
    for view in VIEWS:
        verdict = -1.0 if view == targeted else 1.0
        emb = class_scale * verdict * dirs["class"]
        if view == targeted:
            emb = emb + corruption_scale * dirs[view]
        if noise_sigma > 0.0:
            emb = emb + noise_sigma * rng.normal(size=d)
        rows.append(emb)
    return TeacherEmbeddings(np.stack(rows))


# ---------------------------------------------------------------------------
# reasoning chains: one batched path, a mock or an endpoint as the source


class TeacherEndpointError(RuntimeError):
    def __init__(self, message: str, view: str, sample_id: str):
        super().__init__(message)
        self.view = view
        self.sample_id = sample_id


@dataclass
class SamplePayload:
    """What the teacher sees for one sample: raw text plus an opaque image reference."""

    sample_id: str
    text: str
    image_ref: str = ""


def mock_chain(template: PromptTemplate, payload: SamplePayload) -> str:
    """An offline stand-in for the endpoint: names the view and the sample and
    carries a digest of the filled prompt, so each chain is distinct."""
    prompt = template.fill(payload.text, payload.image_ref)
    digest = hashlib.sha256(prompt.encode()).hexdigest()[:16]
    return f"mock {template.view} reasoning for {payload.sample_id} [{digest}]"


def fetch_chains(fetch, payloads, templates: dict[str, PromptTemplate]) -> list[list[str]]:
    """Each payload's chains, one per view in ``VIEWS`` order, in payload order.

    ``fetch(template, payload) -> str`` is ``mock_chain`` or a client's
    ``fetch_chain``; at most ``MAX_IN_FLIGHT`` calls run at once.
    """
    with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
        return list(pool.map(lambda p: [fetch(templates[v], p) for v in VIEWS], payloads))


@dataclass
class ReasoningClient:
    """Chat-completion client with a one-file-per-key response cache.

    ``network_calls`` counts requests sent and ``cache_hits`` chains read from
    the cache; ``fetch_chains`` shares one client between threads, so both
    are counted under one lock.
    """

    endpoint: str
    cache_dir: str | Path
    model: str = "teacher-mllm"
    timeout: float = 30.0
    retries: int = 3
    network_calls: int = field(default=0, init=False)
    cache_hits: int = field(default=0, init=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not str(self.endpoint).startswith(("http://", "https://")):
            raise ParameterError(f"endpoint must be an http(s):// URL, got {self.endpoint!r}")
        if self.retries < 1:
            raise ParameterError(f"retries must be >= 1, got {self.retries}")
        if not 0.0 < self.timeout < math.inf:
            raise ParameterError(f"timeout must be finite and > 0, got {self.timeout}")

    def cache_key(self, template_id: str, payload: SamplePayload) -> str:
        blob = "\x00".join([template_id, payload.text, payload.image_ref])
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _post_once(self, prompt: str) -> str:
        body = json.dumps(
            {"model": self.model, "messages": [{"role": "user", "content": prompt}]}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(self.endpoint, data=body, headers=headers)
        with self._lock:
            self.network_calls += 1
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            logger.warning("malformed endpoint response; recording empty chain")
            return ""
        return content if isinstance(content, str) else ""

    def fetch_chain(self, template: PromptTemplate, payload: SamplePayload) -> str:
        path = Path(self.cache_dir) / self.cache_key(template.template_id, payload)
        if path.exists():
            with self._lock:
                self.cache_hits += 1
            return path.read_text("utf-8")
        prompt = template.fill(payload.text, payload.image_ref)
        last_error: Exception | None = None
        for _ in range(self.retries):
            try:
                chain = self._post_once(prompt)
            except (urllib.error.URLError, TimeoutError, OSError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error reply holds its connection open
                last_error = exc
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            with replace_atomically(path) as fh:  # a cache entry is whole or absent
                fh.write(chain)
            return chain
        raise TeacherEndpointError(
            f"endpoint failed after {self.retries} attempts for "
            f"({payload.sample_id}, {template.view}): {last_error}",
            view=template.view,
            sample_id=payload.sample_id,
        )
