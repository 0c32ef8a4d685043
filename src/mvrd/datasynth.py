"""Synthetic dataset generation and feature-file ingestion.

A features file (format 3) is JSON lines: a header with ``format_version``
and the ``d_in`` width of each source tag, then one record per sample, its
``sample_id``, ``label``, ``corruption`` and ``tokens``. ``tokens`` maps each
source tag, in ``SOURCE_TAGS`` order, to ``fileio.encode_floats``' base64 of
its (L, d_in[tag]) token array, so tokens are neither printed nor parsed as
decimal text. The loader builds each sample from its one line.

In memory ``Sample.tokens`` maps the same tags to the plain arrays that
``generate_dataset`` drew or ``decode_floats`` returned (read-only views of
the decoded bytes), and nothing copies them until a batch is stacked.

Real samples draw all four embedded sequences around one shared latent, so
the modalities agree. Fake samples carry exactly one falsity type:

* text-fabrication: a fixed corruption direction is added to a seeded subset
  of text token positions
* image-artifact: the same, on image patch positions
* cross-mismatch: the aligned image sequence is built from a *different
  sample's* latent, while text/image/aligned-text stay self-consistent, so the
  inconsistency is only visible to the cross view

The student-side corruption amplitude is deliberately attenuated relative to
the synthetic teacher's, which is what makes distillation measurably useful
at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .diffcore import ParameterError, Tensor, ValidationError
from .fileio import (
    FormatError, check_format_version, decode_floats, encode_floats, read_record_lines, write_records,
)
from .model import one_shape
from .teacher import (
    CORRUPTION_TYPES,
    TeacherEmbeddings,
    synthetic_teacher_oracle,
)
from .views import SOURCE_TAGS, check_d_in

FAKE_TYPES = ("text-fabrication", "image-artifact", "cross-mismatch")


@dataclass
class EmbeddedSequence:
    """One of ``Sample.tokens``' arrays as ``perfbench/`` reads it."""

    tokens: Tensor


@dataclass(eq=False)  # == on a dict of arrays raises
class Sample:
    """One news item at desk scale: label, four token arrays, teacher targets.
    ``tokens`` maps each of ``SOURCE_TAGS``, in order, to a plain
    (L >= 1, d_in[tag]) float64 array."""

    sample_id: str
    label: int
    corruption: str
    tokens: dict[str, np.ndarray]
    teacher: TeacherEmbeddings | None = None

    def __post_init__(self):
        where = f"sample {self.sample_id!r}"
        if self.corruption not in CORRUPTION_TYPES:
            raise ValidationError(f"{where}: unknown corruption type {self.corruption!r}")
        if type(self.label) is not int or self.label not in (0, 1):
            raise ValidationError(f"{where}: label must be the integer 0 (real) or 1 (fake), "
                                  f"not {self.label!r}")
        if (self.label == 1) != (self.corruption != "none"):
            raise ValidationError(f"{where}: label {self.label} inconsistent with "
                                  f"corruption {self.corruption!r}")
        if not (isinstance(self.tokens, dict) and set(self.tokens) == set(SOURCE_TAGS)
                and all(np.ndim(a) == 2 and len(a) >= 1 for a in self.tokens.values())):
            raise ValidationError(f"{where}: tokens must map exactly the source tags "
                                  f"{list(SOURCE_TAGS)} to (L >= 1, d_in) arrays")

    def sequences(self) -> dict[str, EmbeddedSequence]:
        """``tokens`` in ``SOURCE_TAGS`` order, each wrapped without a copy, as
        ``perfbench/`` reads them (``sequences()[tag].tokens.values``). Kept
        only for that reader: it goes once the benchmark reads ``tokens``."""
        return {tag: EmbeddedSequence(Tensor._wrap(self.tokens[tag], False)) for tag in SOURCE_TAGS}

    def content(self, *tags: str) -> str:
        """The named sequences, each mean-pooled over positions, as 3-decimal
        text: the raw content a prompt-less teacher sees."""
        pooled = np.concatenate([self.tokens[tag].mean(axis=0) for tag in tags])
        return " ".join(format(v, ".3f") for v in pooled)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic corpus; fully seed-deterministic."""

    n_samples: int = 2500
    class_balance: float = 0.5
    corruption_mix: tuple = (1 / 3, 1 / 3, 1 / 3)
    d_in: int = 32
    len_text: int = 8
    len_image: int = 8
    len_clip: int = 4
    signal_strength: float = 2.0
    student_corruption_snr: float = 4.0
    noise_sigma: float = 1.0
    clip_alignment_gain: float = 2.0
    teacher_dim: int = 32
    teacher_snr_ratio: float = 4.0
    seed: int = 0

    def validate(self) -> "SyntheticConfig":
        # each check is written so that a NaN fails it
        if self.n_samples < 1:
            raise ParameterError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 <= self.class_balance <= 1.0:
            raise ParameterError(f"class_balance must lie in [0, 1], got {self.class_balance}")
        mix = np.asarray(self.corruption_mix, dtype=np.float64)
        if len(mix) != len(FAKE_TYPES) or not (np.all(mix >= 0) and abs(mix.sum() - 1.0) <= 1e-9):
            raise ParameterError(
                f"corruption_mix must be {len(FAKE_TYPES)} nonnegative proportions summing to 1, "
                f"got {self.corruption_mix}"
            )
        if min(self.len_text, self.len_image, self.len_clip) < 1:
            raise ParameterError("sequence lengths must be >= 1")
        if self.d_in < 2 or self.teacher_dim < 4:
            raise ParameterError("d_in must be >= 2 and teacher_dim >= 4")
        magnitudes = (self.noise_sigma, self.signal_strength, self.student_corruption_snr)
        if not all(0.0 <= v < math.inf for v in magnitudes):
            raise ParameterError("signal and noise magnitudes must be finite and nonnegative")
        if not 0.0 < self.clip_alignment_gain < math.inf:
            raise ParameterError("clip_alignment_gain must be finite and positive")
        if not 1.0 <= self.teacher_snr_ratio < math.inf:
            raise ParameterError("teacher_snr_ratio must be finite and >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        return self

    @property
    def student_corruption_scale(self) -> float:
        return self.signal_strength * self.student_corruption_snr

    @property
    def teacher_corruption_scale(self) -> float:
        return self.teacher_snr_ratio * self.student_corruption_scale


@lru_cache(maxsize=32)
def _student_directions(d_in: int, seed: int) -> dict[str, np.ndarray]:
    """Fixed orthonormal corruption directions in input space."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD1)))
    q, r = np.linalg.qr(rng.normal(size=(d_in, 2)))
    q = q * np.sign(np.diag(r))
    dirs = {"text": q[:, 0], "image": q[:, 1]}
    for v in dirs.values():
        v.flags.writeable = False
    return dirs


def _assignments(cfg: SyntheticConfig) -> list[tuple[int, str]]:
    """Exact label/corruption counts: class balance, then largest-remainder mix."""
    n_real = round(cfg.n_samples * cfg.class_balance)
    n_fake = cfg.n_samples - n_real
    raw = [p * n_fake for p in cfg.corruption_mix]
    counts = [int(np.floor(x)) for x in raw]
    remainders = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in remainders[: n_fake - sum(counts)]:
        counts[i] += 1
    out = [(0, "none")] * n_real
    for kind, count in zip(FAKE_TYPES, counts):
        out.extend([(1, kind)] * count)
    return out


def _latent(cfg: SyntheticConfig, index: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index, 0)))
    return rng.normal(size=cfg.d_in)


def _planted_positions(rng: np.random.Generator, length: int) -> np.ndarray:
    # corrupt a sparse subset of positions: mean pooling dilutes the signal by
    # k/length while attention can learn to single the outlier tokens out
    k = max(1, length // 8)
    return rng.choice(length, size=k, replace=False)


def generate_dataset(cfg: SyntheticConfig) -> list[Sample]:
    """Generate the synthetic corpus with teacher embeddings attached."""
    cfg.validate()
    dirs = _student_directions(cfg.d_in, cfg.seed)
    c_student = cfg.student_corruption_scale
    samples = []
    for i, (label, corruption) in enumerate(_assignments(cfg)):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i, 1)))
        z = _latent(cfg, i)

        def draw(length, latent, gain=1.0, local_rng=rng):
            return gain * latent + cfg.noise_sigma * local_rng.normal(size=(length, cfg.d_in))

        text = draw(cfg.len_text, z)
        image = draw(cfg.len_image, z)
        # the aligned (clip) channels carry the latent more strongly, so the
        # cross view has a workable agreement signal to compare
        clip_text = draw(cfg.len_clip, z, cfg.clip_alignment_gain)
        if corruption == "cross-mismatch":
            partner = _latent(cfg, (i + 1) % cfg.n_samples)
            clip_image = draw(cfg.len_clip, partner, cfg.clip_alignment_gain)
        else:
            clip_image = draw(cfg.len_clip, z, cfg.clip_alignment_gain)
        if corruption == "text-fabrication":
            text[_planted_positions(rng, cfg.len_text)] += c_student * dirs["text"]
        elif corruption == "image-artifact":
            image[_planted_positions(rng, cfg.len_image)] += c_student * dirs["image"]

        teacher_seed = int(np.random.SeedSequence((cfg.seed, i, 2)).generate_state(1)[0])
        # the oracle's advantage is twofold: amplified corruption signal and
        # attenuated noise; either alone already meets the >= ratio contract
        teacher = synthetic_teacher_oracle(
            corruption,
            label,
            cfg.teacher_dim,
            cfg.noise_sigma / cfg.teacher_snr_ratio,
            teacher_seed,
            directions_seed=cfg.seed,
            class_scale=cfg.signal_strength,
            corruption_scale=cfg.teacher_corruption_scale,
        )
        tokens = dict(zip(SOURCE_TAGS, (text, image, clip_text, clip_image)))
        samples.append(Sample(f"s{i:05d}", label, corruption, tokens, teacher))
    return samples


def split(dataset: list[Sample], fractions, seed: int) -> tuple[list[Sample], ...]:
    """Stratified-by-label split; deterministic, disjoint, exhaustive."""
    fractions = tuple(float(f) for f in fractions)
    # written so that a NaN fails it
    if not (len(fractions) >= 2 and all(f >= 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):
        raise ParameterError(f"fractions must be nonnegative and sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    parts: list[list[Sample]] = [[] for _ in fractions]
    for label in (0, 1):
        indices = [i for i, s in enumerate(dataset) if s.label == label]
        rng.shuffle(indices)
        n = len(indices)
        bounds = [round(sum(fractions[: k + 1]) * n) for k in range(len(fractions))]
        start = 0
        for part, stop in zip(parts, bounds):
            part.extend(dataset[i] for i in indices[start:stop])
            start = stop
    return tuple(parts)


def attach_teacher(samples: list[Sample], embeddings: dict[str, TeacherEmbeddings]) -> None:
    """Attach loaded teacher embeddings in place; every sample must have an entry."""
    missing = [s.sample_id for s in samples if s.sample_id not in embeddings]
    if missing:
        raise ValidationError(f"teacher embeddings missing for samples: {missing[:5]}")
    for s in samples:
        s.teacher = embeddings[s.sample_id]


# ---------------------------------------------------------------------------
# feature files


FEATURES_VERSION = 3
_REMEDY = "; regenerate the file with `mvrd gen-data`, or re-save its samples with `save_features_file`"


def save_features_file(samples: list[Sample], path) -> None:
    """Write one line-delimited record per sample, its four token arrays as
    ``encode_floats`` text keyed by source tag; a non-finite token raises
    ``FormatError`` naming its line and sample, and the previous file stays whole."""
    # an empty list, mixed widths or ragged lengths raise before the file is opened
    d_in = {tag: one_shape(tag, [s.tokens[tag].shape for s in samples])[-1] for tag in SOURCE_TAGS}

    def records():
        yield {"format_version": FEATURES_VERSION, "d_in": d_in}
        for lineno, s in enumerate(samples, start=2):
            where = f"{path}: line {lineno}: sample {s.sample_id!r}"
            yield {"sample_id": s.sample_id, "label": s.label, "corruption": s.corruption,
                   "tokens": {tag: encode_floats(s.tokens[tag], f"{where}, {tag}") for tag in SOURCE_TAGS}}

    write_records(path, records())


def load_features_file(path) -> list[Sample]:
    """Load samples from a features file, in file order; teacher embeddings
    attach separately. Only format 3 is read; any other version is refused
    with ``FormatError``. A sample seen twice is refused too."""
    path = Path(path)
    lines = read_record_lines(path)
    _, header = next(lines, (0, None))
    if header is None:
        return []
    check_format_version(path, header, FEATURES_VERSION, _REMEDY)
    d_in = header.get("d_in")
    check_d_in(d_in, FormatError, f"{path}: header d_in")

    samples: dict[str, Sample] = {}
    for lineno, obj in lines:
        try:
            sid, label, tokens = str(obj["sample_id"]), obj["label"], obj["tokens"]
            corruption = str(obj["corruption"])
        except KeyError as exc:
            raise FormatError(f"{path}: line {lineno}: bad record (no field {exc})") from exc
        where = f"{path}: line {lineno}: sample {sid!r}"
        if not (isinstance(tokens, dict) and set(tokens) == set(SOURCE_TAGS)):
            raise FormatError(f"{where}: tokens must map exactly the source tags {list(SOURCE_TAGS)}")
        if sid in samples:
            raise ValidationError(f"{where}: duplicate record for the sample")
        arrays = {tag: decode_floats(tokens[tag], d_in[tag], f"{where}, {tag}") for tag in SOURCE_TAGS}
        try:
            samples[sid] = Sample(sid, label, corruption, arrays)
        except ValidationError as exc:  # Sample's label and corruption rules name the sample
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    return list(samples.values())
