"""Property tests for the three file parsers and the config parser: any input
either loads or is rejected with the package's own error types, never with a
raw exception; any finite array saved to a features file (format 3, one
record per sample) is written bit-identical and loads back bit-identical, in
file order; and any finite teacher array is written bit-identical and
loads as its exact projection, or is refused if that overflows."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvrd.config import ConfigError, TrainConfig, build_configs, read_config_file
from mvrd.datasynth import SyntheticConfig, generate_dataset, load_features_file, save_features_file
from mvrd.diffcore import ParameterError, ValidationError
from mvrd.fileio import FormatError, read_record_lines
from mvrd.model import Model
from mvrd.teacher import ProjectionSpec, ReasoningRecord, load_teacher_file, save_teacher_file
from mvrd.trainer import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from mvrd.views import SOURCE_TAGS, VIEWS

from features_lines import one_sample_file, tokens_text
from teacher_lines import embeddings_text

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# bytes that steer a mutation towards JSON structure, number syntax and
# base64 token spans (the last decodes to eight 0xFF bytes, a NaN double)
INTERESTING = st.sampled_from(
    [b"", b"\n", b"{", b"}", b"[", b"]", b",", b":", b'"', b"-", b"1e999", b"NaN", b"Infinity",
     b"null", b"true", b"\xff", b"\xc3", b"0", b"9" * 30, b"=", b"//////////8="]
)


def tiny_samples():
    synth = SyntheticConfig(
        n_samples=2, d_in=2, teacher_dim=4, len_text=2, len_image=1, len_clip=1, seed=1
    )
    return generate_dataset(synth)


def write_features(path):
    save_features_file(tiny_samples(), path)


def write_teacher(path):
    rng = np.random.default_rng(0)
    records = [
        ReasoningRecord(f"s{i}", [f"chain {i} {view}" for view in VIEWS], rng.normal(size=(len(VIEWS), 4)))
        for i in range(2)
    ]
    save_teacher_file(records, ProjectionSpec(d_t=4, d=3, seed=2), path)


def write_checkpoint(path):
    cfg = TrainConfig(d=2, d_h=2, heads=1, encoder_heads=1)
    save_checkpoint(Model(cfg, {tag: 2 for tag in SOURCE_TAGS}), path)


def write_config(path):
    path.write_text("# run\nlambda = 0.5\ntau = 2\nheads = 4\ncorruption_mix = 0.5, 0.25, 0.25\n"
                    "seed = 7\nmaster_seed = 3\nablation = drop_L_text\n", "utf-8")


def load_config(path):
    return build_configs(read_config_file(path))


FILE_ERRORS = (FormatError, ValidationError)
# name -> (write a valid file, load one, the errors that refuse one)
PARSERS = {
    "features": (write_features, load_features_file, FILE_ERRORS),
    "teacher": (write_teacher, load_teacher_file, FILE_ERRORS),
    "checkpoint": (write_checkpoint, load_checkpoint, FILE_ERRORS),
    "config": (write_config, load_config, (ConfigError, ParameterError)),
}


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """A valid file with a few spans replaced, deleted or truncated."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(0, len(data)))
        hi = min(len(data), lo + draw(st.integers(0, 8)))
        kind = draw(st.sampled_from(["replace", "truncate", "random"]))
        if kind == "truncate":
            del data[lo:]
        elif kind == "replace":
            data[lo:hi] = draw(INTERESTING)
        else:
            data[lo:hi] = draw(st.binary(max_size=8))
    return bytes(data)


def loads_or_rejects(name, path, blob: bytes) -> None:
    _, load, refusals = PARSERS[name]
    path.write_bytes(blob)
    try:
        load(path)
    except refusals:
        pass


@pytest.mark.parametrize("name", sorted(PARSERS))
@FUZZ
@given(blob=st.binary(max_size=512) | st.binary(max_size=512).map(CHECKPOINT_MAGIC.__add__))
def test_arbitrary_bytes(tmp_path, name, blob):
    loads_or_rejects(name, tmp_path / "fuzzed", blob)


@pytest.mark.parametrize("name", sorted(PARSERS))
@FUZZ
@given(data=st.data())
def test_mutated_valid_file(tmp_path, name, data):
    write = PARSERS[name][0]
    valid = tmp_path / "valid"
    if not valid.exists():
        write(valid)
    blob = data.draw(mutations(valid.read_bytes()))
    loads_or_rejects(name, tmp_path / "fuzzed", blob)


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_deep_nesting_rejected(tmp_path, name):
    _, load, _ = PARSERS[name]
    path = tmp_path / "nested"
    prefix = CHECKPOINT_MAGIC if name == "checkpoint" else b""
    path.write_bytes(prefix + b"[" * 100_000 + b"\n")
    with pytest.raises(ConfigError if name == "config" else FormatError):
        load(path)


WIDTHS = st.one_of(st.integers(-1, 3), st.booleans(), st.floats(0, 3), st.text(max_size=2), st.none())


@FUZZ
@given(
    d_in=WIDTHS.map(lambda w: dict.fromkeys(SOURCE_TAGS, w))
    | st.dictionaries(st.sampled_from(SOURCE_TAGS), WIDTHS),
    width=st.integers(0, 3),
)
def test_features_header_widths(tmp_path, d_in, width):
    """A features file loads only if its header maps every source tag to an
    integer >= 1 (not a bool) and each record's ``width`` doubles fill whole
    rows of that width; the row count is the double count over the width."""
    path = tmp_path / "features.jsonl"
    one_sample_file(path, d_in, dict.fromkeys(SOURCE_TAGS, [[0.5] * width]))
    try:
        samples = load_features_file(path)
    except (FormatError, ValidationError):
        return
    assert all(type(d_in.get(tag)) is int and d_in[tag] >= 1 and width % d_in[tag] == 0 < width
               for tag in SOURCE_TAGS)
    text_width = d_in["text-tokens"]
    assert [s.tokens["text-tokens"].shape for s in samples] == [(width // text_width, text_width)]


# negative zero, the smallest subnormal of each sign, a mid-range subnormal,
# the largest subnormal and the largest finite double of each sign
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
N_TOKENS = sum(a.size for s in tiny_samples() for a in s.tokens.values())


@FUZZ
@given(values=arrays(np.float64, N_TOKENS, elements=FINITE))
@example(values=np.resize(EDGE_FLOATS, N_TOKENS))
def test_finite_tokens_round_trip_bit_identical(tmp_path, values):
    samples = tiny_samples()
    seqs = [a for s in samples for a in s.tokens.values()]
    for tokens, chunk in zip(seqs, np.split(values, np.cumsum([t.size for t in seqs])[:-1])):
        tokens[...] = chunk.reshape(tokens.shape)
    path = tmp_path / "features.jsonl"
    save_features_file(samples, path)
    _, *lines = read_record_lines(path)
    assert [(r["sample_id"], r["tokens"]) for _, r in lines] == [
        (s.sample_id, {tag: tokens_text(s.tokens[tag]) for tag in SOURCE_TAGS})
        for s in samples
    ]
    loaded = load_features_file(path)
    assert [s.sample_id for s in loaded] == [s.sample_id for s in samples]
    back = [a for s in loaded for a in s.tokens.values()]
    assert [t.tobytes() for t in back] == [t.tobytes() for t in seqs]


@FUZZ
@given(rows=arrays(np.float64, (2 * len(VIEWS), 4), elements=FINITE))
@example(rows=np.resize(EDGE_FLOATS, (2 * len(VIEWS), 4)))
def test_finite_embeddings_round_trip_bit_identical(tmp_path, rows):
    """Finite raw rows are written bit-identical. They load as raw @ matrix,
    bit for bit, unless that projection overflows, which is refused."""
    spec = ProjectionSpec(d_t=4, d=3, seed=2)
    blocks = np.split(rows, 2)
    records = [ReasoningRecord(f"s{i}", [""] * len(VIEWS), block) for i, block in enumerate(blocks)]
    path = tmp_path / "teacher.jsonl"
    save_teacher_file(records, spec, path)
    _, *lines = read_record_lines(path)
    assert [r["embeddings"] for _, r in lines] == [embeddings_text(block) for block in blocks]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [np.stack([row @ spec.matrix() for row in block]) for block in blocks]
    if not all(np.isfinite(e).all() for e in expected):
        with pytest.raises(FormatError, match="overflow the projection"):
            load_teacher_file(path)
        return
    loaded = load_teacher_file(path).embeddings
    assert [loaded[r.sample_id].values.tobytes() for r in records] == [e.tobytes() for e in expected]
