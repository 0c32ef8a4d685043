"""Property tests for the three file parsers and the config parser: any input
either loads or is rejected with the package's own error types, never with a
raw exception; and any finite array saved to a features or teacher file loads
back bit-identical."""

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

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# bytes that steer a mutation towards JSON structure and number syntax
INTERESTING = st.sampled_from(
    [b"", b"\n", b"{", b"}", b"[", b"]", b",", b":", b'"', b"-", b"1e999", b"NaN", b"Infinity",
     b"null", b"true", b"\xff", b"\xc3", b"0", b"9" * 30]
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
        ReasoningRecord(f"s{i}", view, f"chain {i}", rng.normal(size=4))
        for i in range(2)
        for view in VIEWS
    ]
    save_teacher_file(records, ProjectionSpec(d_t=4, d=3, seed=2), path)


def write_checkpoint(path):
    cfg = TrainConfig(d=2, d_h=2, heads=1, encoder_heads=1)
    save_checkpoint(Model(cfg, {tag: 2 for tag in SOURCE_TAGS}), path)


def write_config(path):
    path.write_text("# run\nlambda = 0.5\ntau = 2\nheads = 4\ncorruption_mix = 0.5, 0.25, 0.25\n"
                    "seed = 7\nmaster_seed = 3\ndrop_L_text = yes\n", "utf-8")


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
    integer >= 1 (not a bool) and its tokens have that width."""
    import json

    lines = [json.dumps({"format_version": 1, "d_in": d_in})] + [
        json.dumps({"sample_id": "s", "label": 0, "corruption": "none", "source_tag": tag,
                    "tokens": [[0.5] * width]})
        for tag in SOURCE_TAGS
    ]
    path = tmp_path / "features.jsonl"
    path.write_text("\n".join(lines) + "\n", "utf-8")
    try:
        samples = load_features_file(path)
    except (FormatError, ValidationError):
        return
    assert all(type(d_in.get(tag)) is int and d_in[tag] == width >= 1 for tag in SOURCE_TAGS)
    assert [s.text_seq.tokens.shape[1] for s in samples] == [width]


# negative zero, the smallest subnormal of each sign, a mid-range subnormal,
# the largest subnormal and the largest finite double of each sign
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
N_TOKENS = sum(seq.tokens.values.size for s in tiny_samples() for seq in s.sequences().values())


@FUZZ
@given(values=arrays(np.float64, N_TOKENS, elements=FINITE))
@example(values=np.resize(EDGE_FLOATS, N_TOKENS))
def test_finite_tokens_round_trip_bit_identical(tmp_path, values):
    samples = tiny_samples()
    seqs = [seq.tokens.values for s in samples for seq in s.sequences().values()]
    for tokens, chunk in zip(seqs, np.split(values, np.cumsum([t.size for t in seqs])[:-1])):
        tokens[...] = chunk.reshape(tokens.shape)
    path = tmp_path / "features.jsonl"
    save_features_file(samples, path)
    back = [seq.tokens.values for s in load_features_file(path) for seq in s.sequences().values()]
    assert [t.tobytes() for t in back] == [t.tobytes() for t in seqs]


@FUZZ
@given(rows=arrays(np.float64, (2 * len(VIEWS), 4), elements=FINITE))
@example(rows=np.resize(EDGE_FLOATS, (2 * len(VIEWS), 4)))
def test_finite_embeddings_round_trip_bit_identical(tmp_path, rows):
    spec = ProjectionSpec(d_t=4, d=3, seed=2)
    records = [ReasoningRecord(f"s{i // len(VIEWS)}", view, "", row)
               for i, (view, row) in enumerate(zip(VIEWS * 2, rows))]
    path = tmp_path / "teacher.jsonl"
    save_teacher_file(records, spec, path)
    _, *lines = read_record_lines(path)
    assert [np.asarray(r["embedding"]).tobytes() for _, r in lines] == [r.tobytes() for r in rows]
    # the projected rows too, overflow and all, as the loader computes them
    with np.errstate(over="ignore", invalid="ignore"):
        loaded = load_teacher_file(path).embeddings
        expected = [row @ spec.matrix() for row in rows]
    got = [loaded[r.sample_id].values[VIEWS.index(r.view)] for r in records]
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
