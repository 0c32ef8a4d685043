"""Property tests for the three file parsers and the config parser: any input
either loads or is rejected with the package's own error types, never with a
raw exception."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvrd.config import ConfigError, TrainConfig, build_configs, read_config_file
from mvrd.datasynth import SyntheticConfig, generate_dataset, load_features_file, save_features_file
from mvrd.diffcore import ParameterError, ValidationError
from mvrd.fileio import FormatError
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


def write_features(path):
    synth = SyntheticConfig(
        n_samples=2, d_in=2, teacher_dim=4, len_text=2, len_image=1, len_clip=1, seed=1
    )
    save_features_file(generate_dataset(synth), path)


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
