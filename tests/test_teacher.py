"""Teacher-side contracts: projection, file format, fallback embedder, oracle,
the one chain path (``fetch_chains``), and the endpoint client with its
on-disk cache, alone and through ``mvrd gen-teacher --mode endpoint``."""

import gc
import hashlib
import io
import json
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from mvrd.datasynth import SyntheticConfig, generate_dataset, save_features_file
from mvrd.diffcore import DimensionError, ParameterError, ValidationError
from mvrd.fileio import FormatError
from mvrd.cli import main
from mvrd.teacher import (
    MAX_IN_FLIGHT,
    ProjectionSpec,
    ReasoningClient,
    ReasoningRecord,
    SamplePayload,
    TeacherEmbeddings,
    TeacherEndpointError,
    default_templates,
    fallback_embed,
    fetch_chains,
    load_teacher_file,
    mock_chain,
    save_teacher_file,
    synthetic_teacher_oracle,
    teacher_directions,
)
from mvrd.views import VIEWS


class TestTemplates:
    def test_bundled_templates_cover_all_views(self):
        templates = default_templates()
        assert set(templates) == {"text", "image", "cross"}
        for view, tpl in templates.items():
            assert tpl.view == view
            assert tpl.body.strip()

    def test_fill_replaces_placeholders(self):
        templates = default_templates()
        filled = templates["cross"].fill("some claim", "img-17")
        assert "some claim" in filled and "img-17" in filled
        assert "{TEXT}" not in filled and "{IMAGE_REF}" not in filled


def make_records(n, d_t, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        for view in ("text", "image", "cross"):
            records.append(ReasoningRecord(f"s{i}", view, f"chain {i} {view}", rng.normal(size=d_t)))
    return records


def load_rows(tmp_path, raw_rows, spec):
    """Save one sample with the given raw (text, image, cross) rows and load
    its projected (3, d) teacher array back."""
    records = [ReasoningRecord("s0", view, "", raw) for view, raw in zip(VIEWS, raw_rows)]
    save_teacher_file(records, spec, tmp_path / "teacher.jsonl")
    return load_teacher_file(tmp_path / "teacher.jsonl").embeddings["s0"].values


def seed_matrix(d_t, d, seed):
    """The projection regenerated from its seed, as the file format defines it."""
    return np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(d_t), size=(d_t, d))


class TestProjection:
    """load_teacher_file projects each view's raw row as raw @ spec.matrix()."""

    def test_zero_maps_to_zero(self, tmp_path):
        out = load_rows(tmp_path, [np.zeros(10)] * 3, ProjectionSpec(d_t=10, d=4, seed=3))
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_basis_vector_reads_matrix_row(self, tmp_path):
        basis = np.eye(6)
        out = load_rows(tmp_path, basis[:3], ProjectionSpec(d_t=6, d=3, seed=11))
        assert np.array_equal(out, seed_matrix(6, 3, 11)[:3])

    def test_loaded_rows_are_raw_times_matrix(self, tmp_path):
        spec = ProjectionSpec(d_t=12, d=5, seed=9)
        assert np.array_equal(spec.matrix(), seed_matrix(12, 5, 9))
        records = make_records(4, 12)
        save_teacher_file(records, spec, tmp_path / "teacher.jsonl")
        loaded = load_teacher_file(tmp_path / "teacher.jsonl").embeddings
        for rec in records:
            row = loaded[rec.sample_id].values[VIEWS.index(rec.view)]
            assert row.tobytes() == (rec.raw_embedding @ spec.matrix()).tobytes()

    def test_matrix_is_pure_function_of_spec(self):
        a = ProjectionSpec(8, 4, 5).matrix()
        b = ProjectionSpec(8, 4, 5).matrix()
        assert np.array_equal(a, b)

    def test_dim_mismatch(self, tmp_path):
        # a raw row must be d_t long; the loaded rows are d wide
        with pytest.raises(FormatError, match="expected"):
            load_rows(tmp_path, [np.zeros(5)] * 3, ProjectionSpec(d_t=6, d=3, seed=0))
        assert load_rows(tmp_path, [np.ones(6)] * 3, ProjectionSpec(6, 3, 0)).shape == (3, 3)

    def test_projection_output_is_gradient_free(self, tmp_path):
        # a plain float64 array, which carries no gradient state by type
        out = load_rows(tmp_path, [np.ones(6)] * 3, ProjectionSpec(6, 3, 0))
        assert type(out) is np.ndarray and out.dtype == np.float64


class TestTeacherFile:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = ProjectionSpec(d_t=12, d=5, seed=9)
        records = make_records(3, 12)
        path = tmp_path / "teacher.jsonl"
        save_teacher_file(records, spec, path)
        loaded = load_teacher_file(path)
        assert loaded.spec == spec
        assert len(loaded.embeddings) == 3
        # the raw rows come back bit-exact: each loaded row is raw @ matrix
        for rec in records:
            row = loaded.embeddings[rec.sample_id].values[VIEWS.index(rec.view)]
            assert np.array_equal(row, rec.raw_embedding @ spec.matrix())
        # the chains are written verbatim
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [json.loads(line)["chain"] for line in lines] == [r.chain for r in records]
        # loading twice gives bit-identical projected embeddings
        again = load_teacher_file(path)
        for sid in loaded.embeddings:
            for view in ("text", "image", "cross"):
                assert np.array_equal(
                    loaded.embeddings[sid].view(view).values,
                    again.embeddings[sid].view(view).values,
                )

    @pytest.mark.parametrize(
        "row, error",
        [(np.zeros(5), r"\(s1, image\) has embedding \(5,\)"), (np.full(8, np.nan), "line 6: non-finite")],
        ids=["wrong-width", "nan"],
    )
    def test_refused_save_keeps_previous_file(self, tmp_path, row, error):
        spec = ProjectionSpec(d_t=8, d=4, seed=0)
        path = tmp_path / "teacher.jsonl"
        save_teacher_file(make_records(3, 8), spec, path)
        before = path.read_bytes()
        records = make_records(3, 8, seed=1)
        records[4].raw_embedding = row  # sample s1's image row, line 6
        with pytest.raises(FormatError, match=error):
            save_teacher_file(records, spec, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["teacher.jsonl"]

    def test_missing_view_named(self, tmp_path):
        spec = ProjectionSpec(d_t=8, d=4, seed=0)
        records = [r for r in make_records(3, 8) if not (r.sample_id == "s2" and r.view == "cross")]
        path = tmp_path / "teacher.jsonl"
        save_teacher_file(records, spec, path)
        with pytest.raises(ValidationError, match=r"s2.*cross"):
            load_teacher_file(path)

    def test_duplicate_record_rejected(self, tmp_path):
        spec = ProjectionSpec(d_t=8, d=4, seed=0)
        records = make_records(1, 8)
        records.append(records[0])
        path = tmp_path / "teacher.jsonl"
        save_teacher_file(records, spec, path)
        with pytest.raises(ValidationError, match="duplicate"):
            load_teacher_file(path)

    def test_dim_mismatch_is_format_error(self, tmp_path):
        path = tmp_path / "teacher.jsonl"
        header = {"format_version": 1, "d_t": 8, "d": 4, "projection_seed": 0}
        record = {"sample_id": "s0", "view": "text", "chain": "", "embedding": [1.0, 2.0]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", "utf-8")
        with pytest.raises(FormatError, match="d_t"):
            load_teacher_file(path)

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "teacher.jsonl"
        header = {"format_version": 1, "d_t": 8, "d": 4, "projection_seed": 0}
        path.write_text(json.dumps(header) + "\n{not json}\n", "utf-8")
        with pytest.raises(FormatError, match="line 2"):
            load_teacher_file(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_embedding_rejected(self, tmp_path, literal):
        path = tmp_path / "teacher.jsonl"
        save_teacher_file(make_records(1, 8), ProjectionSpec(d_t=8, d=4, seed=0), path)
        lines = path.read_text("utf-8").splitlines()
        head, sep, rest = lines[2].partition('"embedding":[')
        lines[2] = head + sep + literal + rest[rest.index(","):]
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(FormatError, match="line 3"):
            load_teacher_file(path)

    @pytest.mark.parametrize(
        "field, value",
        [("d_t", "8"), ("d", 4.5), ("projection_seed", None), ("d", [4]), ("d_t", 0)],
    )
    def test_non_integer_header_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "teacher.jsonl"
        header = {"format_version": 1, "d_t": 8, "d": 4, "projection_seed": 0, field: value}
        path.write_text(json.dumps(header) + "\n", "utf-8")
        with pytest.raises(FormatError, match=field):
            load_teacher_file(path)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(d_t=0), dict(d=0), dict(seed=-1), dict(d_t=8.0), dict(d="4"), dict(seed=True)],
    )
    def test_projection_spec_rejects_bad_fields(self, kwargs):
        fields = dict(d_t=8, d=4, seed=0) | kwargs
        with pytest.raises(ParameterError):
            ProjectionSpec(**fields)

    @pytest.mark.parametrize("blob", [b"", b"\n \n", b'{"format_version": 1}\n\xff\xfe\n'])
    def test_missing_header_or_invalid_utf8_rejected(self, tmp_path, blob):
        path = tmp_path / "teacher.jsonl"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            load_teacher_file(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "teacher.jsonl"
        path.write_text('{"format_version": 2, "d_t": 8, "d": 4, "projection_seed": 0}\n', "utf-8")
        with pytest.raises(FormatError, match="format_version"):
            load_teacher_file(path)


def loop_fallback_embed(chain: str, d_t: int, seed: int) -> np.ndarray:
    """fallback_embed as a plain per-3-gram loop: the reference the
    vectorized version must match bit for bit."""
    key = hashlib.blake2b(str(seed).encode(), digest_size=16).digest()
    vec = np.zeros(d_t)
    for i in range(len(chain) - 2):
        gram = chain[i : i + 3].encode("utf-8")
        h = int.from_bytes(hashlib.blake2b(gram, key=key, digest_size=8).digest(), "little")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        vec[h % d_t] += sign
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


class TestFallbackEmbed:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("d_t", [8, 16, 32])
    def test_equals_per_gram_loop(self, d_t, seed):
        samples = generate_dataset(SyntheticConfig(n_samples=4, seed=5))
        tag_sets = (("text-tokens",), ("image-patches",), ("clip-text", "clip-image"))
        chains = [s.content(*tags) for s in samples for tags in tag_sets]
        chains += ["", "a", "ab", "abc", "aaaa", "abab ab", "\x00\x00\x00", "h\u00e9llo w\u00f6rld"]
        chains += ["\u65e5\u672c\u8a9e\u306e\u30c6\u30ad\u30b9\u30c8", "\U0001f642\U0001f642x\U0001f642"]
        rng = np.random.default_rng(seed)
        for length in rng.integers(0, 50, size=20):
            bmp = rng.integers(32, 0xD800, size=length)
            astral = rng.integers(0xE000, 0x110000, size=length)
            chains.append("".join(map(chr, np.where(rng.random(length) < 0.7, bmp, astral))))
        for chain in chains:
            got = fallback_embed(chain, d_t, seed)
            assert got.tobytes() == loop_fallback_embed(chain, d_t, seed).tobytes(), chain

    def test_lone_surrogate_raises_only_inside_a_gram(self):
        with pytest.raises(UnicodeEncodeError):
            fallback_embed("ab\ud800cd", 8)
        assert np.array_equal(fallback_embed("a\ud800", 8), np.zeros(8))

    def test_deterministic(self):
        a = fallback_embed("the quick brown fox", 16, seed=3)
        b = fallback_embed("the quick brown fox", 16, seed=3)
        assert np.array_equal(a, b)

    def test_empty_string_is_zero_vector(self):
        assert np.array_equal(fallback_embed("", 8), np.zeros(8))
        assert np.array_equal(fallback_embed("ab", 8), np.zeros(8))

    def test_single_trigram_lands_in_one_bucket(self):
        out = fallback_embed("abc", 8, seed=7)
        nonzero = np.nonzero(out)[0]
        assert len(nonzero) == 1
        assert abs(out[nonzero[0]]) == 1.0

    def test_norm_is_zero_or_one(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            length = int(rng.integers(0, 40))
            s = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=length))
            norm = np.linalg.norm(fallback_embed(s, 16, seed=1))
            assert abs(norm - 1.0) < 1e-12 or norm == 0.0

    def test_seed_changes_embedding(self):
        a = fallback_embed("hello world!", 16, seed=1)
        b = fallback_embed("hello world!", 16, seed=2)
        assert not np.array_equal(a, b)

    def test_small_dim_rejected(self):
        with pytest.raises(ParameterError):
            fallback_embed("abc", 4)


class TestSyntheticOracle:
    def test_noiseless_real_is_class_direction(self):
        dirs = teacher_directions(16, 0)
        t = synthetic_teacher_oracle("none", 0, 16, 0.0, seed=1, directions_seed=0)
        for view in ("text", "image", "cross"):
            assert np.array_equal(t.view(view).values, dirs["class"])

    def test_cross_mismatch_targets_only_cross(self):
        dirs = teacher_directions(16, 0)
        t = synthetic_teacher_oracle("cross-mismatch", 1, 16, 0.0, seed=1, directions_seed=0)
        text, image, cross = (t.view(view).values for view in VIEWS)
        # cross view flips the verdict and carries the corruption direction
        assert abs(cross @ dirs["cross"]) > 0.5
        assert abs(text @ dirs["cross"]) < 1e-12
        assert abs(image @ dirs["cross"]) < 1e-12
        # untargeted views report authentic-looking content
        assert np.array_equal(text, dirs["class"])
        assert np.array_equal(image, dirs["class"])

    def test_bit_identical_across_runs(self):
        a = synthetic_teacher_oracle("text-fabrication", 1, 16, 0.5, seed=9, directions_seed=3)
        b = synthetic_teacher_oracle("text-fabrication", 1, 16, 0.5, seed=9, directions_seed=3)
        for view in ("text", "image", "cross"):
            assert np.array_equal(a.view(view).values, b.view(view).values)

    def test_unknown_corruption_rejected(self):
        with pytest.raises(ParameterError):
            synthetic_teacher_oracle("deepfake", 1, 16, 0.0, seed=0)

    def test_label_corruption_consistency_enforced(self):
        with pytest.raises(ParameterError):
            synthetic_teacher_oracle("none", 1, 16, 0.0, seed=0)

    def test_directions_are_orthonormal(self):
        dirs = teacher_directions(24, 5)
        mat = np.stack([dirs[k] for k in ("class", "text", "image", "cross")])
        assert np.allclose(mat @ mat.T, np.eye(4), atol=1e-12)

    def test_embeddings_are_gradient_free(self):
        # one plain (3, d) array, which carries no gradient state by type
        t = synthetic_teacher_oracle("none", 0, 16, 0.3, seed=2)
        assert type(t.values) is np.ndarray and t.values.shape == (3, 16)
        for view in ("text", "image", "cross"):
            assert not t.view(view).requires_grad


class TestTeacherEmbeddingsType:
    def test_rejects_bad_shapes(self):
        for shape in ((4,), (2, 4), (3, 4, 1)):
            with pytest.raises(DimensionError):
                TeacherEmbeddings(np.zeros(shape))


# ---------------------------------------------------------------------------
# endpoint client


class _EchoHandler(BaseHTTPRequestHandler):
    fail_next = 0
    calls = 0

    def do_POST(self):
        type(self).calls += 1
        if type(self).fail_next > 0:
            type(self).fail_next -= 1
            self.send_error(500, "induced failure")
            return
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        prompt = request["messages"][0]["content"]
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": f"echo: {prompt[:40]}"}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def echo_server():
    _EchoHandler.fail_next = 0
    _EchoHandler.calls = 0
    server = HTTPServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestReasoningClient:
    def test_fetches_one_chain_per_view(self, echo_server, tmp_path):
        client = ReasoningClient(echo_server, tmp_path / "cache")
        payload = SamplePayload("s1", "headline text", "img-1")
        [chains] = fetch_chains(client.fetch_chain, [payload], default_templates())
        assert len(chains) == len(VIEWS)
        assert all(c.startswith("echo:") for c in chains)
        assert client.network_calls == len(VIEWS)

    def test_cache_hit_makes_zero_network_calls(self, echo_server, tmp_path):
        client = ReasoningClient(echo_server, tmp_path / "cache")
        payload = [SamplePayload("s1", "headline text", "img-1")]
        first = fetch_chains(client.fetch_chain, payload, default_templates())
        assert (client.network_calls, client.cache_hits) == (3, 0)
        second = fetch_chains(client.fetch_chain, payload, default_templates())
        assert (client.network_calls, client.cache_hits) == (3, 3)
        assert first == second

    def test_unreachable_endpoint_errors_after_n_retries(self, tmp_path):
        client = ReasoningClient(
            "http://127.0.0.1:1",  # nothing listens here
            tmp_path / "cache",
            retries=3,
            timeout=0.5,
        )
        payload = SamplePayload("s9", "text", "img")
        with pytest.raises(TeacherEndpointError) as excinfo:
            client.fetch_chain(default_templates()["text"], payload)
        assert excinfo.value.view == "text"
        assert excinfo.value.sample_id == "s9"
        assert client.network_calls == 3

    def test_transient_failure_is_retried(self, echo_server, tmp_path):
        _EchoHandler.fail_next = 1
        client = ReasoningClient(echo_server, tmp_path / "cache", retries=3)
        chain = client.fetch_chain(default_templates()["text"], SamplePayload("s2", "t", "i"))
        assert chain.startswith("echo:")

    def test_error_reply_closes_its_connection(self, echo_server, tmp_path):
        _EchoHandler.fail_next = 1
        client = ReasoningClient(echo_server, tmp_path / "cache", retries=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            client.fetch_chain(default_templates()["text"], SamplePayload("s3", "t", "i"))
            gc.collect()  # the retried error is freed with its traceback cycle
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_cache_file_named_by_key_digest(self, echo_server, tmp_path):
        cache_dir = tmp_path / "cache"
        client = ReasoningClient(echo_server, cache_dir)
        payload = SamplePayload("s1", "body", "img")
        template = default_templates()["text"]
        client.fetch_chain(template, payload)
        key = client.cache_key(template.template_id, payload)
        assert (cache_dir / key).exists()

    def test_network_calls_counted_across_threads(self, tmp_path, monkeypatch):
        class Reply(io.BytesIO):
            def __init__(self):
                super().__init__(b'{"choices": [{"message": {"content": "stub"}}]}')

        monkeypatch.setattr("mvrd.teacher.urllib.request.urlopen", lambda request, timeout: Reply())
        client = ReasoningClient("http://stub.invalid", tmp_path / "cache")
        payloads = [SamplePayload(f"s{i}", f"text {i}", f"img-{i}") for i in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            chains = fetch_chains(client.fetch_chain, payloads, default_templates())
            cached = fetch_chains(client.fetch_chain, payloads, default_templates())
        finally:
            sys.setswitchinterval(interval)
        assert cached == chains and len(chains) == len(payloads)
        assert client.network_calls == client.cache_hits == 3 * len(payloads)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(endpoint=None), dict(endpoint="ftp://x"), dict(retries=0), dict(timeout=0.0),
         dict(timeout=-1.0), dict(timeout=float("nan"))],
        ids=["no-endpoint", "ftp", "zero-retries", "zero-timeout", "negative-timeout",
             "nan-timeout"],
    )
    def test_bad_settings_refused_before_any_request(self, tmp_path, kwargs):
        with pytest.raises(ParameterError):
            ReasoningClient(**{"endpoint": "http://127.0.0.1:1", "cache_dir": tmp_path, **kwargs})


class TestFetchChains:
    def test_chains_in_payload_and_view_order(self):
        templates = default_templates()
        payloads = [SamplePayload(f"s{i}", f"text {i}", f"img-{i}") for i in range(9)]
        chains = fetch_chains(mock_chain, payloads, templates)
        assert chains == [[mock_chain(templates[v], p) for v in VIEWS] for p in payloads]
        assert chains[0][1].startswith("mock image reasoning for s0 [")

    def test_at_most_max_in_flight_calls_at_once(self):
        lock, running, peak = threading.Lock(), [0], [0]

        def fetch(template, payload):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.002)
            with lock:
                running[0] -= 1
            return payload.sample_id

        payloads = [SamplePayload(f"s{i}", "t") for i in range(4 * MAX_IN_FLIGHT)]
        chains = fetch_chains(fetch, payloads, default_templates())
        assert chains == [[p.sample_id] * len(VIEWS) for p in payloads]
        assert 1 < peak[0] <= MAX_IN_FLIGHT


class TestGenTeacherEndpoint:
    """``mvrd gen-teacher --mode endpoint`` against the local echo server."""

    @pytest.fixture()
    def features(self, tmp_path):
        synth = SyntheticConfig(
            n_samples=4, d_in=4, teacher_dim=4, len_text=2, len_image=2, len_clip=1, seed=2
        )
        path = tmp_path / "features.jsonl"
        save_features_file(generate_dataset(synth), path)
        return path

    def run(self, features, out, *flags):
        argv = ["gen-teacher", "--features", str(features), "--mode", "endpoint", "--d-t", "16",
                "--student-dim", "8", "--out", str(out), *flags]
        return main(argv)

    def test_writes_a_loadable_file_of_echoed_chains(self, echo_server, features, tmp_path, capsys):
        out, cache = tmp_path / "teacher.jsonl", tmp_path / "cache"
        assert self.run(features, out, "--endpoint", echo_server, "--cache-dir", str(cache)) == 0
        assert "(12 network calls, 0 cache hits)" in capsys.readouterr().out
        assert len(load_teacher_file(out).embeddings) == 4
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == 12
        assert all(json.loads(line)["chain"].startswith("echo:") for line in lines)

        calls = _EchoHandler.calls
        again = tmp_path / "again.jsonl"
        assert self.run(features, again, "--endpoint", echo_server, "--cache-dir", str(cache)) == 0
        assert "(0 network calls, 12 cache hits)" in capsys.readouterr().out
        assert _EchoHandler.calls == calls
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [[], ["--endpoint", "ftp://x"], ["--endpoint", "{echo}", "--retries", "0"],
         ["--endpoint", "{echo}", "--timeout", "0"]],
        ids=["no-endpoint", "ftp", "zero-retries", "zero-timeout"],
    )
    def test_bad_client_setting_exits_before_any_request(
        self, echo_server, features, tmp_path, capsys, flags
    ):
        flags = [flag.format(echo=echo_server) for flag in flags]
        out = tmp_path / "teacher.jsonl"
        assert self.run(features, out, "--cache-dir", str(tmp_path / "cache"), *flags) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not out.exists()
        assert _EchoHandler.calls == 0
