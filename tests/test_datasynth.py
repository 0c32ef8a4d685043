"""Synthetic corpus contracts: determinism, corruption construction, the
undetectability of cross-mismatch outside the cross view, splits, and the
feature file format."""

import base64
import json

import numpy as np
import pytest

from mvrd.datasynth import (
    Sample,
    SyntheticConfig,
    attach_teacher,
    generate_dataset,
    load_features_file,
    save_features_file,
    split,
)
from mvrd.diffcore import ParameterError, Tensor, ValidationError
from mvrd.fileio import FormatError
from mvrd.metrics import welch_ttest
from mvrd.views import SOURCE_TAGS, EmbeddedSequence

from features_lines import header_line, one_sample_file, tokens_text

# a features header that loads, so that a later line's fault is the one reported
VALID_HEADER = header_line({tag: 2 for tag in SOURCE_TAGS}).encode()
# one row that fits VALID_HEADER's widths
ROW = tokens_text([[0.5, 0.25]])


def small_cfg(**kw):
    defaults = dict(n_samples=60, len_text=4, len_image=4, len_clip=3, d_in=8, teacher_dim=8, seed=5)
    defaults.update(kw)
    return SyntheticConfig(**defaults)


class TestGenerate:
    def test_deterministic_bit_exact(self):
        a = generate_dataset(small_cfg())
        b = generate_dataset(small_cfg())
        for s1, s2 in zip(a, b):
            assert s1.sample_id == s2.sample_id
            assert s1.label == s2.label and s1.corruption == s2.corruption
            for tag in s1.sequences():
                assert np.array_equal(
                    s1.sequences()[tag].tokens.values, s2.sequences()[tag].tokens.values
                )
            for view in ("text", "image", "cross"):
                assert np.array_equal(s1.teacher.view(view).values, s2.teacher.view(view).values)

    def test_label_corruption_consistency(self):
        for s in generate_dataset(small_cfg()):
            assert (s.label == 1) == (s.corruption != "none")

    def test_degenerate_mix(self):
        ds = generate_dataset(small_cfg(corruption_mix=(1.0, 0.0, 0.0)))
        fakes = [s for s in ds if s.label == 1]
        assert fakes and all(s.corruption == "text-fabrication" for s in fakes)

    def test_class_balance_exact(self):
        ds = generate_dataset(small_cfg(n_samples=100, class_balance=0.5))
        assert sum(s.label == 0 for s in ds) == 50

    def test_mix_counts_largest_remainder(self):
        ds = generate_dataset(small_cfg(n_samples=20, class_balance=0.5))
        counts = {}
        for s in ds:
            if s.label == 1:
                counts[s.corruption] = counts.get(s.corruption, 0) + 1
        assert sum(counts.values()) == 10
        assert sorted(counts.values(), reverse=True) == [4, 3, 3]

    def test_noiseless_cross_mismatch_construction(self):
        cfg = small_cfg(noise_sigma=0.0, corruption_mix=(0.0, 0.0, 1.0), clip_alignment_gain=2.0)
        ds = generate_dataset(cfg)
        for s in ds:
            z_text = s.text_seq.tokens.values[0]
            assert np.array_equal(s.image_seq.tokens.values[0], z_text)  # modalities agree
            clip_t = s.clip_text_seq.tokens.values[0] / cfg.clip_alignment_gain
            clip_i = s.clip_image_seq.tokens.values[0] / cfg.clip_alignment_gain
            assert np.allclose(clip_t, z_text, atol=1e-12)
            if s.corruption == "cross-mismatch":
                assert not np.allclose(clip_i, z_text, atol=1e-6)  # latent replaced
            else:
                assert np.allclose(clip_i, z_text, atol=1e-12)

    def test_mismatch_partner_is_another_samples_latent(self):
        cfg = small_cfg(noise_sigma=0.0, corruption_mix=(0.0, 0.0, 1.0))
        ds = generate_dataset(cfg)
        by_index = {int(s.sample_id[1:]): s for s in ds}
        for idx, s in by_index.items():
            if s.corruption != "cross-mismatch":
                continue
            partner = by_index[(idx + 1) % len(ds)]
            partner_latent = partner.text_seq.tokens.values[0]
            clip_i = s.clip_image_seq.tokens.values[0] / cfg.clip_alignment_gain
            assert np.allclose(clip_i, partner_latent, atol=1e-12)

    def test_text_fabrication_perturbs_subset_of_text_positions(self):
        cfg = small_cfg(noise_sigma=0.0, corruption_mix=(1.0, 0.0, 0.0), len_text=8)
        for s in generate_dataset(cfg):
            if s.corruption != "text-fabrication":
                continue
            z = s.image_seq.tokens.values[0]
            deltas = np.linalg.norm(s.text_seq.tokens.values - z, axis=1)
            assert (deltas > 1e-9).sum() == 1  # sparse planting: one position for L=8

    def test_invalid_mix_rejected(self):
        with pytest.raises(ParameterError):
            generate_dataset(small_cfg(corruption_mix=(0.5, 0.5, 0.5)))
        with pytest.raises(ParameterError):
            SyntheticConfig(corruption_mix=(-0.5, 0.5, 1.0)).validate()


class TestCrossMismatchMarginals:
    def test_text_and_image_marginals_match_real(self):
        # two-sample mean test per dimension at generation scale >= 1000;
        # Bonferroni-corrected threshold keeps the false alarm rate below 1%
        cfg = SyntheticConfig(
            n_samples=2000, class_balance=0.5, corruption_mix=(0.0, 0.0, 1.0), seed=11
        )
        ds = generate_dataset(cfg)
        real = [s for s in ds if s.label == 0]
        fake = [s for s in ds if s.label == 1]
        assert len(real) >= 1000 and len(fake) >= 1000
        n_tests = 0
        min_p = 1.0
        for attr in ("text_seq", "image_seq"):
            pooled_real = np.stack([getattr(s, attr).tokens.values.mean(axis=0) for s in real])
            pooled_fake = np.stack([getattr(s, attr).tokens.values.mean(axis=0) for s in fake])
            for dim in range(cfg.d_in):
                result = welch_ttest(pooled_real[:, dim], pooled_fake[:, dim])
                min_p = min(min_p, result.p)
                n_tests += 1
        assert min_p > 0.01 / n_tests

    def test_planted_corruption_is_detectable_where_intended(self):
        # sanity counterpart: the text marginal of text-fabrication samples
        # must differ from real
        cfg = SyntheticConfig(n_samples=2000, corruption_mix=(1.0, 0.0, 0.0), seed=12)
        ds = generate_dataset(cfg)
        real = np.stack([s.text_seq.tokens.values.mean(axis=0) for s in ds if s.label == 0])
        fake = np.stack([s.text_seq.tokens.values.mean(axis=0) for s in ds if s.label == 1])
        min_p = min(welch_ttest(real[:, d], fake[:, d]).p for d in range(cfg.d_in))
        assert min_p < 1e-6


class TestSplit:
    def test_exact_stratification(self):
        ds = generate_dataset(small_cfg(n_samples=100, class_balance=0.5))
        train, test = split(ds, (0.8, 0.2), seed=0)
        assert len(train) == 80 and len(test) == 20
        assert sum(s.label == 0 for s in train) == 40
        assert sum(s.label == 1 for s in train) == 40
        assert sum(s.label == 0 for s in test) == 10

    def test_same_seed_same_split(self):
        ds = generate_dataset(small_cfg())
        a = split(ds, (0.7, 0.3), seed=3)
        b = split(ds, (0.7, 0.3), seed=3)
        assert [s.sample_id for s in a[0]] == [s.sample_id for s in b[0]]

    def test_partition_property(self):
        ds = generate_dataset(small_cfg())
        train, test = split(ds, (0.6, 0.4), seed=9)
        train_ids = {s.sample_id for s in train}
        test_ids = {s.sample_id for s in test}
        assert train_ids | test_ids == {s.sample_id for s in ds}
        assert train_ids & test_ids == set()

    def test_bad_fractions(self):
        ds = generate_dataset(small_cfg())
        with pytest.raises(ParameterError):
            split(ds, (0.5, 0.6), seed=0)

    @pytest.mark.parametrize(
        "fractions", [(float("nan"), 1.0), (0.5, float("nan")), (float("inf"), float("-inf"))]
    )
    def test_non_finite_fractions(self, fractions):
        ds = generate_dataset(small_cfg())
        with pytest.raises(ParameterError, match="fractions"):
            split(ds, fractions, seed=0)


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_dataset(small_cfg())
        path = tmp_path / "features.jsonl"
        save_features_file(ds, path)
        back = load_features_file(path)
        assert len(back) == len(ds)
        for s1, s2 in zip(ds, back):
            assert (s1.sample_id, s1.label, s1.corruption) == (s2.sample_id, s2.label, s2.corruption)
            for tag in s1.sequences():
                assert np.array_equal(
                    s1.sequences()[tag].tokens.values, s2.sequences()[tag].tokens.values
                )

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "features.jsonl"
        for text in ("", " \n\n\t\n"):
            path.write_text(text, "utf-8")
            assert load_features_file(path) == []
        # an empty sample list has no widths to declare, so it is not saved
        with pytest.raises(ValidationError, match="empty"):
            save_features_file([], path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_token_rejected(self, tmp_path, literal):
        path = tmp_path / "features.jsonl"
        save_features_file(generate_dataset(small_cfg(n_samples=2)), path)
        lines = path.read_text("utf-8").splitlines()
        record = json.loads(lines[2])
        tokens = np.frombuffer(base64.b64decode(record["tokens"]["image-patches"]), "<f8").copy()
        tokens[0] = float(literal)
        record["tokens"]["image-patches"] = tokens_text(tokens)
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(FormatError, match="line 3: sample 's00001', image-patches: non-finite"):
            load_features_file(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_token_not_saved(self, tmp_path, value):
        # refused with the line it would have had; the previous file stays whole
        path = tmp_path / "features.jsonl"
        save_features_file(generate_dataset(small_cfg(n_samples=2)), path)
        before = path.read_bytes()
        ds = generate_dataset(small_cfg(n_samples=2))
        ds[1].image_seq.tokens.values[0, 1] = value  # sample 2: line 3
        with pytest.raises(FormatError, match="line 3: sample 's00001', image-patches: non-finite"):
            save_features_file(ds, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["features.jsonl"]

    @pytest.mark.parametrize("label", [1.7, "1", True])
    def test_label_must_be_json_integer(self, tmp_path, label):
        path = tmp_path / "features.jsonl"
        save_features_file(generate_dataset(small_cfg(n_samples=2)), path)
        lines = path.read_text("utf-8").splitlines()
        record = json.loads(lines[2])
        assert record["label"] == 1  # the fake sample
        record["label"] = label
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(FormatError, match="line 3: sample 's00001': label"):
            load_features_file(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_bytes(VALID_HEADER + b'\n{"sample_id": "\xff"}\n')
        with pytest.raises(FormatError, match="line 2"):
            load_features_file(path)

    def test_bad_header_refused_before_later_lines(self, tmp_path):
        # records stream: the header is checked before line 2 is decoded
        path = tmp_path / "features.jsonl"
        path.write_bytes(b'{"format_version": 4}\n{"sample_id": "\xff"}\n')
        with pytest.raises(FormatError, match="format_version 4"):
            load_features_file(path)

    def test_format_1_file_refused_with_remedy(self, tmp_path):
        # formats 1 and 2 held one record per sample and source; format 1 wrote
        # each token array as nested lists of decimals, format 2 as base64
        path = tmp_path / "features.jsonl"
        d_in = {tag: 2 for tag in SOURCE_TAGS}
        for version, tokens in ((1, [[0.5, 0.25]]), (2, ROW)):
            lines = [header_line(d_in, version=version)] + [
                json.dumps({"sample_id": "s", "label": 0, "corruption": "none", "source_tag": tag,
                            "tokens": tokens})
                for tag in SOURCE_TAGS
            ]
            path.write_text("\n".join(lines) + "\n", "utf-8")
            with pytest.raises(FormatError, match=rf"format_version {version} \(expected 3\)") as info:
                load_features_file(path)
            assert "mvrd gen-data" in str(info.value) and "save_features_file" in str(info.value)

    @pytest.mark.parametrize(
        "tokens",
        [[[0.5, 0.25]], 0.5, None, {"b64": ""}, "not base64!", "AAAAAAAAAAA", "AAAA=AAA",
         "", "AAAAAAAAAAA=", base64.b64encode(bytes(24)).decode(),
         tokens_text([[0.5, np.nan]]), tokens_text([[np.inf, 0.5]]), tokens_text([[0.5, -np.inf]]),
         base64.b64encode(b"\xff" * 16).decode()],
        ids=["list", "number", "null", "object", "bad-character", "no-padding", "inner-padding",
             "zero-bytes", "one-double", "three-doubles", "nan", "inf", "-inf", "nan-bits"],
    )
    def test_bad_tokens_refused_naming_line(self, tmp_path, tokens):
        # the header declares width 2, so a row is 16 bytes; clip-image is the last source
        path = tmp_path / "features.jsonl"
        d_in = {tag: 2 for tag in SOURCE_TAGS}
        one_sample_file(path, d_in, {tag: [[0.5, 0.25]] for tag in SOURCE_TAGS})
        lines = path.read_text("utf-8").splitlines()
        record = json.loads(lines[1])
        record["tokens"]["clip-image"] = tokens
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(FormatError, match="line 2: sample 's', clip-image: "):
            load_features_file(path)

    def test_tokens_are_base64_little_endian_float64(self, tmp_path):
        ds = generate_dataset(small_cfg(n_samples=2))
        path = tmp_path / "features.jsonl"
        save_features_file(ds, path)
        header, *records = (json.loads(line) for line in path.read_text("utf-8").splitlines())
        assert header == {"format_version": 3, "d_in": {tag: 8 for tag in SOURCE_TAGS}}
        expected = [{"sample_id": s.sample_id, "label": s.label, "corruption": s.corruption,
                     "tokens": {tag: tokens_text(seq.tokens.values) for tag, seq in s.sequences().items()}}
                    for s in ds]
        assert records == expected
        assert [list(r["tokens"]) for r in records] == [list(SOURCE_TAGS)] * len(ds)

    def test_two_saves_write_identical_bytes(self, tmp_path):
        ds = generate_dataset(small_cfg(n_samples=6))
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_features_file(ds, first)
        save_features_file(ds, second)
        assert first.read_bytes() == second.read_bytes()

    def test_mixed_d_in_names_sample(self, tmp_path):
        ds = generate_dataset(small_cfg(n_samples=4))
        path = tmp_path / "features.jsonl"
        save_features_file(ds, path)
        lines = path.read_text("utf-8").splitlines()
        # corrupt one array's token width: 4 rows of 7, which no row count of 8 fills
        record = json.loads(lines[2])
        record["tokens"]["image-patches"] = tokens_text(ds[1].image_seq.tokens.values[:, :-1])
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(FormatError, match="line 3: sample 's00001', image-patches: 224 bytes"):
            load_features_file(path)

    def test_mixed_widths_not_saved(self, tmp_path):
        # the header declares one width per source, so a mixed list cannot be written
        mixed = generate_dataset(small_cfg(n_samples=2, d_in=4)) + generate_dataset(
            small_cfg(n_samples=2, d_in=6)
        )
        path = tmp_path / "features.jsonl"
        with pytest.raises(ValidationError, match=r"text-tokens .*\(4, 4\), \(4, 6\)"):
            save_features_file(mixed, path)
        assert not path.exists()

    def test_ragged_lengths_not_saved(self, tmp_path):
        # no consumer can stack a list whose lengths differ within a source
        ragged = generate_dataset(small_cfg(n_samples=2, len_image=4)) + generate_dataset(
            small_cfg(n_samples=2, len_image=5)
        )
        path = tmp_path / "features.jsonl"
        with pytest.raises(ValidationError, match=r"image-patches .*\(4, 8\), \(5, 8\)"):
            save_features_file(ragged, path)
        assert not path.exists()

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_bytes(VALID_HEADER + b"\nnot-json\n")
        with pytest.raises(FormatError, match="line 2"):
            load_features_file(path)

    @pytest.mark.parametrize(
        "width, tokens",
        [(0, [[]]), (True, [[0.5]]), (-1, [[0.5]]), (1.0, [[0.5]]), ("1", [[0.5]]), (None, [[0.5]])],
        ids=["zero", "bool", "negative", "float", "str", "missing"],
    )
    def test_header_widths_must_be_positive_integers(self, tmp_path, width, tokens):
        d_in = {tag: width for tag in SOURCE_TAGS if width is not None}
        path = tmp_path / "features.jsonl"
        one_sample_file(path, d_in, dict.fromkeys(SOURCE_TAGS, tokens))
        with pytest.raises(FormatError, match="d_in"):
            load_features_file(path)

    def test_header_with_an_extra_source_refused(self, tmp_path):
        ds = generate_dataset(small_cfg(n_samples=2))
        path = tmp_path / "features.jsonl"
        save_features_file(ds, path)
        lines = path.read_text("utf-8").splitlines()
        header = json.loads(lines[0])
        header["d_in"]["audio"] = 5
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", "utf-8")
        with pytest.raises(FormatError, match="header d_in must map exactly the source tags"):
            load_features_file(path)

    def test_missing_source_named(self, tmp_path):
        ds = generate_dataset(small_cfg(n_samples=2))
        path = tmp_path / "features.jsonl"
        save_features_file(ds, path)
        lines = path.read_text("utf-8").splitlines()
        record = json.loads(lines[1])
        del record["tokens"]["clip-image"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(FormatError, match="line 2: sample 's00000': tokens must map exactly"):
            load_features_file(path)

    @pytest.mark.parametrize(
        "tokens",
        [dict.fromkeys([*SOURCE_TAGS, "audio"], ROW), [ROW] * 4, ROW, None, {}],
        ids=["extra-tag", "list", "string", "null", "empty-object"],
    )
    def test_tokens_must_map_exactly_the_source_tags(self, tmp_path, tokens):
        path = tmp_path / "features.jsonl"
        record = {"sample_id": "s7", "label": 0, "corruption": "none", "tokens": tokens}
        path.write_text(VALID_HEADER.decode() + "\n" + json.dumps(record) + "\n", "utf-8")
        with pytest.raises(FormatError, match="line 2: sample 's7': tokens must map exactly the source tags"):
            load_features_file(path)

    def test_duplicate_sample_refused(self, tmp_path):
        # worded as the teacher loader words it
        path = tmp_path / "features.jsonl"
        save_features_file(generate_dataset(small_cfg(n_samples=2)), path)
        lines = path.read_text("utf-8").splitlines()
        path.write_text("\n".join(lines + lines[1:2]) + "\n", "utf-8")
        with pytest.raises(ValidationError, match="line 4: sample 's00000': duplicate record for the sample"):
            load_features_file(path)


class TestAttachTeacher:
    def test_attaches_and_validates(self):
        ds = generate_dataset(small_cfg(n_samples=4))
        table = {s.sample_id: s.teacher for s in ds}
        stripped = [
            Sample(
                s.sample_id,
                s.label,
                s.corruption,
                s.text_seq,
                s.image_seq,
                s.clip_text_seq,
                s.clip_image_seq,
            )
            for s in ds
        ]
        attach_teacher(stripped, table)
        assert all(s.teacher is not None for s in stripped)
        with pytest.raises(ValidationError, match="missing"):
            attach_teacher(stripped, {})


class TestSampleType:
    def test_label_corruption_invariant_enforced(self):
        seqs = [EmbeddedSequence(Tensor(np.zeros((2, 4)))) for _ in SOURCE_TAGS]
        with pytest.raises(ValidationError):
            Sample("x", 0, "text-fabrication", *seqs)
        with pytest.raises(ValidationError):
            Sample("x", 1, "none", *seqs)
