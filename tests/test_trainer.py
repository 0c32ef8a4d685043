"""Training-loop contracts: descent, determinism, teacher constancy,
checkpointing, and the ablation/sweep runners."""

import dataclasses
import json
import multiprocessing
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from mvrd import trainer
from mvrd.config import ConfigError, TrainConfig
from mvrd.datasynth import SyntheticConfig, generate_dataset, split
from mvrd.diffcore import ContractError, DimensionError, ParameterError, ValidationError, backward
from mvrd.fileio import FormatError, read_record_lines, write_records
from mvrd.metrics import Metrics
from mvrd.model import Model, StackedDataset, check_fit
from mvrd.teacher import TeacherEmbeddings
from mvrd.trainer import (
    ABLATION_VARIANTS,
    CHECKPOINT_MAGIC,
    Adam,
    RunReport,
    ablation_suite,
    evaluate,
    load_checkpoint,
    load_model,
    replace_teacher_with_content_embeddings,
    save_checkpoint,
    sweep,
    train,
)
from mvrd.views import SOURCE_TAGS

TINY_SYNTH = dict(n_samples=64, d_in=8, teacher_dim=8, len_text=4, len_image=4, len_clip=2, seed=3)
TINY_D_IN = {tag: TINY_SYNTH["d_in"] for tag in SOURCE_TAGS}
TINY_TRAIN = dict(d=8, d_h=16, heads=4, encoder_heads=2, epochs=2, batch_size=16, master_seed=0)


def tiny_dataset(**kw):
    return generate_dataset(SyntheticConfig(**{**TINY_SYNTH, **kw}))


def tiny_cfg(**kw):
    return TrainConfig(**{**TINY_TRAIN, **kw})


def params_snapshot(model):
    return {p.name: p.tensor.values.copy() for p in model.parameters()}


def assert_params_equal(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


class TestAdam:
    def test_zero_gradient_step_is_noop(self):
        model = Model(tiny_cfg(), TINY_D_IN)
        optimizer = Adam(model.values, model.grads)
        before = params_snapshot(model)
        optimizer.zero_grad()
        optimizer.step()
        assert_params_equal(before, params_snapshot(model))

    def test_step_moves_parameters_given_gradients(self):
        ds = tiny_dataset()
        data = StackedDataset.from_samples(ds)
        model = Model(tiny_cfg(), data.d_in)
        optimizer = Adam(model.values, model.grads, lr=1e-3)
        optimizer.zero_grad()
        backward(model.forward_loss(data.batch(np.arange(16))).graph)
        before = params_snapshot(model)
        optimizer.step()
        after = params_snapshot(model)
        assert any(not np.array_equal(before[k], after[k]) for k in before)


class ReferenceAdam:
    """Adam over a parameter list, one parameter at a time, with per-parameter
    moment arrays: the update the flat-arena ``Adam`` must reproduce bit for bit."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = list(params), lr, 0
        self.m = [np.zeros(p.tensor.shape) for p in self.params]
        self.v = [np.zeros(p.tensor.shape) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - Adam.BETA1**self.t
        bc2 = 1.0 - Adam.BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.tensor.grad
            m *= Adam.BETA1
            m += (1.0 - Adam.BETA1) * g
            v *= Adam.BETA2
            v += (1.0 - Adam.BETA2) * (g * g)
            p.tensor.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + Adam.EPS)


class TestArena:
    def test_parameters_are_views_of_two_flat_arrays(self):
        model = Model(tiny_cfg(), TINY_D_IN)
        params = model.parameters()
        assert model.values.ndim == 1 and model.values.dtype == np.float64
        assert model.grads.shape == model.values.shape
        assert model.values.size == sum(p.tensor.values.size for p in params)
        # write the entry index into every slot: each parameter must read its
        # own contiguous run of the flat arrays, in parameters() order
        model.values[:] = np.arange(model.values.size)
        model.grads[:] = -np.arange(model.grads.size)
        lo = 0
        for p in params:
            t = p.tensor
            assert np.shares_memory(t.values, model.values), p.name
            assert np.shares_memory(t.grad, model.grads), p.name
            assert t.values.flags.c_contiguous and t.grad.flags.c_contiguous, p.name
            hi = lo + t.values.size
            assert np.array_equal(t.values.reshape(-1), np.arange(lo, hi)), p.name
            assert np.array_equal(t.grad.reshape(-1), -np.arange(lo, hi)), p.name
            lo = hi

    def test_five_steps_bitwise_equal_to_per_parameter_adam(self):
        data = StackedDataset.from_samples(tiny_dataset())
        cfg = tiny_cfg()
        flat, ref = Model(cfg, data.d_in), Model(cfg, data.d_in)
        optimizers = (
            (flat, Adam(flat.values, flat.grads, cfg.learning_rate)),
            (ref, ReferenceAdam(ref.parameters(), cfg.learning_rate)),
        )
        for step in range(5):
            batch = data.batch(np.arange(16 * step, 16 * step + 16) % 64)
            for model, optimizer in optimizers:
                for p in model.parameters():
                    p.tensor.grad[...] = 0.0
                backward(model.forward_loss(batch).graph)
                optimizer.step()
        assert np.any(flat.values != Model(cfg, data.d_in).values)  # the steps moved it
        assert flat.values.tobytes() == ref.values.tobytes()
        assert_params_equal(params_snapshot(flat), params_snapshot(ref))

    def test_zero_grad_clears_every_gradient(self):
        model = Model(tiny_cfg(), TINY_D_IN)
        optimizer = Adam(model.values, model.grads)
        model.grads[:] = 1.0
        optimizer.zero_grad()
        assert all(not p.tensor.grad.any() for p in model.parameters())


class TestTrain:
    def test_one_step_descends(self):
        ds = tiny_dataset()
        data = StackedDataset.from_samples(ds)
        model = Model(tiny_cfg(), data.d_in)
        batch = data.batch(np.arange(32))
        optimizer = Adam(model.values, model.grads, lr=1e-4)
        loss_before = model.forward_loss(batch)
        backward(loss_before.graph)
        optimizer.step()
        loss_after = model.forward_loss(batch)
        backward(loss_after.graph)  # clear the tape
        assert loss_after.total < loss_before.total

    def test_bit_identical_metrics_under_same_seed(self):
        ds = tiny_dataset()
        tr, te = split(ds, (0.75, 0.25), seed=1)
        _, r1 = train(tiny_cfg(), tr, eval_dataset=te)
        _, r2 = train(tiny_cfg(), tr, eval_dataset=te)
        assert r1.metrics == r2.metrics
        assert r1.epoch_losses == r2.epoch_losses

    def test_lambda_zero_ignores_teacher_values(self):
        ds = tiny_dataset()
        rng = np.random.default_rng(5)
        scrambled = []
        for s in ds:
            import dataclasses

            scrambled.append(
                dataclasses.replace(
                    s,
                    teacher=TeacherEmbeddings(rng.normal(size=(3, 8))),
                )
            )
        cfg = tiny_cfg(lambda_=0.0)
        m1, _ = train(cfg, ds)
        m2, _ = train(cfg, scrambled)
        assert_params_equal(params_snapshot(m1), params_snapshot(m2))

    def test_teacher_carries_no_gradient_state_after_training(self):
        # the teacher is a plain array: training reads it and leaves it as it was
        ds = tiny_dataset()
        before = [s.teacher.values.copy() for s in ds]
        model, _ = train(tiny_cfg(epochs=1), ds)
        for s, values in zip(ds, before):
            assert type(s.teacher.values) is np.ndarray
            assert s.teacher.values.tobytes() == values.tobytes()

    def test_mid_run_teacher_swap_is_bitwise_invisible_at_lambda_zero(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(lambda_=0.0, epochs=1)

        def manual_run(swap):
            data = StackedDataset.from_samples(ds)
            model = Model(cfg, data.d_in)
            optimizer = Adam(model.values, model.grads, cfg.learning_rate)
            rng = np.random.default_rng(77)
            for step, lo in enumerate(range(0, 64, 16)):
                if swap and step == 2:
                    data.teacher = data.teacher + 100.0
                batch = data.batch(np.arange(lo, lo + 16))
                optimizer.zero_grad()
                backward(model.forward_loss(batch).graph)
                optimizer.step()
            return params_snapshot(model)

        assert_params_equal(manual_run(swap=False), manual_run(swap=True))

    def test_disabled_view_teacher_slot_is_bitwise_invisible(self):
        # the drop_L_cross ablation weights the cross loss by 0: rewriting only the cross
        # slot of the stacked teacher mid-run changes no parameter bit
        ds = tiny_dataset()
        cfg = tiny_cfg(ablation="drop_L_cross", epochs=1)

        def manual_run(swap):
            data = StackedDataset.from_samples(ds)
            model = Model(cfg, data.d_in)
            optimizer = Adam(model.values, model.grads, cfg.learning_rate)
            for step, lo in enumerate(range(0, 64, 16)):
                if swap and step == 2:
                    data.teacher[:, 2] = data.teacher[:, 2] * -3.0 + 7.0
                batch = data.batch(np.arange(lo, lo + 16))
                optimizer.zero_grad()
                breakdown = model.forward_loss(batch)
                assert set(breakdown.distill) == {"text", "image"}
                backward(breakdown.graph)
                optimizer.step()
            return params_snapshot(model)

        assert_params_equal(manual_run(swap=False), manual_run(swap=True))

    def test_missing_teacher_with_distillation_rejected(self):
        ds = tiny_dataset()
        stripped = [dataclasses.replace(s, teacher=None) for s in ds]
        with pytest.raises(ConfigError):
            train(tiny_cfg(), stripped)
        # but fine with lambda = 0, the no_teacher ablation
        train(tiny_cfg(lambda_=0.0, epochs=1), stripped)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            train(tiny_cfg(), [])

    def test_invalid_config_rejected_before_compute(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            train(tiny_cfg(heads=3), ds)
        with pytest.raises(ConfigError):
            train(tiny_cfg(lambda_=-1.0), ds)

    def test_gradient_reaches_every_parameter_group(self):
        ds = tiny_dataset()
        data = StackedDataset.from_samples(ds)
        model = Model(tiny_cfg(), data.d_in)
        for p in model.parameters():
            p.tensor.zero_grad()
        backward(model.forward_loss(data.batch(np.arange(32))).graph)
        total = sum(int(np.prod(p.tensor.shape)) for p in model.parameters())
        nonzero = sum(int((p.tensor.grad != 0).sum()) for p in model.parameters())
        assert nonzero / total >= 0.99

    def test_non_finite_loss_raises_with_debug_checks(self):
        ds = tiny_dataset()
        ds[0].text_seq.tokens.values[0, 0] = np.nan
        with pytest.raises(ContractError, match="identities"):
            train(tiny_cfg(epochs=1), ds)

    def test_non_finite_gradient_stops_before_adam(self, monkeypatch):
        # a finite loss whose gradient overflowed must not step Adam
        target = "fusion.attn.W_O"
        params = Model(tiny_cfg(), TINY_D_IN).parameters()
        names = [p.name for p in params]
        offset = sum(p.tensor.values.size for p in params[: names.index(target)])
        made, steps = [], []

        class RecordingAdam(trainer.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

            def step(self):
                steps.append(self.t)
                super().step()

        def overflowing_backward(graph):
            backward(graph)
            made[0].grads[offset + 1] = np.inf

        monkeypatch.setattr(trainer, "Adam", RecordingAdam)
        monkeypatch.setattr(trainer, "backward", overflowing_backward)
        with pytest.raises(ContractError, match=f"'{target}' has a non-finite gradient"):
            train(tiny_cfg(epochs=1), tiny_dataset())
        assert steps == []

    def test_large_losses_pass_the_identity_check(self):
        # at learning rate 1 the losses reach ~1e6, where the two sides of the
        # total-loss identity differ by rounding above 1e-12 but not relative
        # to the loss
        cfg = tiny_cfg(epochs=1, batch_size=4, learning_rate=1.0, lambda_=0.7, tau=1.0)
        model, report = train(cfg, tiny_dataset())
        assert report.epoch_losses[0]["total"] > 1e4
        assert all(np.isfinite(p.tensor.values).all() for p in model.parameters())

    def test_report_round_trips_losslessly(self, tmp_path):
        # written as `mvrd train` writes report.jsonl
        ds = tiny_dataset()
        tr, te = split(ds, (0.75, 0.25), seed=2)
        _, report = train(tiny_cfg(), tr, eval_dataset=te)
        path = tmp_path / "report.jsonl"
        write_records(path, [dataclasses.asdict(report)])
        [(_, record)] = read_record_lines(path)
        assert RunReport(**record) == report


class TestEvaluate:
    def test_inference_ignores_loss_config(self):
        ds = tiny_dataset()
        tr, te = split(ds, (0.75, 0.25), seed=4)
        model, _ = train(tiny_cfg(), tr)
        base = evaluate(model, te)
        # same parameters under different loss configs: metrics unchanged
        for changes in ({"lambda_": 0.0}, {"tau": 5.0}, {"alpha": 0.1}):
            clone = Model(tiny_cfg(**changes), TINY_D_IN)
            for p_src, p_dst in zip(model.parameters(), clone.parameters()):
                p_dst.tensor.values[...] = p_src.tensor.values
            assert evaluate(clone, te) == base

    def test_predict_logits_independent_of_chunk_size(self, monkeypatch):
        # GEMM results for a row may differ in the last bits with the row count
        ds = tiny_dataset()
        model = Model(tiny_cfg(), TINY_D_IN)
        monkeypatch.setattr("mvrd.model.PREDICT_CHUNK", len(ds))
        reference = model.predict_logits(ds)
        for chunk_size in (1, 7, 16):
            monkeypatch.setattr("mvrd.model.PREDICT_CHUNK", chunk_size)
            logits = model.predict_logits(ds)
            assert np.allclose(logits, reference, rtol=0, atol=1e-12)

    def test_empty_set_rejected(self):
        model = Model(tiny_cfg(), TINY_D_IN)
        with pytest.raises(ValidationError):
            evaluate(model, [])

    def test_predict_refuses_an_empty_list(self):
        with pytest.raises(ValidationError, match="empty"):
            Model(tiny_cfg(), TINY_D_IN).predict_logits([])

    def test_predict_refuses_other_widths(self):
        model = Model(tiny_cfg(), {tag: 16 for tag in SOURCE_TAGS})
        with pytest.raises(ValidationError, match=r"d_in \{'text-tokens': 8.*takes \{'text-tokens': 16"):
            model.predict_logits(tiny_dataset(n_samples=4))


class TestStackedDataset:
    """``from_samples`` is the one place a sample list is checked for stacking."""

    @pytest.mark.parametrize(
        "kw, source",
        [(dict(d_in=4), "text-tokens"), (dict(len_text=5), "text-tokens"),
         (dict(len_clip=3), "clip-text"), (dict(teacher_dim=4), "teacher")],
        ids=["width", "text-length", "clip-length", "teacher"],
    )
    def test_mixed_shapes_name_the_source(self, kw, source):
        mixed = tiny_dataset(n_samples=2) + tiny_dataset(n_samples=2, **kw)
        with pytest.raises(ValidationError, match=f"{source} must have one shape"):
            StackedDataset.from_samples(mixed)

    def test_teacher_only_when_every_sample_has_one(self):
        ds = tiny_dataset(n_samples=4)
        assert StackedDataset.from_samples(ds).teacher.shape == (4, 3, 8)
        ds[2] = dataclasses.replace(ds[2], teacher=None)
        assert StackedDataset.from_samples(ds).teacher is None

    def test_d_in_equals_the_widths(self):
        data = StackedDataset.from_samples(tiny_dataset(n_samples=4, d_in=6))
        assert data.d_in == {tag: 6 for tag in SOURCE_TAGS}
        assert list(data.tokens) == list(SOURCE_TAGS)
        assert data.batch(np.array([3, 1])).d_in == data.d_in


class TestAblationRunner:
    def test_rows_and_flag_independence(self):
        ds = tiny_dataset()
        tr, te = split(ds, (0.75, 0.25), seed=6)
        rows = ablation_suite(tiny_cfg(epochs=1), tr, te, n_seeds=3)
        names = [r.name for r in rows]
        assert names[0] == "full"
        assert len(names) == 10 and len(set(names)) == 10
        # the full row reproduces the base run bit-exactly
        _, base_report = train(tiny_cfg(epochs=1), tr, eval_dataset=te)
        assert rows[0].per_seed[0] == base_report.metrics

    def test_seed_floor(self):
        ds = tiny_dataset()
        with pytest.raises(Exception):
            ablation_suite(tiny_cfg(), ds, ds, n_seeds=2)

    def test_base_ablation_refused_before_any_job(self, monkeypatch):
        # every row sets its own ablation, which would replace the base's unsaid
        def no_jobs(*args, **kwargs):
            raise AssertionError("the jobs were started")

        monkeypatch.setattr(trainer, "_run_jobs", no_jobs)
        ds = tiny_dataset()
        with pytest.raises(ConfigError, match="ablation = full, got 'no_attention'"):
            ablation_suite(tiny_cfg(ablation="no_attention"), ds, ds, n_seeds=3)

    def test_empty_split_rejected_before_any_job(self, monkeypatch):
        ds = tiny_dataset()

        def no_training(*args, **kwargs):
            raise AssertionError("a job was trained")

        monkeypatch.setattr(trainer, "train", no_training)
        for train_set, test_set in ((ds, []), ([], ds)):
            with pytest.raises(ValidationError, match="nonempty"):
                ablation_suite(tiny_cfg(), train_set, test_set, n_seeds=3)
            with pytest.raises(ValidationError, match="nonempty"):
                sweep(tiny_cfg(), "tau", [1.0], train_set, test_set, n_seeds=1)

    @pytest.mark.parametrize(
        "overrides, error",
        [
            (dict(encoder_heads=3), ValidationError),  # 3 does not divide d_in = 8
            (dict(d=16, d_h=32, ablation="no_feature_extractors"), ConfigError),  # d_in != d
            (dict(d=16, d_h=32), DimensionError),  # the teacher is 8 wide
            (dict(teacher=None), ConfigError),  # lambda > 0 on a corpus without teachers
            (dict(d=4, d_h=8, ablation="no_reasoning_prompts"), ConfigError),  # content teacher
        ],
    )
    def test_corpus_rules_checked_before_any_job(self, monkeypatch, overrides, error):
        def no_jobs(*args, **kwargs):
            raise AssertionError("the jobs were started")

        monkeypatch.setattr(trainer, "_run_jobs", no_jobs)
        ds = tiny_dataset()
        overrides = dict(overrides)
        if "teacher" in overrides:  # a corpus-side override
            teacher = overrides.pop("teacher")
            ds = [dataclasses.replace(s, teacher=teacher) for s in ds]
        with pytest.raises(error):
            ablation_suite(tiny_cfg(**overrides), ds, ds, n_seeds=3)
        with pytest.raises(error):
            train(tiny_cfg(**overrides), ds)
        data = StackedDataset.from_samples(ds)
        with pytest.raises(error):
            check_fit(tiny_cfg(**overrides).validate(), data.d_in, data)

    def test_every_variant_validated_before_any_job(self, monkeypatch):
        # d = 4 fits this corpus, but the no_reasoning_prompts row needs d >= 8
        def no_jobs(*args, **kwargs):
            raise AssertionError("the jobs were started")

        monkeypatch.setattr(trainer, "_run_jobs", no_jobs)
        ds = tiny_dataset(d_in=4, teacher_dim=4)
        cfg = tiny_cfg(d=4, d_h=8)
        data = StackedDataset.from_samples(ds)
        check_fit(cfg, data.d_in, data)
        with pytest.raises(ConfigError, match="d >= 8"):
            ablation_suite(cfg, ds, ds, n_seeds=3)

    def test_content_teacher_width_is_not_checked(self):
        # under no_reasoning_prompts the run replaces the 8-wide teacher
        data = StackedDataset.from_samples(tiny_dataset())
        check_fit(tiny_cfg(d=16, d_h=32, ablation="no_reasoning_prompts"), data.d_in, data)


class TestParallelRunner:
    """The runners train in forked workers; every number must equal a serial
    ``train`` of the same config, in the same order, and no worker outlives
    the call."""

    N_SEEDS = 3

    @pytest.fixture(scope="class")
    def corpus(self):
        return split(tiny_dataset(n_samples=60), (0.75, 0.25), seed=11)

    @pytest.fixture()
    def three_cpus(self, monkeypatch):
        # more workers than this machine may have cores, so a pool always runs
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})

    def direct(self, cfg, tr, te):
        return train(cfg, tr, eval_dataset=te)[1].metrics

    def test_ablation_equals_direct_runs_in_order(self, corpus, three_cpus):
        tr, te = corpus
        cfg = tiny_cfg(epochs=1)
        rows = ablation_suite(cfg, tr, te, n_seeds=self.N_SEEDS)
        assert multiprocessing.active_children() == []
        assert trainer._worker_sets is None
        assert [r.name for r in rows] == [name for name, _ in ABLATION_VARIANTS]
        for row, (_, flags) in zip(rows, ABLATION_VARIANTS):
            assert row.per_seed == [
                self.direct(cfg.replace(master_seed=k, **flags), tr, te)
                for k in range(self.N_SEEDS)
            ]

    def test_sweep_equals_direct_runs_in_order(self, corpus, three_cpus):
        tr, te = corpus
        cfg = tiny_cfg(epochs=1)
        values = [4.0, 1.0, 2.0]
        rows = sweep(cfg, "tau", values, tr, te, n_seeds=self.N_SEEDS)
        assert multiprocessing.active_children() == []
        assert [r.name for r in rows] == ["tau=4.0", "tau=1.0", "tau=2.0"]
        for row, tau in zip(rows, values):
            assert row.per_seed == [
                self.direct(cfg.replace(master_seed=k, tau=tau), tr, te)
                for k in range(self.N_SEEDS)
            ]

    def test_one_worker_gives_the_same_table(self, corpus, monkeypatch):
        tr, te = corpus
        cfg = tiny_cfg(epochs=1)
        pooled = ablation_suite(cfg, tr, te, n_seeds=self.N_SEEDS)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        assert ablation_suite(cfg, tr, te, n_seeds=self.N_SEEDS) == pooled

    def test_live_thread_keeps_jobs_in_process(self, corpus, three_cpus, monkeypatch):
        # forking while another thread may hold a lock can deadlock a worker
        import concurrent.futures
        import threading

        tr, te = corpus
        cfg = tiny_cfg(epochs=1)
        pooled = ablation_suite(cfg, tr, te, n_seeds=self.N_SEEDS)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, daemon=True)
        thread.start()
        try:
            assert ablation_suite(cfg, tr, te, n_seeds=self.N_SEEDS) == pooled
        finally:
            stop.set()
            thread.join()

    def test_failing_job_raises_its_own_error(self, corpus, three_cpus, monkeypatch):
        # the forked workers inherit the patched job; only the no_attention rows fail
        job_metrics = trainer._job_metrics

        def failing_job(cfg, train_set, test_set):
            if cfg.ablation == "no_attention":
                raise ValidationError(f"job {cfg.master_seed} failed in its worker")
            return job_metrics(cfg, train_set, test_set)

        monkeypatch.setattr(trainer, "_job_metrics", failing_job)
        tr, te = corpus
        with pytest.raises(ValidationError, match="failed in its worker"):
            ablation_suite(tiny_cfg(epochs=1), tr, te, n_seeds=self.N_SEEDS)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "error", [ParameterError, ConfigError, ValidationError, ContractError, FormatError]
    )
    def test_package_errors_survive_pickling(self, error):
        restored = pickle.loads(pickle.dumps(error("job failed")))
        assert type(restored) is error and restored.args == ("job failed",)


class TestSweepRunner:
    def test_single_value_equals_one_run(self):
        ds = tiny_dataset()
        tr, te = split(ds, (0.75, 0.25), seed=7)
        rows = sweep(tiny_cfg(epochs=1), "tau", [2.0], tr, te, n_seeds=1)
        assert len(rows) == 1
        _, report = train(tiny_cfg(epochs=1), tr, eval_dataset=te)
        assert rows[0].per_seed[0] == report.metrics

    def test_lambda_zero_matches_no_teacher_ablation(self):
        ds = tiny_dataset()
        tr, te = split(ds, (0.75, 0.25), seed=8)
        cfg = tiny_cfg(epochs=1)
        lam_rows = sweep(cfg, "lambda", [0.0], tr, te, n_seeds=3)
        ablation_rows = ablation_suite(cfg, tr, te, n_seeds=3)
        no_teacher = next(r for r in ablation_rows if r.name == "no_teacher")
        assert lam_rows[0].per_seed == no_teacher.per_seed

    def test_invalid_head_count_rejected(self):
        ds = tiny_dataset()
        # 3 does not divide d=8; the CLI hands values over as floats, and 2.5
        # must not be truncated to 2
        for values in ([3], [0], [2.5], [float("nan")], [float("inf")]):
            with pytest.raises(ConfigError):
                sweep(tiny_cfg(), "heads", values, ds, ds, n_seeds=1)

    def test_zero_seeds_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ParameterError):
            sweep(tiny_cfg(), "tau", [1.0], ds, ds, n_seeds=0)

    def test_invalid_value_rejected_before_any_job(self, monkeypatch):
        # one worker, so the jobs would run in this process and be counted
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        calls = []
        monkeypatch.setattr(trainer, "train", lambda *args, **kw: calls.append(args))
        ds = tiny_dataset()
        with pytest.raises(ConfigError, match="tau"):
            sweep(tiny_cfg(epochs=1), "tau", [1.0, -1.0], ds, ds, n_seeds=1)
        assert calls == []

    def test_unknown_axis_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(Exception):
            sweep(tiny_cfg(), "dropout", [0.1], ds, ds, n_seeds=1)


class TestCheckpoints:
    def test_round_trip_bit_identical_logits(self, tmp_path):
        ds = tiny_dataset()
        tr, te = split(ds, (0.75, 0.25), seed=9)
        model, _ = train(tiny_cfg(epochs=1), tr)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        restored = load_model(path)
        probe = te[:50]
        assert np.array_equal(model.predict_logits(probe), restored.predict_logits(probe))

    def test_truncated_file_fails_without_partial_load(self, tmp_path):
        ds = tiny_dataset()
        model, _ = train(tiny_cfg(epochs=1), ds)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        truncated = tmp_path / "trunc.bin"
        truncated.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(truncated)

    def test_dimension_mismatch_names_parameter(self, tmp_path):
        # the header records a wider model than the parameters hold
        ds = tiny_dataset()
        model, _ = train(tiny_cfg(epochs=1), ds)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        header_start = len(CHECKPOINT_MAGIC)
        header_end = blob.index(b"\n", header_start)
        header = json.loads(blob[header_start:header_end])
        header["train_config"].update(d=16, d_h=32)
        path.write_bytes(blob[:header_start] + json.dumps(header).encode() + blob[header_end:])
        with pytest.raises(FormatError, match="views"):
            load_model(path)

    @staticmethod
    def saved_blob(tmp_path):
        model = Model(tiny_cfg(), TINY_D_IN)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        return path, path.read_bytes()

    @staticmethod
    def split_file(blob):
        """A checkpoint's parsed header and its body bytes."""
        header_end = blob.index(b"\n", len(CHECKPOINT_MAGIC))
        return json.loads(blob[len(CHECKPOINT_MAGIC) : header_end]), blob[header_end + 1 :]

    @staticmethod
    def write_file(path, header, body):
        path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + body)

    @pytest.mark.parametrize(
        "line, text",
        [
            ("header", b"[1, 2]"),  # not an object
            # the per-parameter metadata lives in the header's layout: each
            # case replaces the first layout entry
            ("meta", b'{"name": '),  # not JSON
            ("meta", b'{"shape": [2, 2]}'),  # no name
            ("meta", b'{"name": "views.text.attn.W_Q"}'),  # no shape
        ],
    )
    def test_corrupt_header_or_meta_is_format_error(self, tmp_path, line, text):
        path, blob = self.saved_blob(tmp_path)
        header_start = len(CHECKPOINT_MAGIC)
        header_end = blob.index(b"\n", header_start)
        if line == "header":
            path.write_bytes(blob[:header_start] + text + blob[header_end:])
        else:
            header, _ = self.split_file(blob)
            entry = json.dumps(header["layout"][0]).encode()
            assert blob.count(entry) == 1
            path.write_bytes(blob.replace(entry, text, 1))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "layout, message",
        [
            ([["a", [-1]]], "must list"),
            ([["a", [True]]], "must list"),
            ([["a"]], "must list"),
            ({"a": [2]}, "must list"),
            ([[1, [2]]], "must list"),
            ([["a", 2]], "must list"),
            (None, "must list"),
            # well formed, but no body could hold it
            ([["a", [10**30]]], "truncated"),
        ],
        ids=["negative-size", "bool-size", "no-shape", "dict", "int-name", "int-shape", "no-layout", "huge"],
    )
    def test_malformed_layout_is_format_error(self, tmp_path, layout, message):
        path, blob = self.saved_blob(tmp_path)
        header, body = self.split_file(blob)
        header["layout"] = layout
        self.write_file(path, header, body)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=message):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the file is 26 KiB; nothing is sized by the layout

    def test_body_is_the_arena(self, tmp_path):
        model, _ = train(tiny_cfg(epochs=1), tiny_dataset())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        header, body = self.split_file(path.read_bytes())
        assert body == model.values.astype("<f8").tobytes()
        assert header["format_version"] == 3
        assert header["layout"] == [[p.name, list(p.tensor.shape)] for p in model.parameters()]
        loaded_header, values = load_checkpoint(path)
        assert loaded_header == header
        assert values.tobytes() == body

    @pytest.mark.parametrize("cut", [-1, 1], ids=["short", "long"])
    def test_body_off_by_one_byte_is_refused(self, tmp_path, cut):
        path, blob = self.saved_blob(tmp_path)
        path.write_bytes(blob[:-1] if cut < 0 else blob + b"\0")
        with pytest.raises(FormatError, match="truncated" if cut < 0 else "overlong"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("train_config"),
            lambda h: h.pop("d_in"),
            lambda h: h.update(train_config=[1, 2]),
            lambda h: h.update(train_config={**h["train_config"], "d": "8"}),
            lambda h: h.update(train_config={**h["train_config"], "epochs": 2.0}),
            lambda h: h.update(train_config={**h["train_config"], "ablation": 1}),
            lambda h: h.update(train_config={**h["train_config"], "dropout": 0.1}),
            lambda h: h.update(train_config={**h["train_config"], "heads": 3}),
            # 3 encoder heads cannot split the 8-wide inputs
            lambda h: h.update(train_config={**h["train_config"], "encoder_heads": 3}),
            lambda h: h.update(d_in=8),
            lambda h: h.update(d_in={**h["d_in"], "text-tokens": "8"}),
            lambda h: h.update(d_in={**h["d_in"], "text-tokens": 0}),
            lambda h: h["d_in"].pop("clip-image"),
            lambda h: h.update(d_in={**h["d_in"], "audio": 5}),
            lambda h: h.update(train_config={**h["train_config"], "pooling": "mean"}),
            # version 1 held one parameter per view; its layout cannot load
            lambda h: h.update(format_version=1),
            # version 2 split the values into per-parameter records
            lambda h: h.update(format_version=2),
            # a missing field must not fall back to its default
            lambda h: h["train_config"].pop("ablation"),
            lambda h: h["train_config"].pop("lambda_"),
        ],
        ids=[
            "no-train_config", "no-d_in", "train_config-list", "str-int-field",
            "float-int-field", "int-str-field", "unknown-field", "bad-head-count",
            "bad-encoder-head-count", "d_in-int", "str-d_in", "zero-d_in", "missing-source",
            "extra-source", "retired-field",
            "format-version-1", "format-version-2", "no-ablation", "no-lambda_",
        ],
    )
    def test_bad_header_fields_are_format_error(self, tmp_path, edit):
        model = Model(tiny_cfg(ablation="no_attention", lambda_=0.25), TINY_D_IN)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        header, body = self.split_file(path.read_bytes())
        edit(header)
        self.write_file(path, header, body)
        with pytest.raises(FormatError):
            load_model(path)

    def test_header_with_the_eight_old_switches_is_format_error(self, tmp_path):
        # the train_config of a checkpoint saved before one ablation name
        # replaced the eight switches
        path, blob = self.saved_blob(tmp_path)
        header, body = self.split_file(blob)
        del header["train_config"]["ablation"]
        header["train_config"].update(dict.fromkeys([
            "drop_L_text", "drop_L_image", "drop_L_cross", "drop_text_view", "drop_image_view",
            "no_reasoning_prompts_mode", "no_feature_extractors_mode", "no_attention_mode",
        ], False))
        self.write_file(path, header, body)
        with pytest.raises(FormatError, match="train_config is missing or malformed"):
            load_model(path)

    def test_extra_parameter_rejected_by_both_loaders(self, tmp_path):
        path, blob = self.saved_blob(tmp_path)
        header, body = self.split_file(blob)
        extra = np.zeros(2).astype("<f8").tobytes()
        # extra bytes the layout does not list
        path.write_bytes(blob + extra)
        with pytest.raises(FormatError, match="overlong"):
            load_checkpoint(path)
        # an extra layout entry with its bytes: a well-formed file, a foreign model
        header["layout"].append(["bogus.extra", [2]])
        self.write_file(path, header, body + extra)
        load_checkpoint(path)
        with pytest.raises(FormatError, match="bogus.extra"):
            load_model(path)

    def test_repeated_parameter_rejected_by_both_loaders(self, tmp_path):
        path, blob = self.saved_blob(tmp_path)
        header, body = self.split_file(blob)
        first = header["layout"][0]
        header["layout"].insert(1, first)
        # the repeated entry without its bytes
        self.write_file(path, header, body)
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)
        # with its bytes
        size = 8 * int(np.prod(first[1]))
        self.write_file(path, header, body[:size] + body)
        load_checkpoint(path)
        with pytest.raises(FormatError, match=first[0]):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda layout: layout[3].__setitem__(0, "views.text.attn.W_X"),  # renamed
            lambda layout: layout.insert(0, layout.pop(1)),  # reordered
            # (16, 8) -> (8, 16): the same size, another shape
            lambda layout: dict(layout)["views.cross.proj.W"].reverse(),
            lambda layout: layout.pop(),  # the last parameter is missing
        ],
        ids=["renamed", "reordered", "transposed", "missing"],
    )
    def test_layout_must_equal_the_model(self, tmp_path, edit):
        path, blob = self.saved_blob(tmp_path)
        header, body = self.split_file(blob)
        edit(header["layout"])
        body = body[: 8 * sum(int(np.prod(shape)) for _, shape in header["layout"])]
        self.write_file(path, header, body)
        load_checkpoint(path)  # well formed
        with pytest.raises(FormatError, match="layout"):
            load_model(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        class Unwritable(np.ndarray):
            def astype(self, *args, **kwargs):
                raise ValueError("cannot be written")

        model = Model(tiny_cfg(), TINY_D_IN)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        before = path.read_bytes()
        # the values cannot be written, so the save fails after the header
        # has been written
        model.values = model.values.view(Unwritable)
        with pytest.raises(ValueError, match="cannot be written"):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_load_model_fills_the_arena(self, tmp_path):
        model, _ = train(tiny_cfg(epochs=1), tiny_dataset())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        restored = load_model(path)
        assert restored.values.tobytes() == model.values.tobytes()
        for p in restored.parameters():
            assert np.shares_memory(p.tensor.values, restored.values), p.name

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_model_not_saved(self, tmp_path, bad):
        model = Model(tiny_cfg(), TINY_D_IN)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path)
        before = path.read_bytes()
        first = model.parameters()[0]
        first.tensor.values.flat[0] = bad
        with pytest.raises(FormatError, match=first.name):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_not_loaded(self, tmp_path, bad):
        path, blob = self.saved_blob(tmp_path)
        header, body = self.split_file(blob)
        sizes = [int(np.prod(shape)) for _, shape in header["layout"]]
        starts = np.cumsum([0] + sizes)
        # the first and the last value of the first, a middle and the last parameter
        for k in (0, len(sizes) // 2, len(sizes) - 1):
            name = header["layout"][k][0]
            for index in (starts[k], starts[k + 1] - 1):
                values = np.frombuffer(body, dtype="<f8").copy()
                values[index] = bad
                self.write_file(path, header, values.astype("<f8").tobytes())
                with pytest.raises(FormatError, match="non-finite"):
                    load_checkpoint(path)
                with pytest.raises(FormatError, match=re.escape(repr(name))):
                    load_model(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world")
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestContentTeacher:
    def test_replacement_is_deterministic_and_content_dependent(self):
        ds = tiny_dataset()
        a = replace_teacher_with_content_embeddings(ds, d=8)
        b = replace_teacher_with_content_embeddings(ds, d=8)
        for s1, s2 in zip(a, b):
            for view in ("text", "image", "cross"):
                assert np.array_equal(s1.teacher.view(view).values, s2.teacher.view(view).values)
        # different samples get different embeddings
        assert not np.array_equal(a[0].teacher.values[0], a[1].teacher.values[0])

    def test_original_dataset_untouched(self):
        ds = tiny_dataset()
        before = ds[0].teacher.values.copy()
        replace_teacher_with_content_embeddings(ds, d=8)
        assert np.array_equal(ds[0].teacher.values, before)


class TestAblationModes:
    def test_dropped_views_are_zeroed(self):
        ds = tiny_dataset()
        cfg = tiny_cfg(ablation="drop_text_view")
        data = StackedDataset.from_samples(ds)
        model = Model(cfg, data.d_in)
        views = model.encode_batch(data.batch(np.arange(8)))
        assert np.array_equal(views.values[:, 0], np.zeros((8, 8)))
        assert np.any(views.values[:, 1] != 0)

    def test_no_feature_extractors_requires_matching_dims(self):
        ds = tiny_dataset()  # d_in = 8
        with pytest.raises(ConfigError):
            Model(tiny_cfg(d=16, d_h=32, ablation="no_feature_extractors"), TINY_D_IN)

    def test_no_feature_extractors_uses_raw_pooled_tokens(self):
        ds = tiny_dataset()
        data = StackedDataset.from_samples(ds)
        model = Model(tiny_cfg(ablation="no_feature_extractors"), data.d_in)
        batch = data.batch(np.arange(4))
        views = model.encode_batch(batch)
        assert np.allclose(views.values[:, 0], batch.tokens["text-tokens"].mean(axis=1), atol=1e-15)

    @pytest.mark.parametrize(
        "ablation", ["no_attention", "no_feature_extractors", "drop_text_view", "drop_image_view"]
    )
    def test_every_parameter_gets_a_gradient(self, ablation):
        # the attention blocks and projections these rows skip, and a dropped
        # view's encoder, are not built, so Adam and the checkpoint carry no
        # parameter without a gradient path
        data = StackedDataset.from_samples(tiny_dataset())
        model = Model(tiny_cfg(ablation=ablation), data.d_in)
        backward(model.forward_loss(data.batch(np.arange(64))).graph)
        assert [p.name for p in model.parameters() if not p.tensor.grad.any()] == []
        # the kept parameters start as in the full model, since each is seeded by its name
        full = params_snapshot(Model(tiny_cfg(), data.d_in))
        kept = params_snapshot(model)
        assert_params_equal(kept, {name: full[name] for name in kept})
        skipped = {name.rsplit(".", 1)[0] for name in full.keys() - kept.keys()}
        attention = {"views.text.attn", "views.image.attn", "views.cross.i2t", "views.cross.t2i"}
        assert skipped == {
            "no_attention": attention | {"fusion.attn"},
            "no_feature_extractors": attention | {f"views.{v}.proj" for v in ("text", "image", "cross")},
            "drop_text_view": {"views.text.attn", "views.text.proj"},
            "drop_image_view": {"views.image.attn", "views.image.proj"},
        }[ablation]

    def test_no_attention_mode_trains(self):
        ds = tiny_dataset()
        tr, te = split(ds, (0.75, 0.25), seed=10)
        _, report = train(tiny_cfg(epochs=1, ablation="no_attention"), tr, eval_dataset=te)
        assert report.metrics is not None
