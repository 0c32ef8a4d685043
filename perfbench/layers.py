"""Per-layer tracing of the ``mvrd`` package from outside it.

Each layer is timed by replacing one of its public functions or methods with
a wrapper, at the name its caller looks it up by (``mvrd.trainer.backward``,
``mvrd.model.calibrate_views``, ``mvrd.cli.train``, ``Model.encode_batch``,
``Adam.step``, ...). Nothing under ``src/`` changes, and only work done in
this process is seen.

Events are kept only while a window is recording. The workloads open a
``setup`` window for each set-up repetition and a ``round`` window for each
measured round, and pause it around the benchmark's own bookkeeping. A
per-layer metric is either the median of per-call samples over the whole run
or the median over windows of a per-window total, so that it does not depend
on how many rounds fit in a run.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import mvrd.cli
import mvrd.datasynth
import mvrd.diffcore
import mvrd.model
import mvrd.teacher
import mvrd.trainer
from mvrd.model import Model, StackedDataset
from mvrd.trainer import Adam

_clock = time.perf_counter


def tape_length() -> int:
    """Records on this thread's autodiff tape (the engine keeps no public count)."""
    return len(mvrd.diffcore._state.tape)


def read_chars() -> int:
    """Bytes this process has read through read(2) so far (``rchar``)."""
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


class Tracer:
    """Installs timing wrappers; with ``enabled=False`` it installs none and
    every window is a no-op, which is the untraced path."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.windows: dict[str, list[dict]] = {"setup": [], "round": []}
        self.calls: dict[str, list[float]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []
        self._window: dict | None = None
        self._paused = False
        self._in_train = 0
        self._in_forward = 0
        self._in_predict = 0
        self._batch_start: float | None = None

    # -- windows -----------------------------------------------------------

    @contextmanager
    def window(self, kind: str):
        """Record events into a fresh per-window total of the given kind."""
        totals: dict = defaultdict(float)
        totals["distinct_ids"] = set()
        self._window = totals
        try:
            yield
        finally:
            self._window = None
            self.windows[kind].append(totals)

    @contextmanager
    def paused(self):
        """Keep the benchmark's own calls into the package out of the trace."""
        self._paused, previous = True, self._paused
        try:
            yield
        finally:
            self._paused = previous

    def note(self, key: str, value: float) -> None:
        if self._window is not None:
            self._window[key] = value

    def _recording(self) -> bool:
        return self.enabled and self._window is not None and not self._paused

    def _sampled(self, policy: str | None) -> bool:
        if policy == "all":
            return True
        if policy == "step":  # inside train(), not inside its evaluation
            return bool(self._in_train) and not self._in_predict
        if policy == "forward":  # inside Model.forward_loss
            return bool(self._in_forward)
        return False

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key: str, fn, sample: str | None = None, before=None, after=None):
        """Wrap ``fn``: add its time and call count to the window totals under
        ``key``; keep a per-call sample when the ``sample`` policy holds."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            state = before(*args, **kwargs) if before else None
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                tracer._window[key + ".s"] += end - start
                tracer._window[key + ".n"] += 1
                if tracer._sampled(sample):
                    tracer.calls[key].append(end - start)
                if after:
                    after(state, end, *args, **kwargs)

        return wrapper

    def _depth(self, counter: str, fn):
        """Wrap ``fn`` so that the named nesting counter is raised while it runs."""
        tracer = self

        def wrapper(*args, **kwargs):
            setattr(tracer, counter, getattr(tracer, counter) + 1)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(tracer, counter, getattr(tracer, counter) - 1)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if not self.enabled:
            return
        t = self
        trainer, model, cli, datasynth, teacher = (
            mvrd.trainer, mvrd.model, mvrd.cli, mvrd.datasynth, mvrd.teacher
        )

        # diffcore: backward, and the tape length it is handed
        def tape_on_entry(*_args, **_kwargs):
            if t._sampled("step"):
                t.calls["tape_records"].append(tape_length())

        t._set(trainer, "backward",
               t._timed("diffcore.backward", trainer.backward, "step", before=tape_on_entry))

        # views, calibration and fusion, per call inside a training step
        t._set(Model, "encode_batch", t._timed("views.encode", Model.encode_batch, "forward"))
        t._set(model, "calibrate_views",
               t._timed("calibration.calibrate", model.calibrate_views, "forward"))
        t._set(model, "distill_losses",
               t._timed("calibration.distill", model.distill_losses, "forward"))
        t._set(Model, "fuse", t._timed("fusion.fuse", Model.fuse, "forward"))
        # both loss functions run once per step; metrics() sums them pairwise
        t._set(model, "classification_losses",
               t._timed("fusion.losses", model.classification_losses, "forward"))
        t._set(model, "total_loss", t._timed("fusion.losses", model.total_loss, "forward"))

        # trainer: the step, from the batch slice to the end of Adam.step
        t._set(Model, "forward_loss", t._depth(
            "_in_forward", t._timed("trainer.forward", Model.forward_loss, "step")
        ))

        def batch_start(*_args, **_kwargs):
            if t._sampled("step"):
                t._batch_start = _clock()

        def step_end(_state, end, *_args, **_kwargs):
            if t._batch_start is not None:
                t.calls["trainer.step"].append(end - t._batch_start)
                t._batch_start = None

        t._set(StackedDataset, "batch",
               t._timed("model.batch", StackedDataset.batch, "step", before=batch_start))
        t._set(Adam, "step", t._timed("trainer.adam", Adam.step, "step", after=step_end))

        # trainer: runs, the content teacher and the hash embedder
        train = t._depth("_in_train", t._timed("trainer.train", trainer.train))
        t._set(trainer, "train", train)
        t._set(cli, "train", train)

        def content_inputs(samples, *_args, **_kwargs):
            t._window["content_samples"] += len(samples)
            t._window["distinct_ids"].update(s.sample_id for s in samples)

        t._set(trainer, "replace_teacher_with_content_embeddings", t._timed(
            "trainer.content_teacher", trainer.replace_teacher_with_content_embeddings,
            before=content_inputs,
        ))
        embed = t._timed("teacher.fallback_embed", teacher.fallback_embed, "all")
        for owner in (trainer, teacher, cli):
            t._set(owner, "fallback_embed", embed)

        # trainer: persistence and evaluation; metrics
        t._set(cli, "save_checkpoint", t._timed("trainer.save_checkpoint", cli.save_checkpoint))
        t._set(cli, "load_model", t._timed("trainer.load_model", cli.load_model))
        evaluate = t._timed("trainer.evaluate", trainer.evaluate)
        t._set(trainer, "evaluate", evaluate)
        t._set(cli, "evaluate", evaluate)
        t._set(trainer, "compute_metrics",
               t._timed("metrics.compute_metrics", trainer.compute_metrics))

        # model: stacking (also the per-chunk restack inside predict) and predict
        from_samples = StackedDataset.__dict__["from_samples"].__func__
        t._set(StackedDataset, "from_samples", classmethod(t._timed("model.stack", from_samples)))
        t._set(Model, "predict_logits",
               t._depth("_in_predict", t._timed("model.predict", Model.predict_logits)))

        # datasynth and fileio
        generate = t._timed("datasynth.generate", datasynth.generate_dataset)
        t._set(datasynth, "generate_dataset", generate)
        t._set(cli, "generate_dataset", generate)
        save_features = t._timed("datasynth.save_features", datasynth.save_features_file)
        t._set(datasynth, "save_features_file", save_features)
        t._set(cli, "save_features_file", save_features)

        def io_before(path, *_args, **_kwargs):
            return read_chars()

        def io_after(chars_before, _end, path, *_args, **_kwargs):
            t._window["features_bytes"] += os.path.getsize(path)
            t._window["features_rchar"] += read_chars() - chars_before

        t._set(cli, "load_features_file", t._timed(
            "datasynth.load_features", cli.load_features_file, before=io_before, after=io_after
        ))
        read_lines = t._timed("fileio.read_record_lines", datasynth.read_record_lines)
        t._set(datasynth, "read_record_lines", read_lines)
        t._set(teacher, "read_record_lines", read_lines)

        # teacher files
        t._set(cli, "save_teacher_file",
               t._timed("teacher.save_teacher_file", cli.save_teacher_file))
        t._set(cli, "load_teacher_file",
               t._timed("teacher.load_teacher_file", cli.load_teacher_file))

        # cli commands; main() binds them when it builds its parser
        for command, key in (("cmd_gen_data", "cli.gen_data"), ("cmd_train", "cli.train"),
                             ("cmd_eval", "cli.eval")):
            t._set(cli, command, t._timed(key, getattr(cli, command)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, 0 where a layer did no work."""

        def median(values) -> float:
            values = list(values)
            return float(statistics.median(values)) if values else 0.0

        def per_round(key: str) -> float:
            return median(w.get(key, 0.0) for w in self.windows["round"])

        def per_setup(key: str) -> float:
            return median(w.get(key, 0.0) for w in self.windows["setup"])

        def per_call(key: str, scale: float = 1e3) -> float:
            return median(self.calls.get(key, ())) * scale

        def per_round_ratio(num: str, den) -> float:
            return median(w.get(num, 0.0) / den(w) if den(w) else 0.0
                          for w in self.windows["round"])

        losses = self.calls.get("fusion.losses", [])
        return {
            "diffcore.backward_ms": per_call("diffcore.backward"),
            "diffcore.tape_records_per_step": per_call("tape_records", 1.0),
            "diffcore.tape_records_left": per_round("tape_left"),
            "views.encode_ms": per_call("views.encode"),
            "calibration.calibrate_ms": per_call("calibration.calibrate"),
            "calibration.distill_ms": per_call("calibration.distill"),
            "fusion.fuse_ms": per_call("fusion.fuse"),
            "fusion.losses_ms": median(a + b for a, b in zip(losses[0::2], losses[1::2])) * 1e3,
            "trainer.forward_ms": per_call("trainer.forward"),
            "trainer.adam_ms": per_call("trainer.adam"),
            "trainer.step_ms": per_call("trainer.step"),
            "trainer.steps": per_round("trainer.adam.n"),
            "trainer.train_runs": per_round("trainer.train.n"),
            "trainer.content_teacher_s": per_round("trainer.content_teacher.s"),
            "trainer.content_embeds_per_distinct_sample": per_round_ratio(
                "content_samples", lambda w: len(w["distinct_ids"])
            ),
            "teacher.fallback_embed_calls": per_round("teacher.fallback_embed.n"),
            "teacher.fallback_embed_us": per_call("teacher.fallback_embed", 1e6),
            "trainer.save_checkpoint_s": per_round("trainer.save_checkpoint.s"),
            "trainer.load_model_s": per_round("trainer.load_model.s"),
            "trainer.evaluate_s": per_round("trainer.evaluate.s"),
            "model.batch_ms": per_call("model.batch"),
            "model.stack_s": per_round("model.stack.s"),
            "model.predict_s": per_round("model.predict.s"),
            "datasynth.generate_s": per_setup("datasynth.generate.s"),
            "datasynth.save_features_s": per_setup("datasynth.save_features.s"),
            "datasynth.load_features_s": per_round("datasynth.load_features.s"),
            "datasynth.features_bytes": per_round("features_bytes"),
            "datasynth.load_read_bytes_per_file_byte": per_round_ratio(
                "features_rchar", lambda w: w.get("features_bytes", 0.0)
            ),
            "fileio.read_record_lines_s": per_round("fileio.read_record_lines.s"),
            "teacher.save_teacher_file_s": per_setup("teacher.save_teacher_file.s"),
            "teacher.load_teacher_file_s": per_round("teacher.load_teacher_file.s"),
            "metrics.compute_metrics_s": per_round("metrics.compute_metrics.s"),
            "cli.gen_data_s": per_setup("cli.gen_data.s"),
            "cli.train_s": per_round("cli.train.s"),
            "cli.eval_s": per_round("cli.eval.s"),
        }
