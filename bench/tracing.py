"""The traced run: spans around the calls into each layer, and the per-layer
metrics derived from them.

Spans are recorded from outside the program. `Tracer.installed()` replaces
each function in `_targets()` with a timing wrapper, on the object the
caller looks it up on (`tensor.add` for `T.add(...)`, `cli.rollout` for the
name `cli` imported), and puts the originals back on exit. A span is
(name, start ns, end ns, parent span, request id, tag); the tag is a batch
size or a CLI subcommand. Spans stay in memory until the run ends.

`train()` cannot be split from outside, so `replay_train` repeats its loop
from public pieces; `traced_run` checks that the replay reproduces
`train()`'s per-epoch losses and checkpoint bytes bit for bit.

The traced run always covers all three workloads' code paths, so every
per-layer metric is present whichever workload is named. Its work is a
fixed amount, not a time budget, so its counts repeat exactly for a seed.
A wrapped function the program no longer has, or a timing with no span
behind it, is reported rather than read as 0, and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from prbforecast import cli, data, metrics, model, synth, training
from prbforecast import tensor as T

import workloads as W

# Forward ops the model and the loss call today; each gets a calls and an
# ms metric. Every public op in `tensor` is wrapped, listed or not.
TENSOR_OPS = ("add", "sub", "mul", "scale", "matmul", "relu", "dropout",
              "embedding_lookup", "slice_lastdim", "reshape", "transpose",
              "mean", "softmax_lastdim", "layer_norm")
ALL_TENSOR_OPS = TENSOR_OPS + ("concat", "tsum")
TRACE_FORECASTS = 4  # forecast requests in the traced run, then one eval

NAME, START, END, PARENT, REQUEST, TAG = range(6)


def _batch(index):
    def tag(args):
        shape = args[index].shape
        return shape[0] if len(shape) == 3 else 1
    return tag


def _len0(args):
    return len(args[0])


def _subcommand(args):
    return args[0][0]


def _targets():
    """(owner, attribute, span name, tag function) for every wrapped call."""
    F = model.ForecastModel
    out = [
        (synth, "generate", "synth.generate", None),
        (data, "load_csv", "data.load_csv", None),
        (data, "chronological_split", "data.chronological_split", None),
        (data.Normalizer, "fit", "data.normalizer_fit", None),
        (data, "make_samples", "data.make_samples", None),
        (data, "batch_samples", "data.batch_samples", _len0),
        (model, "embed_tokens", "embedding.embed_tokens", _batch(1)),
        (F, "forward_training", "model.forward_training", _batch(1)),
        (F, "encode", "model.encode", _batch(1)),
        (F, "decode", "model.decode", _batch(2)),
        (F, "forward_block", "model.forward_block", _batch(1)),
        (T, "backward", "tensor.backward", None),
        (training, "total_loss", "training.total_loss", None),
        (training, "clip_gradients", "training.clip_gradients", None),
        (training, "adam_step", "training.adam_step", None),
        (training, "save_checkpoint", "training.save_checkpoint", None),
        (cli, "main", "cli.main", _subcommand),
        (cli, "load_checkpoint", "training.load_checkpoint", None),
        (cli, "load_csv", "data.load_csv", None),
        (cli, "parse_timestamp", "data.parse_timestamp", None),
        (cli, "window_from_records", "rollout.window_from_records", None),
        (cli, "rollout", "rollout.rollout", None),
        (cli, "forecast_to_csv", "rollout.forecast_to_csv", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (metrics, "model_hash", "metrics.model_hash", None),
        (metrics, "write_report", "metrics.write_report", None),
        (metrics, "anchor_positions", "metrics.anchor_positions", None),
        (metrics, "emit_plot_svg", "metrics.emit_plot_svg", None),
        (metrics, "window_from_records", "rollout.window_from_records", None),
        (metrics, "rollout", "rollout.rollout", None),
    ]
    out += [(T, op, f"tensor.{op}", None) for op in ALL_TENSOR_OPS]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.missing: list[str] = []  # wrapped functions the program lacks

    def _open(self, name, tag):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.request, tag]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name, tag=None, request=None):
        if request is not None:
            self.request = request
        rec = self._open(name, tag)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name, tag):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            rec = open_(name, tag(args) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        undo = []
        try:
            for owner, attr, name, tag in _targets():
                raw = vars(owner).get(attr)
                if raw is None:
                    where = f"{owner.__name__}.{attr}"
                    if where not in self.missing:
                        self.missing.append(where)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, tag))
                else:
                    new = self.wrap(raw, name, tag)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "request", "tag"],
               "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))


# -- train replay -----------------------------------------------------------

def replay_train(tr: W.Train, tracer: Tracer, checkpoint: Path):
    """`train()`'s loop rebuilt from public pieces, with a span per step and
    per validation pass. Returns (per-epoch (train, val) losses, tape ops per
    step, clip scales); writes the final checkpoint to `checkpoint`."""
    cfg, hp = tr.cfg, tr.hp
    samples, n = tr.train_samples, len(tr.train_samples)
    T.seed_all(cfg.seed)
    net = model.ForecastModel(hp)
    params = net.params()
    state = training.AdamState(params)
    best_val, best_snapshot, stale = np.inf, None, 0
    losses, tape_ops, scales = [], [], []
    for epoch in range(1, cfg.epochs + 1):
        order = np.random.default_rng((cfg.seed, epoch)).permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            batch = [samples[i] for i in order[start:start + cfg.batch_size]]
            enc_x, enc_meta, targets, dec_meta = data.batch_samples(batch)
            with tracer.span("training.step", len(batch)):
                net.zero_grads()
                det, quant = net.forward_training(enc_x, enc_meta, targets,
                                                  dec_meta, training=True)
                loss = training.total_loss(det, quant, targets, cfg.alpha,
                                           cfg.beta, hp.quantiles)
                tape_ops.append(len(T.tape()))
                value = float(loss.data)
                W.check(np.isfinite(value), f"non-finite loss at epoch {epoch}")
                T.backward(loss)
                scales.append(training.clip_gradients(params, cfg.clip_norm))
                training.adam_step(params, state, cfg.lr,
                                   weight_decay=cfg.weight_decay)
            epoch_losses.append(value * len(batch))
        train_loss = sum(epoch_losses) / n
        with tracer.span("training.validate"):
            val_loss = training._evaluate_loss(net, tr.val_samples, cfg,
                                               cfg.batch_size)
        losses.append((train_loss, val_loss))
        if best_val - val_loss > cfg.min_delta:
            best_val, stale = val_loss, 0
            best_snapshot = [p.data.copy() for p in params]
        else:
            stale += 1
        if stale >= cfg.patience:
            break
    if best_snapshot is not None:
        for p, saved in zip(params, best_snapshot):
            p.data = saved
    training.save_checkpoint(str(checkpoint), net, cfg, tr.normalizer)
    return losses, tape_ops, scales


# -- the traced run -----------------------------------------------------------

def _timed(loop: W.Loop, fn, *args):
    start = time.perf_counter()
    result = loop.call(fn, *args)
    return result, time.perf_counter() - start


def _overhead_pct(traced_s: float, untraced_s: float) -> float:
    return 100.0 * (traced_s - untraced_s) / untraced_s


def traced_run(seed: int, workdir: Path) -> dict:
    """Set up all three workloads, then run each once untraced and once
    traced. Returns the loop counts, the replica verdict, the per-layer
    metrics and the tracer."""
    tracer = Tracer()
    loop = W.Loop()
    facts = {}
    with tracer.installed():
        for name, setup in W.SETUPS.items():
            with tracer.span(f"setup.{name}", request=f"setup-{name}"):
                setup(seed, workdir)

    # Each section warms up untimed first, so that the untraced reference
    # is not a cold call compared with a warm traced one.
    ing = W.Ingest(seed, workdir)
    loop.call(ing.one_pass)
    _, untraced = _timed(loop, ing.one_pass)
    with tracer.installed(), tracer.span("ingest.pass", request="ingest"):
        counts, traced = _timed(loop, ing.one_pass)
    if counts is not None:
        facts["data.rows"], facts["data.samples"] = counts
    facts["trace.overhead_pct_ingest"] = _overhead_pct(traced, untraced)

    fc = W.Forecast(seed, workdir)
    stream = (r for r in fc.requests() if r[0] == "forecast")
    reqs = [next(stream) for _ in range(TRACE_FORECASTS)] + [("eval",)]
    for req in reqs:
        loop.call(fc.send, req)
    start = time.perf_counter()
    for req in reqs:
        loop.call(fc.send, req)
    untraced = time.perf_counter() - start
    start = time.perf_counter()
    with tracer.installed():
        for i, req in enumerate(reqs):
            with tracer.span(f"request.{req[0]}", request=f"{req[0]}-{i}"):
                loop.call(fc.send, req)
    facts["trace.overhead_pct_forecast"] = _overhead_pct(
        time.perf_counter() - start, untraced)

    tr = W.Train(seed, workdir)
    tr.train(epochs=1)
    ref, untraced = _timed(loop, tr.train)
    checkpoint = workdir / "replay.rupf"
    with tracer.installed(), tracer.span("training.replay", request="train"):
        replay, traced = _timed(loop, replay_train, tr, tracer, checkpoint)
    facts["trace.overhead_pct_train"] = _overhead_pct(traced, untraced)
    replica_ok = ref is not None and replay is not None
    if replica_ok:
        ref_model, history = ref
        losses, tape_ops, scales = replay
        replica_ok = (
            [(h["train_loss"], h["val_loss"]) for h in history] == losses
            and checkpoint.read_bytes() == training.checkpoint_bytes(
                ref_model, tr.cfg, tr.normalizer))
        loop.call(tr.check_history, history)
        facts["model.tape_ops_per_step"] = float(np.median(tape_ops))
        facts["training.clip_rate"] = sum(s < 1.0 for s in scales) / len(scales)
    return {"loop": loop, "replica_ok": replica_ok, "tracer": tracer,
            "missing": tracer.missing,
            "metrics": layer_metrics(tracer.spans, facts)}


# -- per-layer metrics --------------------------------------------------------

class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.children.setdefault(s[PARENT], []).append(i)
            self.by_name.setdefault(s[NAME], []).append(i)

    def ms(self, i) -> float:
        s = self.spans[i]
        return (s[END] - s[START]) / 1e6

    def self_ms(self, i) -> float:
        return self.ms(i) - sum(self.ms(c) for c in self.children.get(i, ()))

    def under(self, i, name) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def find(self, name, request=None, tag=None, under=None, parent=None):
        out = []
        for i in self.by_name.get(name, ()):
            s = self.spans[i]
            if request is not None and not (s[REQUEST] or "").startswith(request):
                continue
            if tag is not None and s[TAG] != tag:
                continue
            if under is not None and not self.under(i, under):
                continue
            if parent is not None and self.spans[s[PARENT]][NAME] != parent:
                continue
            out.append(i)
        return out

    def durations(self, name, **where) -> list[float]:
        return [self.ms(i) for i in self.find(name, **where)]


def _p(values, q=50) -> float:
    return W.percentile(values, q)


def _sum(values) -> float:
    """Total of span times, or NaN when there is no span to add up."""
    return sum(values) if values else math.nan


def layer_metrics(spans, facts: dict) -> dict:
    ix = SpanIndex(spans)
    d = ix.durations
    m = {}

    def put(name, value, unit):
        m[name] = W.metric(value, unit)

    put("synth.generate_s", _sum(d("synth.generate")) / 1e3, "s")
    put("data.load_csv_s", _sum(d("data.load_csv", request="ingest")) / 1e3, "s")
    put("data.rows", facts.get("data.rows", math.nan), "count")
    put("data.normalizer_fit_s", _sum(d("data.normalizer_fit", request="ingest")) / 1e3, "s")
    put("data.make_samples_s", _sum(d("data.make_samples", request="ingest")) / 1e3, "s")
    put("data.samples", facts.get("data.samples", math.nan), "count")
    put("data.batch_samples_ms", _p(d("data.batch_samples", request="ingest",
                                      tag=W.BATCH)), "ms")

    put("embedding.embed_tokens_ms_b400", _p(d("embedding.embed_tokens", tag=W.BATCH)), "ms")
    put("embedding.embed_tokens_ms_b1", _p(d("embedding.embed_tokens", tag=1)), "ms")

    put("model.forward_training_ms", _p(d("model.forward_training", tag=W.BATCH,
                                          under="training.step")), "ms")
    put("model.forward_eval_ms", _p(d("model.forward_training", tag=W.BATCH,
                                      under="training.validate")), "ms")
    put("model.encode_ms", _p(d("model.encode", tag=W.BATCH, under="training.step")), "ms")
    put("model.decode_ms", _p(d("model.decode", tag=W.BATCH, under="training.step")), "ms")
    blocks = d("model.forward_block")
    put("model.forward_block_ms_p50", _p(blocks), "ms")
    put("model.forward_block_ms_p90", _p(blocks, 90), "ms")
    put("model.tape_ops_per_step", facts.get("model.tape_ops_per_step", math.nan), "count")

    put("tensor.backward_ms", _p(d("tensor.backward")), "ms")
    for op in TENSOR_OPS:
        times = d(f"tensor.{op}")
        put(f"tensor.{op}.calls", len(times), "count")
        # An op that exists (else it is missing) but is no longer called
        # really takes 0 ms.
        put(f"tensor.{op}.ms", sum(times), "ms")

    steps = d("training.step", tag=W.BATCH)
    put("training.step_ms_p50", _p(steps), "ms")
    put("training.step_ms_p90", _p(steps, 90), "ms")
    put("training.total_loss_ms", _p(d("training.total_loss", under="training.step")), "ms")
    put("training.clip_ms", _p(d("training.clip_gradients")), "ms")
    put("training.adam_ms", _p(d("training.adam_step")), "ms")
    put("training.clip_rate", facts.get("training.clip_rate", math.nan), "ratio")
    put("training.checkpoint_save_ms", _p(d("training.save_checkpoint", request="train")), "ms")
    put("training.checkpoint_load_ms", _p(d("training.load_checkpoint")), "ms")

    rollouts = d("rollout.rollout")
    put("rollout.rollout_ms", _p(d("rollout.rollout", request="forecast")), "ms")
    put("rollout.blocks", len(blocks), "count")
    put("rollout.model_share", W.ratio(_sum(d("model.forward_block", under="rollout.rollout")),
                                       _sum(rollouts)), "ratio")
    put("rollout.window_from_records_ms", _p(d("rollout.window_from_records")), "ms")
    put("rollout.forecast_to_csv_ms", _p(d("rollout.forecast_to_csv")), "ms")

    evals = ix.find("cli.main", tag="eval")
    put("metrics.evaluate_s", _p(d("metrics.evaluate")) / 1e3, "s")
    put("metrics.emit_plot_svg_ms", _p(d("metrics.emit_plot_svg")), "ms")
    put("metrics.plot_rollouts", W.ratio(len(ix.find("rollout.rollout", parent="cli.main",
                                                     request="eval")), len(evals)), "count")
    put("cli.self_ms_forecast", _p([ix.self_ms(i) for i in ix.find("cli.main", tag="forecast")]),
        "ms")
    put("cli.self_ms_eval", _p([ix.self_ms(i) for i in evals]), "ms")

    for name in ("trace.overhead_pct_train", "trace.overhead_pct_forecast",
                 "trace.overhead_pct_ingest"):
        put(name, facts.get(name, math.nan), "%")
    return m
