"""Inputs, requests and output checks for the three benchmark workloads.

Every workload is a closed loop with one client: the next request starts
when the previous one has returned. Inputs are generated from the run seed
by `SETUPS` into a work directory; the program only ever sees those files.

- train:    `training.train` at the default hyperparameters and B=400 on
            3 synthetic carriers, for a fixed number of epochs.
- forecast: in-process `cli.main` requests against a seeded, untrained
            checkpoint; day-ahead `forecast` calls with one `eval` call
            (3 carriers x 4 anchors x 96 steps, with plots) every
            `EVAL_EVERY` requests.
- ingest:   `load_csv` -> `chronological_split` -> `Normalizer.fit` ->
            `make_samples` -> one shuffled epoch of `batch_samples` on a
            21-carrier CSV.

Each workload reports its own metrics under the names that describe it
(`train.samples_per_s`, `forecast.latency_ms_p50`, ...); `ITEMS_PER_S`
names the one that becomes the end-to-end `items_per_s`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from prbforecast import cli, data, synth, training
from prbforecast import tensor as T
from prbforecast.model import ForecastModel, Hyperparams

DAY = synth.STEPS_PER_DAY
STEP = timedelta(minutes=15)
BATCH = 400

# 8 train days x 3 carriers give 2,289 samples (6 batches of B=400); 2 val
# days give 561. One spare day is the test span the split requires.
TRAIN_CARRIERS, TRAIN_DAYS, VAL_DAYS = 3, 8, 2
# patience (default 10) exceeds the epoch count, so early stopping cannot
# cut a call short and every call does the same work.
TRAIN_EPOCHS = 2

FORECAST_CARRIERS, FORECAST_DAYS = 3, 14
HORIZON = 96
EVAL_ANCHORS = 4
EVAL_EVERY = 10  # every 10th request is an eval, the other 9 are forecasts

# 21 carriers is the full id range: 3 sectors x 7 carriers.
INGEST_CARRIERS, INGEST_DAYS = 21, 30
INGEST_SPLIT = (0.8, 0.1, 0.1)

# The workload's own metric reported as the end-to-end `items_per_s`.
ITEMS_PER_S = {"train": "train.samples_per_s", "forecast": "forecast.steps_per_s",
               "ingest": "ingest.rows_per_s"}


class CheckFailed(Exception):
    """A request returned, but its output is wrong."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def percentile(values, q: float) -> float:
    """The q-th percentile, or NaN when no request succeeded."""
    if len(values) == 0:
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def ratio(a: float, b: float) -> float:
    return a / b if b else math.nan


def metric(value, unit: str, n: int | None = None) -> dict:
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = n
    return out


# -- set-up -------------------------------------------------------------------

def _write_csv(path: Path, carriers: int, days: int, seed: int):
    series = synth.generate(synth.default_profiles(carriers, seed),
                            n_days=days, seed=seed)
    data.save_csv(series, str(path))
    return series


def setup_train(seed: int, workdir: Path) -> None:
    _write_csv(workdir / "train.csv", TRAIN_CARRIERS,
               TRAIN_DAYS + VAL_DAYS + 1, seed)


def setup_forecast(seed: int, workdir: Path) -> None:
    series = _write_csv(workdir / "forecast.csv", FORECAST_CARRIERS,
                        FORECAST_DAYS, seed)
    # Untrained weights: forecast and eval compute does not depend on them.
    T.seed_all(seed)
    model = ForecastModel(Hyperparams())
    training.save_checkpoint(str(workdir / "model.rupf"), model,
                             training.TrainConfig(seed=seed),
                             data.Normalizer.fit(series))


def setup_ingest(seed: int, workdir: Path) -> None:
    _write_csv(workdir / "ingest.csv", INGEST_CARRIERS, INGEST_DAYS, seed)


SETUPS = {"train": setup_train, "forecast": setup_forecast,
          "ingest": setup_ingest}


def setup_server(name: str, seed: int, workdir: str) -> None:
    """Child-process entry point for timing a workload's set-up. Writes the
    workload's inputs into `workdir` (an untimed round that also warms the
    process up), prints `ready`, then for each line read from standard
    input sets up again, into a subdirectory, and prints that round's wall
    time in s. Ends when standard input closes."""
    import sys
    SETUPS[name](seed, Path(workdir))
    rounds = Path(workdir) / "setup-rounds"
    rounds.mkdir()
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        SETUPS[name](seed, rounds)
        print(time.perf_counter() - start, flush=True)


# -- closed loop --------------------------------------------------------------

class Loop:
    """Sends requests until `seconds` have passed; a request that raises
    counts as failed and the loop goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, request, seconds: float, between=None) -> None:
        """`between(fraction of seconds elapsed)`, if given, is called after
        each request, outside the request's own timing."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.call(request)
            if between:
                between((time.perf_counter() - start) / seconds)

    def call(self, request, *args):
        self.attempted += 1
        try:
            return request(*args)
        except Exception as e:  # a failed request is a result, not a crash
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(e).__name__}: {e}")
            return None


# -- train --------------------------------------------------------------------

class _EpochClock(logging.Handler):
    """Timestamps the one log record `train()` emits per epoch, which splits
    a call into epochs without tracing it."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.stamps: list[float] = []

    def emit(self, record):
        self.stamps.append(time.perf_counter())


class Train:
    def __init__(self, seed: int, workdir: Path):
        series = data.load_csv(str(workdir / "train.csv"))
        train_s, val_s, _ = data.chronological_split(
            series, (TRAIN_DAYS * DAY, VAL_DAYS * DAY, DAY))
        self.hp = Hyperparams()
        self.cfg = training.TrainConfig(epochs=TRAIN_EPOCHS, seed=seed,
                                        batch_size=BATCH)
        self.normalizer = data.Normalizer.fit(train_s)
        n_past, n_future = self.hp.n_past, self.hp.n_future
        self.train_samples = data.make_samples(train_s, self.normalizer, n_past, n_future)
        self.val_samples = data.make_samples(val_s, self.normalizer, n_past, n_future)
        T.seed_all(seed)
        self.untrained_val_loss = training._evaluate_loss(
            ForecastModel(self.hp), self.val_samples, self.cfg, self.cfg.batch_size)

    def train(self, epochs: int = TRAIN_EPOCHS):
        cfg = training.TrainConfig(**{**self.cfg.to_dict(), "epochs": epochs})
        return training.train(self.train_samples, self.val_samples, self.hp, cfg)

    def check_history(self, history) -> None:
        check(len(history) == TRAIN_EPOCHS,
              f"history has {len(history)} epochs, expected {TRAIN_EPOCHS}")
        for h in history:
            check(math.isfinite(h["train_loss"]) and math.isfinite(h["val_loss"]),
                  f"non-finite loss in history: {h}")
        best = min(h["val_loss"] for h in history)
        check(best < self.untrained_val_loss,
              f"validation loss {best} not below the untrained model's "
              f"{self.untrained_val_loss}")

    def run(self, seconds: float, between=None) -> dict:
        self.train(epochs=1)  # warm-up: the first call of a process is slowest
        loop = Loop()
        clock = _EpochClock()
        logger = logging.getLogger(training.__name__)
        saved = logger.level, logger.propagate
        logger.addHandler(clock)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        epoch_s, call_s, val_losses = [], [], []

        def request():
            start = time.perf_counter()
            clock.stamps.clear()
            _, history = self.train()
            call_s.append(time.perf_counter() - start)
            check(len(clock.stamps) == TRAIN_EPOCHS, "missing epoch log records")
            stamps = [start] + clock.stamps
            epoch_s.extend(b - a for a, b in zip(stamps, stamps[1:]))
            self.check_history(history)
            val_losses.append(min(h["val_loss"] for h in history))

        try:
            loop.run(request, seconds, between)
        finally:
            logger.removeHandler(clock)
            logger.level, logger.propagate = saved
        samples = len(self.train_samples) * TRAIN_EPOCHS * len(call_s)
        epoch_ms = [s * 1e3 for s in epoch_s]
        details = {
            "train.samples_per_s": metric(ratio(samples, sum(call_s)), "1/s", len(call_s)),
            "train.epoch_ms_p50": metric(percentile(epoch_ms, 50), "ms", len(epoch_ms)),
            "train.epoch_ms_p90": metric(percentile(epoch_ms, 90), "ms", len(epoch_ms)),
            "train.val_loss": metric(val_losses[-1] if val_losses else math.nan, "loss",
                                     len(val_losses)),
        }
        return {"loop": loop, "details": details}


# -- forecast -----------------------------------------------------------------

def expected_anchors(series_len: int, n_past: int, horizon: int, n: int) -> list[int]:
    """Evenly spaced eval anchors, each with n_past history and a full horizon."""
    lo, hi = n_past, series_len - horizon
    return sorted({lo + round(i * (hi - lo) / (n - 1)) for i in range(n)})


def check_forecast_csv(path: Path, carrier: int, start: datetime, horizon: int) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    check(rows and rows[0][:5] == ["timestamp", "carrier_id", "q10", "q50", "q90"],
          f"bad forecast header {rows[:1]}")
    body = rows[1:]
    check(len(body) == horizon, f"{len(body)} forecast rows, expected {horizon}")
    for k, row in enumerate(body):
        want = (start + k * STEP).strftime("%Y-%m-%dT%H:%M:%SZ")
        check(row[0] == want, f"row {k}: timestamp {row[0]}, expected {want}")
        check(int(row[1]) == carrier, f"row {k}: carrier {row[1]}, expected {carrier}")
        values = [float(v) for v in row[2:]]
        check(all(math.isfinite(v) for v in values), f"row {k}: non-finite value")
        q10, q50, q90 = values[:3]
        check(0.0 <= q10 <= q50 <= q90 <= 1.0,
              f"row {k}: quantiles {q10}, {q50}, {q90} not ordered in [0, 1]")


def check_eval_report(path: Path, plot_dir: Path, anchors: list[int]) -> None:
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    carriers = [c["carrier_id"] for c in report["per_carrier"]]
    check(carriers == list(range(FORECAST_CARRIERS)), f"report carriers {carriers}")
    for c in report["per_carrier"]:
        check(math.isfinite(c["mae"]) and c["mae"] >= 0, f"bad MAE {c['mae']}")
        check(0.0 <= c["hit_prob"] <= 1.0, f"hit_prob {c['hit_prob']} outside [0, 1]")
        check(c["anchors"] == anchors, f"anchors {c['anchors']}, expected {anchors}")
        plot = plot_dir / f"carrier_{c['carrier_id']}.svg"
        check(plot.is_file(), f"missing plot {plot.name}")


class Forecast:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.model = str(workdir / "model.rupf")
        self.data = str(workdir / "forecast.csv")
        self.out = workdir / "forecast_out.csv"
        self.report = workdir / "report.json"
        self.plots = workdir / "plots"
        self.steps = FORECAST_DAYS * DAY
        self.n_past = Hyperparams().n_past
        self.anchors = expected_anchors(self.steps, self.n_past, HORIZON, EVAL_ANCHORS)

    def requests(self):
        """Endless request stream drawn from the seed: `EVAL_EVERY - 1`
        forecasts at random (carrier, --from) pairs, then one eval."""
        rng = np.random.default_rng((self.seed, 1))
        i = 0
        while True:
            i += 1
            if i % EVAL_EVERY == 0:
                yield ("eval",)
            else:
                carrier = int(rng.integers(FORECAST_CARRIERS))
                at = int(rng.integers(self.n_past, self.steps))
                yield ("forecast", carrier, synth.DEFAULT_START + at * STEP)

    def argv(self, req) -> list[str]:
        if req[0] == "eval":
            return ["eval", "--model", self.model, "--data", self.data,
                    "--horizon", str(HORIZON), "--anchors", str(EVAL_ANCHORS),
                    "--report", str(self.report), "--plot-dir", str(self.plots)]
        _, carrier, start = req
        return ["forecast", "--model", self.model, "--data", self.data,
                "--carrier", str(carrier),
                "--from", start.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "--horizon", str(HORIZON), "--out", str(self.out)]

    def send(self, req) -> float:
        """One CLI request; returns its latency in seconds. Output checks
        run after the clock stops."""
        argv = self.argv(req)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        check(code == 0, f"{argv[0]} exited with {code}")
        if req[0] == "eval":
            check_eval_report(self.report, self.plots, self.anchors)
        else:
            check_forecast_csv(self.out, req[1], req[2], HORIZON)
        return elapsed

    def run(self, seconds: float, between=None) -> dict:
        stream = self.requests()
        self.send(next(stream))  # warm-up
        self.send(("eval",))
        loop = Loop()
        latency = {"forecast": [], "eval": []}

        def request():
            req = next(stream)
            latency[req[0]].append(self.send(req))

        loop.run(request, seconds, between)
        busy = sum(latency["forecast"]) + sum(latency["eval"])
        fc_ms = [s * 1e3 for s in latency["forecast"]]
        steps = (len(latency["forecast"]) * HORIZON
                 + len(latency["eval"]) * FORECAST_CARRIERS * EVAL_ANCHORS * HORIZON)
        details = {
            "forecast.latency_ms_p50": metric(percentile(fc_ms, 50), "ms", len(fc_ms)),
            "forecast.latency_ms_p90": metric(percentile(fc_ms, 90), "ms", len(fc_ms)),
            "forecast.steps_per_s": metric(ratio(steps, busy), "1/s", loop.attempted),
            "eval.latency_s_p50": metric(percentile(latency["eval"], 50), "s",
                                         len(latency["eval"])),
        }
        return {"loop": loop, "details": details}


# -- ingest -------------------------------------------------------------------

class Ingest:
    def __init__(self, seed: int, workdir: Path):
        self.path = str(workdir / "ingest.csv")
        self.rng = np.random.default_rng((seed, 2))

    def one_pass(self) -> tuple[int, int]:
        """One pass of the data layer; returns (CSV rows, samples). Checks
        the sample count and every batch's shapes."""
        hp = Hyperparams()
        series = data.load_csv(self.path)
        train_s, _, _ = data.chronological_split(series, INGEST_SPLIT)
        normalizer = data.Normalizer.fit(train_s)
        samples = data.make_samples(train_s, normalizer, hp.n_past, hp.n_future)
        window = hp.n_past + hp.n_future
        expected = sum(len(s) - window + 1 for s in train_s)
        check(len(samples) == expected, f"{len(samples)} samples, expected {expected}")
        order = self.rng.permutation(len(samples))
        for start in range(0, len(order), BATCH):
            idx = order[start:start + BATCH]
            enc_x, enc_meta, targets, dec_meta = data.batch_samples(
                [samples[i] for i in idx])
            b = len(idx)
            shapes = (enc_x.shape, enc_meta.shape, targets.shape, dec_meta.shape)
            want = ((b, hp.n_past, 9), (b, hp.n_past, 5),
                    (b, hp.n_future, 9), (b, hp.n_future, 5))
            check(shapes == want, f"batch shapes {shapes}, expected {want}")
        return sum(len(s) for s in series), len(samples)

    def run(self, seconds: float, between=None) -> dict:
        rows, samples = self.one_pass()  # warm-up; every pass has these sizes
        loop = Loop()
        pass_s = []

        def request():
            start = time.perf_counter()
            self.one_pass()
            pass_s.append(time.perf_counter() - start)

        loop.run(request, seconds, between)
        busy = sum(pass_s)
        pass_ms = [s * 1e3 for s in pass_s]
        details = {
            "ingest.rows_per_s": metric(ratio(rows * len(pass_s), busy), "1/s", len(pass_s)),
            "ingest.samples_per_s": metric(ratio(samples * len(pass_s), busy), "1/s",
                                           len(pass_s)),
            "ingest.pass_ms_p50": metric(percentile(pass_ms, 50), "ms", len(pass_ms)),
            "ingest.pass_ms_p90": metric(percentile(pass_ms, 90), "ms", len(pass_ms)),
        }
        return {"loop": loop, "details": details}


WORKLOADS = {"train": Train, "forecast": Forecast, "ingest": Ingest}
