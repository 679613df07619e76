"""Command-line entry point: gen / train / forecast / eval.

All commands are pure functions of (flags, config file, input files, seed);
reruns produce byte-identical outputs. Exit codes: 0 success, 1 usage or
validation error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from . import metrics as M
from . import synth
from .data import (STEP, Normalizer, chronological_split, format_instants, load_csv,
                   make_samples, parse_timestamp, save_csv, shared_span)
from .model import Hyperparams, read_settings
from .rollout import forecast_to_csv, rollout, window_from_records
from .synth import STEPS_PER_DAY
from .tensor import NumericalError
from .training import TrainConfig, load_checkpoint, save_checkpoint, train, write_history

log = logging.getLogger("prbforecast")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class UsageError(ValueError):
    pass


DEFAULT_SPLIT = {"train_days": 150, "val_days": 15, "test_days": 15}


class RunConfig:
    """JSON run configuration: `hyperparams` and `train` are read by their
    dataclasses, `split` and `seed` by the same typed check. Unknown keys are
    rejected and absent keys take the defaults."""

    def __init__(self, doc: dict | None = None):
        doc = {} if doc is None else doc
        top = read_settings("", {"hyperparams": {}, "train": {}, "split": {}, "seed": 0}, doc)
        self.hyperparams = Hyperparams.from_dict(top["hyperparams"])
        self.train = TrainConfig.from_dict(top["train"])
        self.split = read_settings("split", DEFAULT_SPLIT, top["split"])
        self.seed = top["seed"]
        if "seed" in doc:
            self.train = replace(self.train, seed=self.seed)

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        with open(path, encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise UsageError(f"{path}: invalid JSON: {e}") from None
        return cls(doc)


def _require_new_file(path: str, force: bool):
    if os.path.exists(path) and not force:
        raise UsageError(f"{path} exists; pass --force to overwrite")


def cmd_gen(args) -> int:
    config = RunConfig.load(args.config)
    if not 1 <= args.carriers <= synth.N_CARRIERS:
        raise UsageError(f"--carriers must be in 1..{synth.N_CARRIERS}")
    if args.days < 1:
        raise UsageError("--days must be >= 1")
    _require_new_file(args.out, args.force)
    seed = args.seed if args.seed is not None else config.seed
    profiles = synth.default_profiles(args.carriers, seed)
    series = synth.generate(profiles, n_days=args.days, seed=seed)
    rows = save_csv(series, args.out)
    print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = RunConfig.load(args.config)
    hp, cfg = config.hyperparams, config.train
    series = shared_span(load_csv(args.data))

    split = config.split
    steps = (split["train_days"] * STEPS_PER_DAY,
             split["val_days"] * STEPS_PER_DAY,
             split["test_days"] * STEPS_PER_DAY)
    available = len(series[0])
    if steps[0] + steps[1] > available:
        raise UsageError(
            f"data has {available} steps shared by every carrier but the split needs "
            f"{steps[0]}+{steps[1]} for train+val; shrink split days")
    # the test span may be held in a separate file; only train+val are required
    test_steps = min(steps[2], available - steps[0] - steps[1])
    train_series, val_series, _ = chronological_split(
        series, (steps[0], steps[1], test_steps))

    normalizer = Normalizer.fit(train_series)
    train_samples = make_samples(train_series, normalizer, hp.n_past, hp.n_future)
    val_samples = make_samples(val_series, normalizer, hp.n_past, hp.n_future)
    model, history = train(train_samples, val_samples, hp, cfg)
    save_checkpoint(args.out, model, cfg, normalizer)
    if args.history:
        write_history(history, args.history)
    print(f"trained {len(history)} epochs; checkpoint written to {args.out}")
    return EXIT_OK


def cmd_forecast(args) -> int:
    if args.horizon < 1:
        raise UsageError("--horizon must be >= 1")
    model, _, normalizer = load_checkpoint(args.model)
    series = {s.carrier_id: s for s in load_csv(args.data)}
    if args.carrier not in series:
        raise UsageError(f"carrier {args.carrier} not present in {args.data}")
    target = series[args.carrier]
    start = parse_timestamp(getattr(args, "from"))
    at = int((start - target.times[0]) // STEP)
    if not 0 <= at <= len(target):  # at == len: forecast from the end of the data
        raise UsageError(f"--from {getattr(args, 'from')} not found in the data")
    n_past = model.hp.n_past
    if at < n_past:
        raise UsageError(
            f"--from needs at least {n_past} preceding observations, found {at}")
    window, next_ts = window_from_records(target, at, n_past, normalizer)
    times, out = rollout(model, window[None], [next_ts], [args.carrier], args.horizon)
    forecast_to_csv(times[0], args.carrier, out.quantiles[0], out.det[0], normalizer,
                    args.out)
    print(f"wrote {args.horizon} forecast rows to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.horizon < 2:
        raise UsageError("--horizon must be >= 2")
    if args.anchors < 1:
        raise UsageError("--anchors must be >= 1")
    model, _, normalizer = load_checkpoint(args.model)
    series = load_csv(args.data)
    report = M.evaluate(model, normalizer, series, args.horizon, args.anchors,
                        args.plot_dir)
    report["metadata"]["model_hash"] = M.model_hash(args.model)
    start, end = format_instants([min(s.times[0] for s in series),
                                  max(s.times[-1] for s in series)])
    report["metadata"]["data_span"] = {"start": start, "end": end}
    M.write_report(report, args.report)
    agg = report["aggregate"]
    print(f"mean MAE {agg['mean_mae']:.4f}, "
          f"mean hit probability {agg['mean_hit_prob']:.4f}; "
          f"report written to {args.report}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prbforecast",
        description="Residual-PRB forecasting on 15-minute LTE KPI series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic multi-carrier KPI traffic")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--days", type=int, default=30)
    p.add_argument("--carriers", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a KPI CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--history")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="recursive forecast from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--carrier", type=int, required=True)
    p.add_argument("--from", required=True,
                   help="first forecast instant (ISO-8601 UTC, on the grid)")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("eval", help="evaluate rollout metrics on held-out data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--horizon", type=int, default=96)
    p.add_argument("--anchors", type=int, default=1)
    p.add_argument("--report", required=True)
    p.add_argument("--plot-dir")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        level = (os.environ.get("PRBFORECAST_LOG") or "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):  # a name maps to its number
            raise UsageError(f"PRBFORECAST_LOG: unknown logging level {level!r}")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except NumericalError as e:  # NaN or infinity: a diverged run (TrainingError) or softmax
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as e:  # usage, ingestion and checkpoint errors subclass it
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # a requested size beyond memory
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
