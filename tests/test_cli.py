import csv
import hashlib
import json
import os

import pytest

from prbforecast import model as model_module
from prbforecast import tensor as T
from prbforecast.cli import main
from prbforecast.data import STEP, Normalizer, load_csv, save_csv
from prbforecast.model import ForecastModel, Hyperparams, param_count
from prbforecast.training import TrainConfig, checkpoint_bytes, load_checkpoint, save_checkpoint

from conftest import edit_header

TINY_CONFIG = {
    "hyperparams": {"d_emb": 4, "n_enc_layers": 1, "n_dec_layers": 1,
                    "heads": 2, "d_ff": 8, "n_past": 4, "n_future": 2},
    "train": {"epochs": 2, "batch_size": 64, "patience": 2},
    "split": {"train_days": 2, "val_days": 1, "test_days": 1},
    "seed": 7,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared directory with a small generated dataset, a tiny config, and
    one trained checkpoint, so the slow steps run once per module."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    data = root / "data.csv"
    assert main(["gen", "--out", str(data), "--days", "4", "--carriers", "2",
                 "--seed", "7"]) == 0
    model = root / "model.rupf"
    history = root / "history.jsonl"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(model), "--history", str(history)]) == 0
    return {"root": root, "config": config, "data": data, "model": model,
            "history": history}


class TestGen:
    def test_row_count(self, tmp_path):
        out = tmp_path / "gen.csv"
        assert main(["gen", "--out", str(out), "--days", "2", "--carriers", "3",
                     "--seed", "1"]) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 3 * 2 * 96

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["gen", "--out", str(out), "--days", "2",
                         "--carriers", "2", "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_many_carriers_is_usage_error(self, tmp_path):
        out = tmp_path / "gen.csv"
        assert main(["gen", "--out", str(out), "--days", "1",
                     "--carriers", "22", "--seed", "1"]) == 1
        assert not out.exists()

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "gen.csv"
        args = ["gen", "--out", str(out), "--days", "1", "--carriers", "1",
                "--seed", "1"]
        assert main(args) == 0
        assert main(args) == 1
        assert main(args + ["--force"]) == 0

    def test_days_beyond_memory_is_usage_error(self, tmp_path, capsys):
        # 6 PiB of float64 values: the allocation fails at once, touching nothing
        out = tmp_path / "gen.csv"
        assert main(["gen", "--out", str(out), "--days", "1000000000000",
                     "--carriers", "1", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory:")
        assert not out.exists()

    def test_output_is_ingestible(self, tmp_path):
        from prbforecast.data import load_csv
        out = tmp_path / "gen.csv"
        assert main(["gen", "--out", str(out), "--days", "1", "--carriers", "2",
                     "--seed", "3"]) == 0
        series = load_csv(str(out))
        assert [s.carrier_id for s in series] == [0, 1]
        assert all(len(s) == 96 for s in series)


class TestTrain:
    def test_checkpoint_loads(self, workspace):
        model, cfg, normalizer = load_checkpoint(str(workspace["model"]))
        assert model.hp.d_emb == 4
        assert cfg.seed == 7
        assert normalizer is not None

    def test_history_is_jsonl_with_losses(self, workspace):
        lines = workspace["history"].read_text().strip().splitlines()
        assert 1 <= len(lines) <= TINY_CONFIG["train"]["epochs"]
        for line in lines:
            entry = json.loads(line)
            assert {"epoch", "train_loss", "val_loss"} <= set(entry)
            assert entry["train_loss"] == entry["train_loss"]  # not NaN

    def test_same_seed_reproduces_checkpoint_bytes(self, workspace, tmp_path):
        out = tmp_path / "again.rupf"
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == workspace["model"].read_bytes()

    def test_split_larger_than_data_is_usage_error(self, workspace, tmp_path):
        config = tmp_path / "big.json"
        doc = dict(TINY_CONFIG)
        doc["split"] = {"train_days": 100, "val_days": 10, "test_days": 10}
        config.write_text(json.dumps(doc))
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(config),
                     "--out", str(tmp_path / "m.rupf")]) == 1

    def test_split_counts_the_span_every_carrier_shares(self, workspace, tmp_path, capsys):
        # 4 days per carrier, carrier 1 two days later: 2 shared days, 3 needed
        series = load_csv(str(workspace["data"]))
        series[1].times = series[1].times + 2 * 96 * STEP
        data = tmp_path / "shifted.csv"
        save_csv(series, str(data))
        assert main(["train", "--data", str(data), "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "m.rupf")]) == 1
        assert "data has 192 steps shared by every carrier" in capsys.readouterr().err

    def test_zero_test_days_keeps_the_validation_span(self, workspace, tmp_path):
        # no test span: validation still gets exactly val_days, not the rest
        config = tmp_path / "no_test.json"
        split = {"train_days": 2, "val_days": 1, "test_days": 0}
        config.write_text(json.dumps({**TINY_CONFIG, "split": split}))
        history = tmp_path / "history.jsonl"
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(config), "--out", str(tmp_path / "m.rupf"),
                     "--history", str(history)]) == 0
        assert history.read_text() == workspace["history"].read_text()

    def test_unknown_config_key_is_usage_error(self, workspace, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"hyperparams": {"d_embedding": 4}}))
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(config),
                     "--out", str(tmp_path / "m.rupf")]) == 1

    def test_data_section_is_unknown_config_key(self, workspace, tmp_path, capsys):
        config = tmp_path / "data_section.json"
        config.write_text(json.dumps({"data": {"csv_path": "other.csv"}}))
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(config),
                     "--out", str(tmp_path / "m.rupf")]) == 1
        assert "unknown config keys: ['data']" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"train": {"epochs": "3"}}, "train.epochs"),
        ({"train": {"epochs": True}}, "train.epochs"),
        ({"train": {"lr": "0.1"}}, "train.lr"),
        ({"hyperparams": {"d_emb": 4.0}}, "hyperparams.d_emb"),
        ({"hyperparams": {"quantiles": "0.5"}}, "hyperparams.quantiles"),
        ({"split": {"train_days": None}}, "split.train_days"),
        ({"seed": [7]}, "seed"),
    ])
    def test_wrongly_typed_config_value_is_usage_error(self, workspace, tmp_path,
                                                        capsys, doc, key):
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(doc))
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(config),
                     "--out", str(tmp_path / "m.rupf")]) == 1
        assert repr(key) in capsys.readouterr().err

    def test_other_quantiles_are_usage_error(self, workspace, tmp_path, capsys):
        """The head layout is fixed at q10, q50, q90; another list stops the
        run before training instead of writing a shifted forecast."""
        config = tmp_path / "quantiles.json"
        config.write_text(json.dumps({**TINY_CONFIG, "hyperparams": {
            **TINY_CONFIG["hyperparams"], "quantiles": [0.5, 0.9]}}))
        out = tmp_path / "m.rupf"
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(config), "--out", str(out)]) == 1
        assert "quantiles" in capsys.readouterr().err
        assert not out.exists()

    def test_size_beyond_memory_is_usage_error(self, workspace, tmp_path, capsys):
        # 2**40-wide feed-forward layers: refused by their parameter count
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"hyperparams": {"d_ff": 2 ** 40},
                                      "split": TINY_CONFIG["split"]}))
        out = tmp_path / "m.rupf"
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory:")
        assert not out.exists()

    def test_oversized_model_exits_1_before_drawing(self, workspace, tmp_path, capsys,
                                                     monkeypatch):
        # d_ff 10**7: about 13 GB of float64 draws if it reached the allocator
        def refuse(rng):
            raise AssertionError("a weight was drawn")
        monkeypatch.setattr(model_module, "drawing_factory", refuse)
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"hyperparams": {"d_ff": 10 ** 7},
                                      "split": TINY_CONFIG["split"]}))
        out = tmp_path / "m.rupf"
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(config), "--out", str(out)]) == 1
        count = param_count(Hyperparams(d_ff=10 ** 7))
        assert f"a model of {count} parameters" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_without_data_rows_is_usage_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "header_only.csv"
        data.write_text(workspace["data"].read_text().splitlines()[0] + "\n")
        out = tmp_path / "m.rupf"
        assert main(["train", "--data", str(data), "--config", str(workspace["config"]),
                     "--out", str(out)]) == 1
        assert f"{data}: no data rows" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file_is_io_error(self, workspace, tmp_path):
        assert main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "m.rupf")]) == 3


class TestForecast:
    def test_writes_horizon_rows(self, workspace, tmp_path):
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--carrier", "0",
                     "--from", "2024-01-02T00:00:00Z", "--horizon", "8",
                     "--out", str(out)]) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert len(rows) == 9
        assert rows[1][0] == "2024-01-02T00:00:00Z"

    def test_from_one_step_after_the_data_forecasts_from_its_end(self, workspace, tmp_path):
        # the data covers 2024-01-01 .. 2024-01-04T23:45:00Z
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--carrier", "1",
                     "--from", "2024-01-05T00:00:00Z", "--horizon", "3",
                     "--out", str(out)]) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == ["2024-01-05T00:00:00Z", "2024-01-05T00:15:00Z",
                                            "2024-01-05T00:30:00Z"]

    def test_from_two_steps_after_the_data_is_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--carrier", "1",
                     "--from", "2024-01-05T00:15:00Z", "--horizon", "3",
                     "--out", str(out)]) == 1
        assert "not found in the data" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_normalizer_in_checkpoint_is_usage_error(self, workspace, tmp_path):
        """A header whose normalizer holds NaN (JSON accepts the literal) is
        rejected at load time instead of writing NaN forecasts."""
        broken = tmp_path / "nan_mins.rupf"
        broken.write_bytes(edit_header(
            workspace["model"].read_bytes(),
            lambda h: {**h, "normalizer": {**h["normalizer"], "mins": [float("nan")]
                                           + h["normalizer"]["mins"][1:]}}))
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(broken), "--data", str(workspace["data"]),
                     "--carrier", "0", "--from", "2024-01-03T00:00:00Z",
                     "--horizon", "4", "--out", str(out)]) == 1
        assert not out.exists()

    def test_float_heads_in_checkpoint_is_usage_error(self, workspace, tmp_path, capsys):
        """`d_emb % 2.0 == 0` holds, so only the typed check stops a float
        head count before it reaches the attention reshape."""
        broken = tmp_path / "float_heads.rupf"
        broken.write_bytes(edit_header(
            workspace["model"].read_bytes(),
            lambda h: {**h, "hyperparams": {**h["hyperparams"], "heads": 2.0}}))
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(broken), "--data", str(workspace["data"]),
                     "--carrier", "0", "--from", "2024-01-03T00:00:00Z",
                     "--horizon", "4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'hyperparams.heads'" in err
        assert not out.exists()

    def test_insufficient_history_is_usage_error(self, workspace, tmp_path):
        assert main(["forecast", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--carrier", "0",
                     "--from", "2024-01-01T00:15:00Z", "--horizon", "4",
                     "--out", str(tmp_path / "fc.csv")]) == 1

    def test_unknown_carrier_is_usage_error(self, workspace, tmp_path):
        assert main(["forecast", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--carrier", "19",
                     "--from", "2024-01-02T00:00:00Z", "--horizon", "4",
                     "--out", str(tmp_path / "fc.csv")]) == 1

    def test_off_grid_start_is_usage_error(self, workspace, tmp_path):
        assert main(["forecast", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--carrier", "0",
                     "--from", "2024-01-02T00:07:00Z", "--horizon", "4",
                     "--out", str(tmp_path / "fc.csv")]) == 1

    @pytest.mark.parametrize("start", ["2024-01-02T00:00:00xZ", "2024-01-02T00:00:00 Z",
                                       "2024-01-02T00:00:00x+00:00"])
    def test_stray_character_before_the_offset_is_usage_error(self, workspace, tmp_path,
                                                              capsys, start):
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--carrier", "0",
                     "--from", start, "--horizon", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: malformed timestamp {start!r}")
        assert not out.exists()


class TestEval:
    def test_report_schema_and_plots(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        plots = tmp_path / "plots"
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--horizon", "8",
                     "--anchors", "2", "--report", str(report),
                     "--plot-dir", str(plots)]) == 0
        doc = json.loads(report.read_text())
        assert set(doc) >= {"per_carrier", "aggregate", "metadata"}
        assert len(doc["per_carrier"]) == 2
        for entry in doc["per_carrier"]:
            assert 0.0 <= entry["hit_prob"] <= 1.0
            assert entry["mae"] >= 0.0
        assert "model_hash" in doc["metadata"]
        assert sorted(os.listdir(plots)) == ["carrier_0.svg", "carrier_1.svg"]

    def test_model_hash_is_the_sha256_of_the_checkpoint_file(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--horizon", "8",
                     "--report", str(report)]) == 0
        digest = json.loads(report.read_text())["metadata"]["model_hash"]
        assert digest == hashlib.sha256(workspace["model"].read_bytes()).hexdigest()
        # for a file `save_checkpoint` wrote, also the hash of the loaded model
        assert digest == hashlib.sha256(
            checkpoint_bytes(*load_checkpoint(str(workspace["model"])))).hexdigest()

    def test_data_span_uses_utc_z_timestamps(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--horizon", "8",
                     "--report", str(report)]) == 0
        span = json.loads(report.read_text())["metadata"]["data_span"]
        assert span == {"start": "2024-01-01T00:00:00Z", "end": "2024-01-04T23:45:00Z"}

    def test_corrupt_checkpoint_is_rejected(self, workspace, tmp_path):
        broken = tmp_path / "broken.rupf"
        blob = bytearray(workspace["model"].read_bytes())
        blob[-1] ^= 0xFF
        broken.write_bytes(bytes(blob))
        assert main(["eval", "--model", str(broken),
                     "--data", str(workspace["data"]), "--horizon", "8",
                     "--report", str(tmp_path / "r.json")]) == 1


    def test_malformed_checkpoint_header_is_usage_error(self, workspace, tmp_path):
        broken = tmp_path / "no_manifest.rupf"
        broken.write_bytes(edit_header(
            workspace["model"].read_bytes(),
            lambda h: {k: v for k, v in h.items() if k != "manifest"}))
        assert main(["eval", "--model", str(broken),
                     "--data", str(workspace["data"]), "--horizon", "8",
                     "--report", str(tmp_path / "r.json")]) == 1

    def test_plots_reuse_the_scored_rollout(self, workspace, tmp_path, monkeypatch):
        from prbforecast import metrics
        calls = []

        def counting_rollout(*args, **kwargs):
            calls.append(args)
            return real_rollout(*args, **kwargs)

        real_rollout = metrics.rollout
        monkeypatch.setattr(metrics, "rollout", counting_rollout)
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--horizon", "8",
                     "--anchors", "2", "--report", str(tmp_path / "r.json"),
                     "--plot-dir", str(tmp_path / "plots")]) == 0
        assert len(calls) == 1
        assert sorted(os.listdir(tmp_path / "plots")) == ["carrier_0.svg", "carrier_1.svg"]

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--report", "out", "--horizon", "1"], "error: --horizon must be >= 2\n"),
        (["eval", "--report", "out", "--anchors", "0"], "error: --anchors must be >= 1\n"),
        (["forecast", "--out", "out", "--carrier", "0", "--from", "2024-01-01T00:00:00Z",
          "--horizon", "0"], "error: --horizon must be >= 1\n"),
    ], ids=["horizon", "anchors", "forecast"])
    def test_bad_flag_is_named_before_anything_is_loaded(self, tmp_path, monkeypatch,
                                                         capsys, argv, message):
        # neither file exists, so reading either would end in an I/O error (exit 3)
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--model", "absent.rupf", "--data", "absent.csv"]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()


class TestParser:
    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_ok(self):
        assert main(["--help"]) == 0


class TestPinnedOutputs:
    def test_forecast_and_eval_bytes_are_pinned(self, tmp_path):
        """`gen` data, a seeded untrained tiny checkpoint, then `forecast` and
        `eval` through `main`: a change to any value the CSV reader hands on,
        the model computes or a writer formats fails here. Matrix products
        run, so the digests are those of this BLAS summation order."""
        data, model = tmp_path / "data.csv", tmp_path / "model.rupf"
        assert main(["gen", "--out", str(data), "--days", "2", "--carriers", "3",
                     "--seed", "5"]) == 0
        T.seed_all(5)
        tiny = Hyperparams(d_emb=4, n_enc_layers=1, n_dec_layers=1, heads=2, d_ff=8,
                           n_past=8, n_future=2)
        save_checkpoint(str(model), ForecastModel(tiny), TrainConfig(),
                        Normalizer.fit(load_csv(str(data))))
        forecast, report = tmp_path / "forecast.csv", tmp_path / "report.json"
        assert main(["forecast", "--model", str(model), "--data", str(data), "--carrier", "1",
                     "--from", "2024-01-02T00:00:00Z", "--horizon", "96",
                     "--out", str(forecast)]) == 0
        assert main(["eval", "--model", str(model), "--data", str(data), "--horizon", "8",
                     "--anchors", "2", "--report", str(report)]) == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (data, model, forecast, report)]
        assert digests == [
            "8932089e6b2554c9ca99116bbfe2359ed5182c58f897983de5680ef48efc0784",
            "3a09d2c38ca446c4954023783ec1e82ea1130f2d4ad4bd2116e9f12653319a3c",
            "498f988de108e91463d8790be3edc2abb4601e7f981a08e846bab934a09b3dbf",
            "5fa7b1eacddbbf6579a9bba72f2474a0d5a2b9ddec8657ac3689a65d693f8154"]
