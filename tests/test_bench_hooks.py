"""The traced benchmark wraps program functions by name from outside, and
rebuilds `train()`'s loop from public pieces; a change in `src/` that drops
one of those names or makes the rebuilt loop diverge would make its traced
run incorrect. This checks both here, so the program's own suite sees it."""

from pathlib import Path

from prbforecast import training

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_wrapped_function(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    from prbforecast import model
    tracer = tracing.Tracer()
    with tracer.installed():
        assert hasattr(model.embed_tokens, "__wrapped__")
    assert tracer.missing == []
    assert not hasattr(model.embed_tokens, "__wrapped__")  # originals restored


def test_training_replay_matches_train(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    workloads.setup_train(1, tmp_path)
    tr = workloads.Train(1, tmp_path)
    model, history = tr.train()
    replayed = tmp_path / "replay.rupf"
    losses, _, _ = tracing.replay_train(tr, tracing.Tracer(), replayed)
    assert losses == [(h["train_loss"], h["val_loss"]) for h in history]
    assert replayed.read_bytes() == training.checkpoint_bytes(model, tr.cfg, tr.normalizer)
