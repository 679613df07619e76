"""The traced benchmark wraps program functions by name from outside; a
rename in `src/` that drops one of them would make its traced run
incorrect. This checks the names here, so the program's own suite sees it."""

from pathlib import Path

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
