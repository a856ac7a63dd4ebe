"""The benchmark's span tracer still finds every ecgauth name it wraps."""

import importlib
from pathlib import Path

import ecgauth
import ecgauth.cli  # noqa: F401 - the tracer wraps every module, the CLI too

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_binds_every_traced_name(monkeypatch):
    """perfbench/tracing.py wraps functions and layer methods by name, so a
    deleted or renamed one fails its install; it must fail here too, not
    only in a traced benchmark run. The tracer needs only the standard
    library and is imported as it stands."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = [(getattr(ecgauth, mod), name) for mod, name, *_ in tracing.FUNCTIONS]
    targets += [(getattr(getattr(ecgauth, mod), cls), method)
                for mod, cls, method, *_ in tracing.METHODS]
    originals = [getattr(owner, name) for owner, name in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install(ecgauth)
        for (owner, name), original in zip(targets, originals):
            assert getattr(owner, name) is not original, name
    finally:
        tracer.uninstall()
    for (owner, name), original in zip(targets, originals):
        assert getattr(owner, name) is original, name
