"""The benchmark's span tracer still finds every ecgauth name it wraps."""

import importlib
from pathlib import Path

import numpy as np
import pytest

import ecgauth
import ecgauth.cli  # noqa: F401 - the tracer wraps every module, the CLI too
from ecgauth import nn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing(monkeypatch):
    """perfbench/tracing.py, imported as it stands: it needs only the
    standard library."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_benchmark_tracer_binds_every_traced_name(monkeypatch):
    """perfbench/tracing.py wraps functions and layer methods by name, so a
    deleted or renamed one fails its install; it must fail here too, not
    only in a traced benchmark run."""
    tracing = _tracing(monkeypatch)
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


@pytest.mark.parametrize("kernel,stride", [(1, 1), (3, 1), (7, 2)])
def test_benchmark_conv_flop_counts_are_exact(monkeypatch, kernel, stride):
    """The traced run's nn.Conv1d.gflop multiplies the shapes of a training
    conv's input and cached columns; it must stay 2*b*c_out*c_in*k*l_out
    for the forward GEMM and twice that for the backward's two."""
    tracing = _tracing(monkeypatch)
    b, c_in, c_out, length = 3, 4, 5, 17
    conv = nn.Conv1d("c", c_in, c_out, kernel, stride=stride)
    params = {}
    conv.init(params, {}, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(c_in, b, length))
    tracer = tracing.Tracer()
    tracer.install(ecgauth)
    try:
        y, cache = conv.forward(params, {}, x, True)
        conv.backward(params, np.ones_like(y), cache, {})
    finally:
        tracer.uninstall()
    flop = {s.name: s.counts["flop"] for s in tracer.spans}
    l_out = (length - 1) // stride + 1
    assert y.shape[2] == l_out
    want = 2 * b * c_out * c_in * kernel * l_out
    assert flop == {"nn.Conv1d.fwd": want, "nn.Conv1d.bwd": 2 * want}
