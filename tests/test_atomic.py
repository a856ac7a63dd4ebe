"""Artifact writes replace the target whole or leave it untouched."""

import os

import numpy as np
import pytest

from ecgauth.atomic import atomic_open
from ecgauth.authsys import Registry, save_registry
from ecgauth.encoder import EncoderConfig, init_params, save_checkpoint
from ecgauth.metrics import write_embeddings_csv
from ecgauth.signals import EcgRecord, write_record

SMALL = EncoderConfig(channels=(4,), kernel_size=3, embed_dim=8, proj_dim=4)


def _registry(seed):
    mp = init_params(SMALL, 32, seed=seed).signal_encoder()
    protos = np.repeat([[0.1], [0.2]], 8, axis=1)  # ids 1 and 2
    return Registry(params=mp, ids=[1, 2], prototypes=protos, threshold=0.9,
                    fs=250.0)


def _record(seed):
    return EcgRecord(samples=np.random.default_rng(seed).normal(size=300), fs=250.0,
                     subject_id=seed)


# writer(seed, path) for every kind of artifact file the toolkit writes
WRITERS = {
    "checkpoint": lambda seed, path: save_checkpoint(init_params(SMALL, 32, seed), path),
    "registry": lambda seed, path: save_registry(_registry(seed), path),
    "record": lambda seed, path: write_record(_record(seed), path),
    "embeddings": lambda seed, path: write_embeddings_csv(
        path, [1, -1], np.full((2, 3), float(seed))),
}


def _boom(*args, **kwargs):
    raise OSError("injected: rename failed")


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_replace_keeps_old_file_and_leaves_no_partial(kind, tmp_path, monkeypatch):
    path = tmp_path / f"artifact.{kind}"
    WRITERS[kind](1, path)
    before = path.read_bytes()
    monkeypatch.setattr(os, "replace", _boom)
    with pytest.raises(OSError, match="injected"):
        WRITERS[kind](2, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    monkeypatch.undo()
    WRITERS[kind](2, path)
    assert path.read_bytes() != before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_error_inside_the_block_keeps_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("half a new fi")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_new_file_gets_the_permissions_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain", "w") as fh:
        fh.write("x")
    with atomic_open(tmp_path / "atomic") as fh:
        fh.write("x")
    assert (os.stat(tmp_path / "atomic").st_mode
            == os.stat(tmp_path / "plain").st_mode)
