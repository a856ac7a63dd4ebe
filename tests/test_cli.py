"""End-to-end CLI runs on a miniature corpus, plus the exit-code contract."""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgauth import pipeline
from ecgauth.authsys import load_registry, save_registry
from ecgauth.cli import main
from ecgauth.encoder import (
    EncoderConfig,
    encode_signal_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    save_container,
)
from ecgauth.errors import ConfigurationError, StateError
from ecgauth.metrics import OPEN
from ecgauth.signals import EcgRecord, IdentityMorphology, synth_ecg, write_record
from ecgauth.training import FinetuneConfig, PretrainConfig


def tiny_config_dict():
    cfg = pipeline.default_config_dict()
    cfg["seed"] = 5
    cfg["corpus"].update(n_enrolled=3, n_open=6, beats_per_identity=24,
                         half_window=125)
    cfg["encoder"].update(n_blocks=2, channels=[8, 16], kernel_size=5,
                          embed_dim=32, proj_dim=16)
    cfg["pretrain"].update(epochs=2, batch_size=16)
    cfg["finetune"].update(epochs=3, batch_size=16)
    cfg["open_ratios"] = [1, 2]
    return cfg


def _run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def _copy_corpus(out: Path, target: Path) -> Path:
    (target / "corpus").mkdir(parents=True)
    for p in (out / "corpus").iterdir():
        shutil.copy(p, target / "corpus" / p.name)
    return target


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full synth -> pretrain -> finetune -> eval chain."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    out_dir = root / "run"
    doc = tiny_config_dict()
    doc["out_dir"] = str(out_dir)
    cfg_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    base = ("--config", str(cfg_path))
    assert _run("synth", *base) == 0
    assert _run("pretrain", *base) == 0
    assert _run("finetune", *base) == 0
    assert _run("eval", *base) == 0
    return cfg_path, out_dir


@pytest.fixture(scope="module")
def text_record(workspace, tmp_path_factory):
    """Identity 1's corpus samples in the text format that ``auth`` reads."""
    cfg_path, _ = workspace
    path = tmp_path_factory.mktemp("records") / "id_0001.ecg"
    write_record(pipeline.synth_identity(pipeline.config_from_path(cfg_path), 1),
                 path)
    return path


# ----------------------------------------------------------------------
# artifacts

def test_artifact_layout(workspace):
    _, out = workspace
    assert (out / "corpus" / "manifest.json").is_file()
    assert (out / "pretrain.ckpt").is_file()
    assert (out / "registry.reg").is_file()
    for name in ("metrics.csv", "embeddings.csv", "summary.json",
                 "open_identities.json"):
        assert (out / "eval" / name).is_file()
    manifest = json.loads((out / "corpus" / "manifest.json").read_text())
    assert manifest["enrolled_ids"] == [1, 2, 3]
    assert manifest["open_ids"] == [4, 5, 6, 7, 8, 9]
    assert len(manifest["records"]) == 9
    for fname in manifest["records"].values():
        assert (out / "corpus" / fname).is_file()


def test_metrics_csv_has_one_block_per_ratio(workspace):
    _, out = workspace
    text = (out / "eval" / "metrics.csv").read_text(encoding="utf-8")
    assert text.count("ratio=") == 2
    assert "ratio=1\ndelta,ccr,fpr,far,tnr\n" in text
    assert "ratio=2\ndelta,ccr,fpr,far,tnr\n" in text
    assert len(re.findall(r"^oscr=", text, flags=re.M)) == 2


def test_summary_json_structure(workspace):
    _, out = workspace
    doc = json.loads((out / "eval" / "summary.json").read_text())
    assert 0.0 < doc["threshold"] < 1.0
    assert [r["ratio"] for r in doc["ratios"]] == [1, 2]
    for r in doc["ratios"]:
        for key in ("accuracy", "oscr", "tnr", "far", "open_identities"):
            assert key in r


def test_embeddings_csv_header(workspace):
    _, out = workspace
    first = (out / "eval" / "embeddings.csv").read_text().split("\n", 1)[0]
    assert first.startswith("sample_id,true_id,dim_0,")
    assert first.endswith("dim_31")


def test_eval_embeddings_come_from_one_pass_over_the_same_windows(workspace):
    cfg_path, out = workspace
    cfg = pipeline.config_from_path(cfg_path)
    corpus = pipeline.load_corpus(out / "corpus")
    registry = load_registry(out / "registry.reg")
    outcome = pipeline.evaluate(corpus, cfg, registry)
    _, _, test = pipeline.make_splits(corpus)
    first_open = sorted(corpus.open_set)[: cfg.open_ratios[0] * len(corpus.enrolled)]
    windows = [s.window for s, _ in test] + [
        s.window for sid in first_open for s in corpus.open_set[sid].segments]
    expected = encode_signal_batch(registry.encoder, np.stack(windows))
    assert np.array_equal(outcome.embeddings, expected)
    assert outcome.embedding_true_ids == (
        [sid for _, sid in test] + [OPEN] * (len(windows) - len(test)))


def test_open_identities_account_for_far(workspace, tmp_path):
    """Per open identity, the accepted beats add up to each ratio's FAR."""
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "lowthreshold")
    # a threshold at the median open score, so that FAR is neither 0 nor 1
    cfg = pipeline.config_from_path(cfg_path)
    registry = load_registry(out / "registry.reg")
    outcome = pipeline.evaluate(pipeline.load_corpus(out / "corpus"), cfg, registry)
    registry.threshold = float(np.median(
        [s.max_prob for ss in outcome.open_scores.values() for s in ss]))
    save_registry(registry, target / "registry.reg")
    assert _run("eval", "--config", str(cfg_path), "--out", str(target)) == 0

    summary = json.loads((target / "eval" / "summary.json").read_text())
    report = json.loads((target / "eval" / "open_identities.json").read_text())
    rows = report["open_identities"]
    assert report["threshold"] == summary["threshold"] == registry.threshold
    assert [r["id"] for r in rows] == [4, 5, 6, 7, 8, 9]
    for r in rows:
        assert sum(r["absorbed_by"].values()) == r["accepted"] <= r["beats"]
        assert {int(k) for k in r["absorbed_by"]} <= {1, 2, 3}
    fars = []
    for entry in summary["ratios"]:
        scored = rows[: entry["open_identities"]]
        accepted = sum(r["accepted"] for r in scored)
        population = report["known_beats"] + sum(r["beats"] for r in scored)
        assert accepted / population == entry["far"]
        fars.append(entry["far"])
    assert any(0.0 < f < 1.0 for f in fars)


def test_synth_rewrites_identical_bytes(workspace):
    cfg_path, out = workspace
    before = _tree_digest(out / "corpus")
    assert _run("synth", "--config", str(cfg_path)) == 0
    assert _tree_digest(out / "corpus") == before


def test_auth_reports_each_beat(workspace, text_record, capsys):
    cfg_path, _ = workspace
    assert main(["auth", "--config", str(cfg_path), str(text_record)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) >= 20  # 24 beats minus any window-boundary drops
    pattern = re.compile(
        r"^beat=\d+ r_index=\d+ decision=(accepted|rejected) "
        r"id=\d+ prob=[01]\.\d{6}$"
    )
    assert all(pattern.match(line) for line in lines)


def test_auth_segments_with_the_registry_window(workspace, text_record,
                                                tmp_path):
    """The beat window comes from the registry, not from corpus.half_window."""
    cfg_path, _ = workspace
    doc = json.loads(cfg_path.read_text())
    doc["corpus"]["half_window"] += 25
    other = tmp_path / "other_window.json"
    other.write_text(json.dumps(doc), encoding="utf-8")
    printed = []
    for path in (cfg_path, other):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["auth", "--config", str(path), str(text_record)]) == 0
        printed.append(buf.getvalue())
    assert printed[0] == printed[1] and printed[0].startswith("beat=0 ")


def test_auth_into_closed_pipe_exits_quietly(workspace, tmp_path):
    """`ecgauth auth ... | head -1`: the reader leaves after the first line."""
    cfg_path, _ = workspace
    # about 120 kB of decision lines, more than a pipe buffers, so auth is
    # still writing when the reader closes its end
    record = tmp_path / "long.ecg"
    morph = IdentityMorphology.random(np.random.default_rng(3))
    write_record(synth_ecg(morph, n_beats=2000, fs=250.0, seed=1, subject_id=1),
                 record)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ecgauth", "auth", "--config", str(cfg_path),
         str(record)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert first.startswith(b"beat=0 ")
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode == 0, err.decode()


# ----------------------------------------------------------------------
# overrides

def test_seed_override_changes_corpus(workspace, tmp_path):
    cfg_path, _ = workspace
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("synth", "--config", str(cfg_path), "--out", str(a),
                "--seed", "5") == 0
    assert _run("synth", "--config", str(cfg_path), "--out", str(b),
                "--seed", "6") == 0
    da, db = _tree_digest(a), _tree_digest(b)
    assert set(da) == set(db)
    assert da != db


def test_out_override_redirects_artifacts(workspace, tmp_path):
    cfg_path, _ = workspace
    target = tmp_path / "elsewhere"
    assert _run("synth", "--config", str(cfg_path), "--out", str(target)) == 0
    assert (target / "corpus" / "manifest.json").is_file()


# ----------------------------------------------------------------------
# configuration plumbing

def test_default_config_dict_round_trips():
    assert pipeline.config_from_dict(
        pipeline.default_config_dict()) == pipeline.RunConfig()


def test_default_config_dict_is_the_plain_run_config():
    # json turns every tuple into a list
    tree = json.loads(json.dumps(dataclasses.asdict(pipeline.RunConfig())))
    assert pipeline.default_config_dict() == {"schema_version": 1, **tree}
    assert list(tree["pretrain"]) == [
        "batch_size", "epochs", "learning_rate", "tau"]
    assert list(tree["finetune"]) == [
        "batch_size", "epochs", "learning_rate"]


def test_config_sections_match_dataclass_fields():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    tree = pipeline.default_config_dict()
    expected = {
        "corpus": names(pipeline.CorpusSpec),
        "encoder": names(EncoderConfig),
        "pretrain": names(PretrainConfig),
        "finetune": names(FinetuneConfig),
    }
    assert list(tree) == ["schema_version"] + names(pipeline.RunConfig)
    assert {k: list(v) for k, v in tree.items() if isinstance(v, dict)} == expected
    # config_from_dict takes each of those keys on its own, and no other
    for section, keys in expected.items():
        for key in keys:
            doc = pipeline.default_config_dict()
            doc[section] = {key: tree[section][key]}
            assert pipeline.config_from_dict(doc) == pipeline.RunConfig()
        doc[section] = {"bogus": 1}
        with pytest.raises(ConfigurationError, match="bogus"):
            pipeline.config_from_dict(doc)


@pytest.mark.parametrize("section,values", [
    ("finetune", {"batch_size": 2.5}),
    ("pretrain", {"epochs": 1.5}),
    ("corpus", {"half_window": 125.5}),
    ("finetune", {"beta1": 1.0}),
    ("finetune", {"eps": 0}),
    ("finetune", {"optimizer": "sgd", "momentum": -5}),
    ("pretrain", {"batch_size": 1}),  # the contrastive loss needs negatives
], ids=["batch_size", "epochs", "half_window", "beta1", "eps", "momentum",
        "pretrain_batch_size_1"])
def test_bad_optimizer_and_shape_values_are_config_errors(tmp_path, section,
                                                          values):
    bad = tmp_path / "bad.json"
    doc = tiny_config_dict()
    doc[section].update(values)
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert _run("synth", "--config", str(bad), "--out", str(tmp_path)) == 2
    assert not (tmp_path / "corpus").exists()


_REMOVED_KEYS = [(section, key) for key in ("optimizer", "momentum", "beta1",
                                             "beta2", "eps")
                 for section in ("pretrain", "finetune")]
_REMOVED_KEYS += [("finetune", "gamma"),  # the reciprocal-point repulsion weight
                  ("finetune", "alpha"),  # the self-constraint center weight
                  ("finetune", "beta")]  # the prototype loss weight


@pytest.mark.parametrize("section,key", _REMOVED_KEYS,
                         ids=[f"{k}-{s}" for s, k in _REMOVED_KEYS])
def test_removed_stage_keys_are_unknown(tmp_path, capsys, section, key):
    bad = tmp_path / "bad.json"
    doc = tiny_config_dict()
    doc[section][key] = 0
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert _run("synth", "--config", str(bad), "--out", str(tmp_path)) == 2
    assert f'unknown key(s) in "{section}": {key}' in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


def test_use_pretrain_is_an_unknown_key(tmp_path, capsys):
    """Fine-tuning always starts from the pretrained checkpoint; the
    no-pretraining baseline is the `no_pretrain` ablation variant."""
    bad = tmp_path / "bad.json"
    doc = tiny_config_dict()
    doc["use_pretrain"] = False
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert _run("synth", "--config", str(bad), "--out", str(tmp_path)) == 2
    assert "unknown key(s) in config: use_pretrain" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("command,section,values", [
    ("synth", "corpus", {"noise_scale": float("nan")}),
    ("finetune", "finetune", {"learning_rate": float("inf")}),
    ("synth", "corpus", {"jitter_scale": 10 ** 400}),  # no float holds it
], ids=["nan-noise_scale", "infinite-learning_rate", "huge-jitter_scale"])
def test_non_finite_config_values_are_config_errors(workspace, tmp_path,
                                                    command, section, values):
    _, out = workspace
    target = _copy_corpus(out, tmp_path / "run")
    shutil.copy(out / "pretrain.ckpt", target)
    doc = tiny_config_dict()
    doc[section].update(values)
    bad = tmp_path / "bad.json"
    # json writes and reads the NaN and Infinity literals
    bad.write_text(json.dumps(doc), encoding="utf-8")
    before = _tree_digest(target)
    assert _run(command, "--config", str(bad), "--out", str(target)) == 2
    assert _tree_digest(target) == before


def test_unknown_key_names_the_section(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = tiny_config_dict()
    doc["corpus"]["bogus"] = 1
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["synth", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "corpus" in err and "bogus" in err


def test_malformed_json_is_a_config_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert _run("synth", "--config", str(bad)) == 2


def test_missing_config_file_is_a_config_error(tmp_path):
    assert _run("synth", "--config", str(tmp_path / "absent.json")) == 2


# ----------------------------------------------------------------------
# exit codes for missing or broken artifacts

def test_missing_corpus_exit_code(workspace, tmp_path, capsys):
    cfg_path, _ = workspace
    code = main(["pretrain", "--config", str(cfg_path),
                 "--out", str(tmp_path / "empty")])
    assert code == 3
    assert "synth" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    lambda m, _: m.pop("half_window"),
    lambda m, _: m["open_ids"].append(99),  # no record file listed for id 99
    lambda m, _: m.update(fs="fast"),
    # an intact record file with its digest, but outside the corpus directory
    lambda m, _: m["records"].update({"1": "../id_0001.f64"}),
    lambda m, corpus: m["records"].update({"1": str(corpus.parent / "id_0001.f64")}),
], ids=["missing-key", "unlisted-id", "bad-value", "parent-dir", "absolute-path"])
def test_malformed_manifest_exit_code(workspace, tmp_path, capsys, change):
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "badmanifest")
    shutil.copy(target / "corpus" / "id_0001.f64", target)
    manifest_path = target / "corpus" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    change(manifest, target / "corpus")
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    code = main(["pretrain", "--config", str(cfg_path), "--out", str(target)])
    assert code == 4
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    None,  # the written samples with one byte flipped: still finite samples
    b"\x00" * 7,
    b"",
    np.array([np.nan]).tobytes(),
], ids=["flipped-byte", "7-bytes", "0-bytes", "nan"])
def test_damaged_corpus_record_exit_code(workspace, tmp_path, capsys, payload):
    """An enrolled record that does not match its manifest digest is not
    trained on; one whose digest was re-sealed by hand must still hold a
    non-empty, finite float64 trace."""
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "badrecord")
    record = target / "corpus" / "id_0001.f64"
    if payload is None:
        raw = bytearray(record.read_bytes())
        raw[100] ^= 0x01
        record.write_bytes(raw)
    else:
        record.write_bytes(payload)
        manifest_path = target / "corpus" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["sha256"]["1"] = hashlib.sha256(payload).hexdigest()
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(target)]) == 4
    err = capsys.readouterr().err
    assert str(record) in err and "Traceback" not in err
    assert not (target / "pretrain.ckpt").exists()


def test_text_corpus_of_an_earlier_version_exit_code(workspace, tmp_path, capsys):
    """A corpus written before the digests, as text records with no
    ``sha256`` map, is rejected with the way out."""
    cfg_path, out = workspace
    cfg = pipeline.config_from_path(cfg_path)
    target = _copy_corpus(out, tmp_path / "textcorpus")
    manifest_path = target / "corpus" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["sha256"]
    for sid in manifest["records"]:
        name = f"id_{int(sid):04d}.ecg"
        write_record(pipeline.synth_identity(cfg, int(sid)), target / "corpus" / name)
        manifest["records"][sid] = name
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(target)]) == 4
    err = capsys.readouterr().err
    assert str(manifest_path) in err and "Traceback" not in err
    assert "re-run `ecgauth synth`" in err


def _rewrite_header(path, change, dest):
    """Copy the container at ``path`` to ``dest`` with ``change`` applied to
    its JSON header, re-sealed with a valid digest, so that only the header
    is at fault."""
    raw = path.read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + n])
    change(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = raw[:8] + len(head).to_bytes(8, "little") + head + raw[16 + n : -32]
    dest.write_bytes(body + hashlib.sha256(body).digest())


def test_missing_checkpoint_exit_code(workspace, tmp_path, capsys):
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "nockpt")
    code = main(["finetune", "--config", str(cfg_path), "--out", str(target)])
    assert code == 3
    err = capsys.readouterr().err
    assert "run `ecgauth pretrain` first" in err and "use_pretrain" not in err
    assert not (target / "registry.reg").exists()


def test_missing_registry_exit_code(workspace, tmp_path):
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "noreg")
    assert _run("eval", "--config", str(cfg_path), "--out", str(target)) == 3


def test_corrupt_checkpoint_exit_code(workspace, tmp_path):
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "badckpt")
    good = (out / "pretrain.ckpt").read_bytes()
    (target / "pretrain.ckpt").write_bytes(good[: len(good) // 2])
    assert _run("finetune", "--config", str(cfg_path),
                "--out", str(target)) == 5


def test_checkpoint_tensor_mismatch_exit_code(workspace, tmp_path):
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "badtensors")
    mp = load_checkpoint(out / "pretrain.ckpt")
    mp.params["embed.bias"] = np.zeros(mp.config.embed_dim + 1)
    save_checkpoint(mp, target / "pretrain.ckpt")
    assert _run("finetune", "--config", str(cfg_path),
                "--out", str(target)) == 5


def test_checkpoint_swapped_tensor_groups_exit_code(workspace, tmp_path, capsys):
    """A buffer listed as a trainable tensor is a bad checkpoint, although
    the union of the two groups names every tensor of the graph."""
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "swapped")
    mp = load_checkpoint(out / "pretrain.ckpt")
    mp.params["stem.bn.running_var"] = mp.buffers.pop("stem.bn.running_var")
    save_checkpoint(mp, target / "pretrain.ckpt")
    assert main(["finetune", "--config", str(cfg_path),
                 "--out", str(target)]) == 5
    err = capsys.readouterr().err
    assert "pretrain.ckpt" in err and "Traceback" not in err
    assert "params: missing=[], surplus=['stem.bn.running_var']" in err
    assert "buffers: missing=['stem.bn.running_var'], surplus=[]" in err


def test_checkpoint_malformed_manifest_entry_exit_code(workspace, tmp_path, capsys):
    """A manifest entry in no known tensor group is a bad checkpoint."""
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "weirdgroup")
    _rewrite_header(out / "pretrain.ckpt",
                    lambda h: h["manifest"][0].update(group="weird"),
                    target / "pretrain.ckpt")
    assert main(["finetune", "--config", str(cfg_path),
                 "--out", str(target)]) == 5
    err = capsys.readouterr().err
    assert "pretrain.ckpt" in err and "Traceback" not in err
    assert "group 'weird'" in err


# each dimension a manifest entry may not have: a float (of the right value,
# so the byte count matches), a bool, a negative integer
_BAD_DIMS = {"float-dim": 16.0, "bool-dim": True, "negative-dim": -16}


@pytest.mark.parametrize("damage", ["narrow", "non-finite", "reciprocal-layout",
                                    "old-layout", "swapped-groups", "weird-group",
                                    "unnamed", *_BAD_DIMS])
def test_invalid_registry_tensors_exit_code(workspace, text_record, tmp_path,
                                            capsys, damage):
    """Prototypes that cannot score the encoder's embeddings, tensors that
    authentication never reads, a trainable tensor listed as a buffer, or a
    manifest entry in no known group, without a name or with a dimension
    that is no non-negative integer are a bad registry file, not a crash.
    The old layout carried the pretraining heads beside the signal
    encoder."""
    cfg_path, out = workspace
    target = tmp_path / "badreg"
    target.mkdir()
    good = load_registry(out / "registry.reg")
    protos = good.prototypes.copy()
    extras = {"registry.prototypes": protos}
    params = good.params
    if damage == "narrow":
        extras["registry.prototypes"] = protos[:, : protos.shape[1] // 2]
    elif damage == "non-finite":
        protos[0, 0] = np.nan
    elif damage == "old-layout":
        params = init_params(params.config, params.input_length, seed=0)
    elif damage == "swapped-groups":
        params.buffers["embed.weight"] = params.params.pop("embed.weight")
    elif damage == "reciprocal-layout":
        extras.update({"registry.centers": protos,
                       "registry.reciprocals": np.zeros_like(protos),
                       "registry.margins": np.ones(len(protos))})
    path = target / "registry.reg"
    save_container(path, "registry", params, extras,
                   {"ids": good.ids, "threshold": good.threshold,
                    "fs": good.fs, "creation": good.metadata})
    if damage == "weird-group":
        _rewrite_header(path, lambda h: h["manifest"][0].update(group="weird"), path)
    elif damage == "unnamed":
        _rewrite_header(path, lambda h: h["manifest"][0].pop("name"), path)
    elif damage in _BAD_DIMS:
        _rewrite_header(path, lambda h: h["manifest"][0].update(
            shape=[_BAD_DIMS[damage]]), path)
    assert main(["auth", "--config", str(cfg_path), "--out", str(target),
                 str(text_record)]) == 5
    err = capsys.readouterr().err
    assert "registry.reg" in err and "Traceback" not in err
    if damage == "weird-group":
        assert "manifest entry 'block0.bn1.beta' has group 'weird'" in err
    if damage == "unnamed":
        assert "manifest entry 0 has no tensor name" in err
    if damage in _BAD_DIMS:
        assert (f"manifest entry 'block0.bn1.beta' has shape "
                f"[{_BAD_DIMS[damage]!r}]") in err
    if damage == "reciprocal-layout":
        assert ("surplus=['registry.centers', 'registry.margins', "
                "'registry.reciprocals']") in err
    if damage == "old-layout":
        surplus = re.search(r"surplus=\[([^\]]*)\]", err).group(1)
        for name in ("f_r.linear.weight", "proj_s.fc1.weight", "proj_r.fc2.bias"):
            assert f"'{name}'" in surplus
        assert "ecgauth finetune" in err
    if damage == "swapped-groups":
        assert "params: missing=['embed.weight'], surplus=[]" in err
        assert "buffers: missing=[], surplus=['embed.weight']" in err


@pytest.mark.parametrize("fs", [None, float("nan"), float("inf"), 0.0, -250.0],
                         ids=["missing", "nan", "infinite", "zero", "negative"])
def test_invalid_registry_sampling_rate_exit_code(workspace, text_record,
                                                  tmp_path, capsys, fs):
    """A registry must say, as a positive finite number, which sampling rate
    its encoder was trained at."""
    cfg_path, out = workspace
    target = tmp_path / "badfs"
    target.mkdir()
    good = load_registry(out / "registry.reg")
    metadata = {"ids": good.ids, "threshold": good.threshold,
                "creation": good.metadata}
    if fs is not None:
        metadata["fs"] = fs
    save_container(target / "registry.reg", "registry", good.params,
                   {"registry.prototypes": good.prototypes}, metadata)
    assert main(["auth", "--config", str(cfg_path), "--out", str(target),
                 str(text_record)]) == 5
    err = capsys.readouterr().err
    assert "registry.reg" in err and "Traceback" not in err


def test_record_at_another_sampling_rate_exit_code(workspace, tmp_path, capsys):
    """A record sampled at another rate than the registry was trained at
    would be cut into windows of another duration: rejected, not scored."""
    cfg_path, out = workspace
    assert load_registry(out / "registry.reg").fs == 250.0
    record = tmp_path / "fast.ecg"
    morph = IdentityMorphology.random(np.random.default_rng(3))
    write_record(synth_ecg(morph, n_beats=30, fs=500.0, seed=1, subject_id=1),
                 record)
    assert main(["auth", "--config", str(cfg_path), str(record)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "500.0 Hz" in captured.err and "250.0 Hz" in captured.err


@pytest.mark.parametrize("signal", [
    lambda t: np.zeros(t.size),  # the detector's integrator peaks at 0
    lambda t: 0.5 * np.sin(2 * np.pi * 50.0 * t),  # mains hum: no whole window
], ids=["flat", "mains-50hz"])
def test_record_without_beats_exit_code(workspace, tmp_path, capsys, signal):
    """A record in which no beat is found yields no decision: that is a
    failure the caller must see, not a silent success."""
    cfg_path, _ = workspace
    record = tmp_path / "nobeats.ecg"
    t = np.arange(30 * 250) / 250.0
    write_record(EcgRecord(samples=signal(t), fs=250.0, subject_id=1), record)
    assert main(["auth", "--config", str(cfg_path), str(record)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(record) in captured.err and "no beats detected" in captured.err


def test_corpus_at_another_sampling_rate_exit_code(workspace, tmp_path, capsys):
    """eval scores a corpus only at the rate the registry was trained at: a
    corpus re-synthesized at 500 Hz against a 250 Hz registry is rejected."""
    cfg_path, out = workspace
    target = tmp_path / "fastcorpus"
    target.mkdir()
    shutil.copy(out / "registry.reg", target / "registry.reg")
    doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    doc["corpus"]["fs"] = 500.0
    doc["out_dir"] = str(target)
    fast_cfg = tmp_path / "fast.json"
    fast_cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert _run("synth", "--config", str(fast_cfg)) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(fast_cfg)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "500.0 Hz" in captured.err and "250.0 Hz" in captured.err
    assert not (target / "eval").exists()


@pytest.mark.parametrize("change", [
    lambda enc: enc.pop("proj_dim"),
    lambda enc: enc.update(dropout=0.1),
], ids=["missing", "extra"])
def test_encoder_header_keys_must_match_config(workspace, tmp_path, change):
    """A checkpoint whose encoder section lacks or adds a key is rejected."""
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "badheader")
    _rewrite_header(out / "pretrain.ckpt", lambda h: change(h["encoder"]),
                    target / "pretrain.ckpt")
    assert _run("finetune", "--config", str(cfg_path),
                "--out", str(target)) == 5


def test_training_reads_only_enrolled_records(workspace, tmp_path):
    """A damaged open record leaves pretrain and finetune untouched; eval,
    the first stage that reads it, reports it."""
    cfg_path, out = workspace
    target = _copy_corpus(out, tmp_path / "badopen")
    manifest = json.loads((target / "corpus" / "manifest.json").read_text())
    open_record = manifest["records"][str(manifest["open_ids"][-1])]
    (target / "corpus" / open_record).write_text("garbage\n", encoding="utf-8")
    args = ("--config", str(cfg_path), "--out", str(target))
    assert _run("pretrain", *args) == 0
    assert _run("finetune", *args) == 0
    for name in ("pretrain.ckpt", "registry.reg"):
        assert (target / name).read_bytes() == (out / name).read_bytes()
    assert _run("eval", *args) == 4


def test_evaluate_rejects_a_corpus_loaded_without_open_identities(workspace):
    cfg_path, out = workspace
    corpus = pipeline.load_corpus(out / "corpus", include_open=False)
    assert corpus.open_set is None
    with pytest.raises(StateError, match="open identities"):
        pipeline.evaluate(corpus, pipeline.config_from_path(cfg_path),
                          load_registry(out / "registry.reg"))


def test_missing_record_exit_code(workspace):
    cfg_path, _ = workspace
    assert _run("auth", "--config", str(cfg_path), "/nonexistent.ecg") == 4


def test_corrupt_record_exit_code(workspace, text_record, tmp_path):
    cfg_path, _ = workspace
    mangled = tmp_path / "mangled.ecg"
    lines = text_record.read_text().split("\n")
    lines[3] = "0.1x2"
    mangled.write_text("\n".join(lines), encoding="utf-8")
    assert _run("auth", "--config", str(cfg_path), str(mangled)) == 4


# ----------------------------------------------------------------------
# module entry point

def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "ecgauth", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    for name in ("synth", "pretrain", "finetune", "auth", "eval"):
        assert name in proc.stdout
