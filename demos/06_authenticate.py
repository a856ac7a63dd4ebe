"""Enroll identities into a registry and authenticate single beats.

The registry bundles the tuned encoder, per-identity geometry, and an
operating threshold calibrated so at least 95% of validation beats from
enrolled identities stay accepted. Decisions on new beats are pure
functions of (registry, window), and the registry round-trips through a
checksummed container file.
"""

import tempfile
from pathlib import Path

from ecgauth import (
    CorpusSpec,
    EncoderConfig,
    FinetuneConfig,
    PretrainConfig,
    RunConfig,
    authenticate,
    authenticate_batch,
    build_corpus,
    load_registry,
    save_registry,
)
from ecgauth.pipeline import enroll_stage, make_splits, pretrain_stage

cfg = RunConfig(
    seed=5,
    corpus=CorpusSpec(n_enrolled=3, n_open=6, beats_per_identity=80,
                      half_window=125),
    encoder=EncoderConfig(n_blocks=2, channels=(8, 16), kernel_size=5,
                          embed_dim=32, proj_dim=16),
    pretrain=PretrainConfig(epochs=15, batch_size=16, learning_rate=1e-3),
    finetune=FinetuneConfig(epochs=30, batch_size=16, learning_rate=1e-3),
    open_ratios=(1, 2),
)
corpus = build_corpus(cfg)
params, _ = pretrain_stage(corpus, cfg)
registry = enroll_stage(corpus, cfg, params)
print(f"registry: identities {registry.ids}, calibrated threshold "
      f"{registry.threshold:.9f}")

# a genuine beat from an enrolled identity's held-out split
_, _, test = make_splits(corpus)
beat, true_id = test[0]
decision = authenticate(registry, beat)
print(f"enrolled beat (identity {true_id}): accepted={decision.accepted} "
      f"as id {decision.predicted_id}, prob {decision.max_prob:.6f}")

# a beat from an identity the system has never seen
stranger = corpus.open_set[cfg.corpus.n_enrolled + 1].segments[0]
decision = authenticate(registry, stranger)
print(f"unknown beat: accepted={decision.accepted}, nearest id "
      f"{decision.predicted_id}, prob {decision.max_prob:.6f}")

# batch decisions share one forward pass
genuine = [seg for seg, _ in test[:20]]
strangers = [s for ident in corpus.open_set.values() for s in ident.segments[:3]]
decisions = authenticate_batch(registry, genuine + strangers)
acc_genuine = sum(d.accepted for d in decisions[:len(genuine)])
acc_stranger = sum(d.accepted for d in decisions[len(genuine):])
print(f"batch: accepted {acc_genuine}/{len(genuine)} genuine, "
      f"{acc_stranger}/{len(strangers)} unknown")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.reg"
    save_registry(registry, path)
    restored = load_registry(path)
    print(f"registry file: {path.stat().st_size} bytes, threshold and "
          f"geometry survive the round-trip "
          f"({restored.threshold == registry.threshold})")
