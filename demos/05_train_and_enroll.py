"""
Two-stage training on a miniature corpus
========================================

Stage one aligns beat windows with their text reports contrastively,
giving the signal branch a warm start. Stage two fine-tunes the signal
branch with a distance softmax toward dynamic prototypes, each started at
its identity's medoid, producing one prototype per identity, ready for
enrollment.

Runs in a few seconds on one core.
"""

import numpy as np

from ecgauth import (
    CorpusSpec,
    EncoderConfig,
    FinetuneConfig,
    PretrainConfig,
    RunConfig,
    build_corpus,
)
from ecgauth.encoder import encode_signal_batch
from ecgauth.pipeline import make_pretrain_pairs, make_splits
from ecgauth.training import finetune, pretrain

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
print(f"corpus: {len(corpus.enrolled)} enrolled + {len(corpus.open_set)} open "
      f"identities, {sum(len(i.segments) for i in corpus.enrolled.values())} "
      f"enrolled beat windows")

# ---- stage one: contrastive pretraining --------------------------------
pairs = make_pretrain_pairs(corpus)
params, report = pretrain(pairs, cfg.pretrain, cfg.seed, cfg.encoder)
losses = [e.losses["contrastive"] for e in report.epochs]
print(f"pretrain: contrastive loss {losses[0]:.4f} -> {losses[-1]:.4f} "
      f"over {len(losses)} epochs on {len(pairs)} pairs")

# ---- stage two: geometry fine-tuning ------------------------------------
train, val, test = make_splits(corpus)
tuned, class_ids, prototypes, ft_report = finetune(train, params, cfg.finetune,
                                                   cfg.seed)
first, last = ft_report.epochs[0].losses, ft_report.epochs[-1].losses
print(f"finetune: total loss {first['total']:.4f} -> {last['total']:.4f} "
      f"(proto {last['proto']:.4f})")

for sid, proto in zip(class_ids, prototypes):
    print(f"  identity {sid}: |prototype| {np.linalg.norm(proto):.3f}")

# the trained space separates identities where the raw one could not
by_id = {}
for seg, sid in test:
    by_id.setdefault(sid, []).append(seg.window)
ids = sorted(by_id)
emb = {}
for sid, wins in by_id.items():
    e = encode_signal_batch(tuned, np.stack(wins))
    emb[sid] = e / np.linalg.norm(e, axis=1, keepdims=True)
within = np.mean([float((emb[i] @ emb[i].T).mean()) for i in ids])
between = np.mean([float((emb[a] @ emb[b].T).mean())
                   for a in ids for b in ids if a < b])
print(f"test-split cosine similarity after training: within {within:.3f} "
      f"vs between {between:.3f}")
