"""
The dual encoder: beat windows and report text into one embedding space
=======================================================================

The signal branch is a small residual 1-D conv net producing an
embedding per beat window; the report branch hashes tokens into a fixed
bag-of-words vector and maps it with a trainable linear layer. Each
branch also has a projection head onto the unit sphere, where the
contrastive loss compares the two modalities. The report branch and both
heads serve pretraining only: fine-tuning and authentication use the
signal encoder alone, and identity geometry lives in its raw
(unnormalized) embedding space.

This demo only exercises structure: deterministic initialization, batch
encoding, and the checkpoint container (magic bytes, JSON header, float64
tensors, SHA-256 tail).
"""

import tempfile
from pathlib import Path

import numpy as np

from ecgauth import (
    EncoderConfig,
    IdentityMorphology,
    encode_signal_batch,
    fold_signal_encoder,
    init_params,
    load_checkpoint,
    save_checkpoint,
    segment_beats,
    synth_ecg,
)

config = EncoderConfig(channels=(8, 16), kernel_size=5,
                       embed_dim=32, proj_dim=16)
params = init_params(config, input_length=250, seed=42)
again = init_params(config, input_length=250, seed=42)
assert params.checksum() == again.checksum()
print(f"encoder: {params.parameter_count} parameters, initialization is a "
      f"pure function of the seed")

# windows from two different identities
rng = np.random.default_rng(9)
windows = []
for seed in (201, 202):
    rec = synth_ecg(IdentityMorphology.random(rng), n_beats=12, fs=250.0,
                    seed=seed)
    segs = segment_beats(rec, rec.ground_truth_peaks, half_window=125)
    windows.append(np.stack([s.window for s in segs[:8]]))

# inference folds each batch norm into the conv before it, once per set of weights
folded = fold_signal_encoder(params)
emb_a = encode_signal_batch(folded, windows[0])
emb_b = encode_signal_batch(folded, windows[1])
print(f"embeddings: {emb_a.shape} per identity, norms "
      f"{np.linalg.norm(emb_a, axis=1).round(3).tolist()[:3]} ... "
      f"(unnormalized; distances carry the identity geometry)")

# an untrained encoder barely separates identities; training opens the gap
unit_a = emb_a / np.linalg.norm(emb_a, axis=1, keepdims=True)
unit_b = emb_b / np.linalg.norm(emb_b, axis=1, keepdims=True)
within = float((unit_a @ unit_a.T).mean())
between = float((unit_a @ unit_b.T).mean())
print(f"untrained cosine similarity: within {within:.3f} vs between "
      f"{between:.3f} (see the training demo for the trained contrast)")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "encoder.ckpt"
    save_checkpoint(params, path, metadata={"note": "demo"})
    restored = load_checkpoint(path)
    print(f"checkpoint: {path.stat().st_size} bytes on disk, round-trip "
          f"bit-identical: {restored.checksum() == params.checksum()}")
