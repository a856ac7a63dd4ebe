"""
Open-set evaluation: OSCR, FAR and the enrolled-to-open ratio
=============================================================

Closed-set accuracy only asks "is the predicted identity right?". An
authentication system also has to reject people it has never enrolled.
The evaluation sweeps every distinct confidence threshold and reports:

  CCR   fraction of enrolled-identity beats correctly accepted
  FPR   fraction of unknown beats wrongly accepted
  OSCR  area under CCR-vs-FPR across the sweep
  TNR   unknown beats rejected at the operating threshold
  FAR   accepted unknowns over the whole test population

Growing the open set relative to the enrolled set shows how acceptance
errors scale with exposure.
"""

from ecgauth import (
    CorpusSpec,
    EncoderConfig,
    FinetuneConfig,
    PretrainConfig,
    RunConfig,
    build_corpus,
)
from ecgauth.pipeline import enroll_stage, evaluate, pretrain_stage

cfg = RunConfig(
    seed=4,
    corpus=CorpusSpec(n_enrolled=3, n_open=12, beats_per_identity=80,
                      half_window=125),
    encoder=EncoderConfig(n_blocks=2, channels=(8, 16), kernel_size=5,
                          embed_dim=32, proj_dim=16),
    pretrain=PretrainConfig(epochs=15, batch_size=16, learning_rate=1e-3),
    finetune=FinetuneConfig(epochs=30, batch_size=16, learning_rate=1e-3),
    open_ratios=(1, 2, 4),
)
corpus = build_corpus(cfg)
params, _ = pretrain_stage(corpus, cfg)
registry = enroll_stage(corpus, cfg, params)

# evaluate the held-out enrolled beats against growing open populations
outcome = evaluate(corpus, cfg, registry)
print(f"operating threshold {outcome.threshold:.9f}")
print()
print("ratio  open-ids  accuracy   oscr     tnr      far")
for r in outcome.ratios:
    print(f"  1:{r.ratio}   {r.open_id_count:5d}    {r.accuracy:.4f}  "
          f"{r.curve.oscr_area:.4f}  {r.tnr:.4f}  {r.far:.4f}")

# the raw curve of the last ratio, sampled at a few thresholds
curve = outcome.ratios[-1].curve
print()
print("threshold sweep (1:%d ratio, %d distinct thresholds)"
      % (outcome.ratios[-1].ratio, curve.thresholds.size))
step = max(1, curve.thresholds.size // 5)
for i in range(0, curve.thresholds.size, step):
    print(f"  delta {curve.thresholds[i]:.6f}: ccr {curve.ccr[i]:.4f} "
          f"fpr {curve.fpr[i]:.4f} tnr {curve.tnr[i]:.4f}")

# per-beat embeddings are exportable for external visualization
print()
print(f"embeddings exported per evaluation: {outcome.embeddings.shape} "
      f"(enrolled test beats + first-ratio open beats)")
