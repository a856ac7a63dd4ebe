"""End-to-end experiment engine behind the command-line interface.

Everything here is deterministic in (config, seed): corpus synthesis,
train/validation/test splits, signal--report pretraining pairs, the
pretrain -> enroll -> evaluate pipeline, the open-set ratio sweep, and the
ablation study. The CLI is a thin shell over these functions; tests and
demo scripts call them directly.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .authsys import Registry, enroll, score_embeddings
from .encoder import EncoderConfig, ModelParams, encode_signal_batch, init_params
from .errors import ConfigurationError, DependencyError, InputError, StateError
from .metrics import (
    OPEN,
    OpenSetCurve,
    ScoredSample,
    closed_set_accuracy,
    far,
    format_curve,
    oscr,
    tnr,
)
from .signals import (
    REPORT_MAX_PEAKS,
    BeatSegment,
    EcgRecord,
    IdentityMorphology,
    detect_r_peaks,
    extract_fiducials,
    read_record,
    render_report,
    segment_beats,
    synth_ecg,
    write_record,
)
from .training import FinetuneConfig, PretrainConfig, TrainReport, pretrain

logger = logging.getLogger("ecgauth.pipeline")

SCHEMA_VERSION = 1

# Split fractions are fixed rather than configurable: segments are
# time-ordered, and a 60/20/20 train/validation/test split by index keeps
# calibration and evaluation on beats the encoder never trained on.
TRAIN_FRAC = 0.6
VAL_FRAC = 0.2

_MIN_BEATS = 10
_SYNTH_SEED_STRIDE = 1_000_003


# ----------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class CorpusSpec:
    """Synthetic corpus shape: identity counts, record length, noise knobs.

    noise_scale / jitter_scale multiply each drawn identity's baseline
    noise and heart-rate jitter, so a config can sweep difficulty without
    touching the morphology family.
    """

    n_enrolled: int = 8
    n_open: int = 80
    beats_per_identity: int = 100
    fs: float = 250.0
    half_window: int = 250
    noise_scale: float = 1.0
    jitter_scale: float = 1.0

    def __post_init__(self):
        if self.n_enrolled < 2:
            raise ConfigurationError("n_enrolled must be >= 2")
        if self.n_open < 0:
            raise ConfigurationError("n_open must be >= 0")
        if self.beats_per_identity < _MIN_BEATS:
            raise ConfigurationError(
                f"beats_per_identity must be >= {_MIN_BEATS} so every split "
                "stays non-empty"
            )
        if self.fs < 100.0:
            raise ConfigurationError("fs must be >= 100 Hz")
        if self.half_window < 1:
            raise ConfigurationError("half_window must be >= 1")
        if self.noise_scale < 0 or self.jitter_scale < 0:
            raise ConfigurationError("noise/jitter scales must be >= 0")

    @property
    def window_length(self) -> int:
        return 2 * self.half_window


@dataclass(frozen=True)
class RunConfig:
    """One declarative description of a full experiment."""

    seed: int = 5
    out_dir: str = "runs/default"
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    use_pretrain: bool = True
    open_ratios: tuple[int, ...] = (1, 2, 3, 5, 10)

    def __post_init__(self):
        object.__setattr__(self, "open_ratios",
                           tuple(int(r) for r in self.open_ratios))
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not self.open_ratios:
            raise ConfigurationError("open_ratios must be non-empty")
        if any(r < 1 for r in self.open_ratios):
            raise ConfigurationError("open ratios must be positive")
        needed = max(self.open_ratios) * self.corpus.n_enrolled
        if needed > self.corpus.n_open:
            raise ConfigurationError(
                f"largest open ratio needs {needed} open identities but the "
                f"corpus only has {self.corpus.n_open}"
            )


def default_config_dict() -> dict:
    """The default experiment as a plain config tree (JSON-serializable).

    The tree is also the schema: config_from_dict accepts exactly its keys,
    each leaf with the type of its default.
    """
    return _plain({"schema_version": SCHEMA_VERSION,
                   **dataclasses.asdict(RunConfig())})


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return list(value) if isinstance(value, tuple) else value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _leaf(value, default, what: str):
    """``value`` if it has the type of ``default``; an int widens to a float."""
    if isinstance(default, list):
        if isinstance(value, (list, tuple)) and all(_is_int(v) for v in value):
            return list(value)
        raise ConfigurationError(f"{what} must be a list of integers")
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        raise ConfigurationError(f"{what} must be true or false")
    if isinstance(default, int):
        if _is_int(value):
            return value
        raise ConfigurationError(f"{what} must be an integer")
    if isinstance(default, float):
        if _is_int(value) or isinstance(value, float):
            # json reads NaN, Infinity and integers past the float range;
            # every range check lets NaN and infinity by
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if not math.isfinite(number):
                raise ConfigurationError(f"{what} must be a finite number")
            return number
        raise ConfigurationError(f"{what} must be a number")
    if isinstance(value, str):
        return value
    raise ConfigurationError(f"{what} must be a string")


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a key/value mapping")
    return value


def _merge(defaults: dict, given, where: str) -> dict:
    """``defaults`` overridden by the checked leaves of ``given``."""
    given = _require_mapping(given, where)
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    out = dict(defaults)
    for key, value in given.items():
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, f'"{key}"')
        else:
            out[key] = _leaf(value, defaults[key], f"{key} in {where}")
    return out


def config_from_dict(data: dict) -> RunConfig:
    """Validate a parsed config tree; unknown keys anywhere are rejected."""
    data = _require_mapping(data, "config")
    if "schema_version" not in data:
        raise ConfigurationError("config is missing schema_version")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema_version {data['schema_version']!r} "
            f"(this toolkit reads version {SCHEMA_VERSION})"
        )
    tree = _merge(default_config_dict(), data, "config")
    del tree["schema_version"]
    defaults = RunConfig()
    try:
        for name, section in tree.items():
            if isinstance(section, dict):
                tree[name] = type(getattr(defaults, name))(**section)
        return RunConfig(**tree)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid config value: {exc}") from exc


def config_from_path(path) -> RunConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    return config_from_dict(data)


# ----------------------------------------------------------------------
# corpus synthesis and loading

@dataclass
class IdentityData:
    """One identity's record with its beat windows."""

    record: EcgRecord
    segments: list[BeatSegment]


@dataclass
class Corpus:
    """Enrolled and open identities, segmented and ready for the pipeline.

    ``open_set`` is None when the corpus was loaded for training only
    (``load_corpus(..., include_open=False)``); ``evaluate`` rejects such a
    corpus.
    """

    fs: float
    half_window: int
    enrolled: dict[int, IdentityData]
    open_set: dict[int, IdentityData] | None


def enrolled_ids(spec: CorpusSpec) -> list[int]:
    return list(range(1, spec.n_enrolled + 1))


def open_ids(spec: CorpusSpec) -> list[int]:
    first = spec.n_enrolled + 1
    return list(range(first, first + spec.n_open))


def synth_identity(cfg: RunConfig, subject_id: int) -> EcgRecord:
    """Synthesize one identity's record, deterministic in (seed, id)."""
    spec = cfg.corpus
    rng = np.random.default_rng([cfg.seed, subject_id])
    morph = IdentityMorphology.random(rng)
    morph.noise_std_mv *= spec.noise_scale
    morph.hr_jitter_bpm *= spec.jitter_scale
    return synth_ecg(
        morph,
        n_beats=spec.beats_per_identity,
        fs=spec.fs,
        seed=cfg.seed * _SYNTH_SEED_STRIDE + subject_id,
        subject_id=subject_id,
    )


def _identity_data(record: EcgRecord, half_window: int) -> IdentityData:
    return IdentityData(
        record=record,
        segments=segment_beats(record, detect_r_peaks(record), half_window),
    )


def build_corpus(cfg: RunConfig) -> Corpus:
    """Synthesize the full corpus in memory (no files)."""
    spec = cfg.corpus
    enrolled = {sid: _identity_data(synth_identity(cfg, sid), spec.half_window)
                for sid in enrolled_ids(spec)}
    opens = {sid: _identity_data(synth_identity(cfg, sid), spec.half_window)
             for sid in open_ids(spec)}
    logger.info("built corpus: %d enrolled + %d open identities",
                len(enrolled), len(opens))
    return Corpus(fs=spec.fs, half_window=spec.half_window,
                  enrolled=enrolled, open_set=opens)


def _record_filename(subject_id: int) -> str:
    return f"id_{subject_id:04d}.ecg"


def write_corpus(cfg: RunConfig, corpus_dir) -> Path:
    """Write per-identity record files plus manifest.json; returns the dir."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    spec = cfg.corpus
    records = {}
    for sid in enrolled_ids(spec) + open_ids(spec):
        name = _record_filename(sid)
        write_record(synth_identity(cfg, sid), corpus_dir / name)
        records[str(sid)] = name
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "fs": spec.fs,
        "half_window": spec.half_window,
        "beats_per_identity": spec.beats_per_identity,
        "enrolled_ids": enrolled_ids(spec),
        "open_ids": open_ids(spec),
        "records": records,
    }
    with atomic_open(corpus_dir / "manifest.json", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    logger.info("wrote corpus to %s", corpus_dir)
    return corpus_dir


def load_corpus(corpus_dir, include_open: bool = True) -> Corpus:
    """Load a written corpus; beat segments are re-derived (deterministic).

    The whole manifest is always parsed and checked. With
    ``include_open=False`` the open identities' record files are not read
    and the corpus' ``open_set`` is None. The training stages use only the
    enrolled records, so a damaged open record is reported by evaluation.
    """
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / "manifest.json"
    if not manifest_path.exists():
        raise DependencyError(f"missing corpus manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        fs = float(manifest["fs"])
        half_window = int(manifest["half_window"])
        enrolled_paths, open_paths = [
            {sid: corpus_dir / manifest["records"][str(sid)]
             for sid in sorted(int(s) for s in manifest[key])}
            for key in ("enrolled_ids", "open_ids")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        raise InputError(f"corpus manifest {manifest_path} is malformed "
                         f"({type(exc).__name__}: {exc})") from exc

    def load_split(split: dict) -> dict[int, IdentityData]:
        out = {}
        for sid, rec_path in split.items():
            if not rec_path.exists():
                raise DependencyError(f"missing record file: {rec_path}")
            out[sid] = _identity_data(read_record(rec_path), half_window)
        return out

    return Corpus(fs=fs, half_window=half_window,
                  enrolled=load_split(enrolled_paths),
                  open_set=load_split(open_paths) if include_open else None)


# ----------------------------------------------------------------------
# splits and pretraining pairs

def split_slices(n: int) -> tuple[slice, slice, slice]:
    """Index-ordered 60/20/20 split of one identity's segment list."""
    a = int(n * TRAIN_FRAC)
    b = int(n * (TRAIN_FRAC + VAL_FRAC))
    return slice(0, a), slice(a, b), slice(b, n)


def make_splits(corpus: Corpus):
    """(train, val, test) lists of (segment, subject_id) over enrolled ids."""
    train, val, test = [], [], []
    for sid in sorted(corpus.enrolled):
        segs = corpus.enrolled[sid].segments
        tr, va, te = split_slices(len(segs))
        train += [(s, sid) for s in segs[tr]]
        val += [(s, sid) for s in segs[va]]
        test += [(s, sid) for s in segs[te]]
    return train, val, test


def make_pretrain_pairs(corpus: Corpus):
    """(segment, report text) pairs from each identity's training split.

    Training-split peaks are grouped into runs of up to REPORT_MAX_PEAKS
    consecutive beats; each run is summarized by one fiducial report that is
    paired with every beat window in the run. Only enrolled training data is
    used, so evaluation splits never leak into pretraining.
    """
    pairs = []
    for sid in sorted(corpus.enrolled):
        data = corpus.enrolled[sid]
        tr, _, _ = split_slices(len(data.segments))
        train_segs = data.segments[tr]
        by_peak = {s.r_index: s for s in train_segs}
        peaks = np.array([s.r_index for s in train_segs])
        for start in range(0, peaks.size, REPORT_MAX_PEAKS):
            chunk = peaks[start : start + REPORT_MAX_PEAKS]
            if chunk.size < 2:
                continue
            text = render_report(extract_fiducials(data.record, chunk))
            pairs.extend((by_peak[int(p)], text) for p in chunk)
    return pairs


# ----------------------------------------------------------------------
# pipeline stages

def initial_params(cfg: RunConfig) -> ModelParams:
    """Fresh (non-pretrained) encoder parameters for this config."""
    return init_params(cfg.encoder, cfg.corpus.window_length, seed=cfg.seed)


def pretrain_stage(corpus: Corpus, cfg: RunConfig) -> tuple[ModelParams, TrainReport]:
    """Contrastive signal/report pretraining on the enrolled training split."""
    pairs = make_pretrain_pairs(corpus)
    logger.info("pretraining on %d signal/report pairs", len(pairs))
    return pretrain(pairs, cfg.pretrain, cfg.seed, cfg.encoder)


def enroll_stage(corpus: Corpus, cfg: RunConfig, params: ModelParams) -> Registry:
    """Fine-tune on the training split and calibrate on the validation split."""
    train, val, _ = make_splits(corpus)
    logger.info("enrolling %d identities on %d segments",
                len(corpus.enrolled), len(train))
    return enroll(train, params, cfg.finetune, cfg.seed, corpus.fs,
                  validation=val)


@dataclass
class RatioEval:
    """Open-set evaluation at one open-to-enrolled identity ratio."""

    ratio: int
    open_id_count: int
    curve: OpenSetCurve
    accuracy: float
    tnr: float
    far: float


@dataclass
class EvalOutcome:
    """Everything cmd_eval writes: per-ratio metrics, raw embeddings, and the
    scores of every evaluated open identity."""

    threshold: float
    ratios: list[RatioEval]
    embedding_true_ids: list[int]
    embeddings: np.ndarray
    known_count: int
    open_scores: dict[int, list[ScoredSample]]


def evaluate(corpus: Corpus, cfg: RunConfig, registry: Registry,
             ratios=None) -> EvalOutcome:
    """Score the held-out known split and open identities at every ratio.

    Known samples come from the enrolled identities' test split; open
    samples use every beat of the first ratio*n_enrolled open identities
    (id order). Each window is encoded once: the known split in one batch,
    each open identity in its own. Scores are reused across ratios and the
    exported embeddings come from the same pass, so the sweep costs one
    encoder pass plus one sort per ratio.
    """
    if corpus.open_set is None:
        raise StateError("evaluate needs the open identities, but the corpus "
                         "was loaded without them")
    ratios = tuple(ratios) if ratios is not None else cfg.open_ratios
    n_enrolled = len(corpus.enrolled)
    all_open = sorted(corpus.open_set)
    needed = max(ratios) * n_enrolled
    if needed > len(all_open):
        raise ConfigurationError(
            f"corpus has {len(all_open)} open identities but ratio "
            f"{max(ratios)} needs {needed}"
        )

    _, _, test = make_splits(corpus)
    known_emb = encode_signal_batch(registry.params,
                                    np.stack([s.window for s, _ in test]))
    probs, preds = score_embeddings(registry, known_emb)
    known_samples = [
        ScoredSample(float(p), int(c), sid)
        for p, c, (_, sid) in zip(probs, preds, test)
    ]

    # the exported embeddings: the known split, then the first ratio's
    # open identities in id order
    first_ids = all_open[: ratios[0] * n_enrolled]
    embed_parts = [known_emb]
    per_open: dict[int, list[ScoredSample]] = {}
    for sid in all_open[:needed]:
        emb = encode_signal_batch(
            registry.params,
            np.stack([s.window for s in corpus.open_set[sid].segments]))
        probs, preds = score_embeddings(registry, emb)
        per_open[sid] = [ScoredSample(float(p), int(c), OPEN)
                         for p, c in zip(probs, preds)]
        if sid in first_ids:
            embed_parts.append(emb)

    results = []
    for ratio in ratios:
        ids = all_open[: ratio * n_enrolled]
        samples = known_samples + [s for sid in ids for s in per_open[sid]]
        curve = oscr(samples)
        results.append(RatioEval(
            ratio=ratio,
            open_id_count=len(ids),
            curve=curve,
            accuracy=closed_set_accuracy(samples).accuracy,
            tnr=tnr(samples, registry.threshold),
            far=far(samples, registry.threshold),
        ))
        logger.info("ratio 1:%d -> acc %.4f oscr %.4f tnr %.4f far %.4f",
                    ratio, results[-1].accuracy, curve.oscr_area,
                    results[-1].tnr, results[-1].far)

    embed_true = [sid for _, sid in test]
    for sid in first_ids:
        embed_true += [OPEN] * len(per_open[sid])
    return EvalOutcome(
        threshold=registry.threshold,
        ratios=results,
        embedding_true_ids=embed_true,
        embeddings=np.concatenate(embed_parts, axis=0),
        known_count=len(known_samples),
        open_scores=per_open,
    )


def format_eval(outcome: EvalOutcome) -> str:
    """One curve block per ratio: a ratio= line, then the metrics CSV block."""
    blocks = []
    for r in outcome.ratios:
        blocks.append(f"ratio={r.ratio}\n" + format_curve(r.curve))
    return "\n".join(blocks)


def write_eval_csv(outcome: EvalOutcome, path) -> None:
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(format_eval(outcome))


def eval_summary(outcome: EvalOutcome) -> dict:
    """Headline numbers per ratio (JSON-serializable, deterministic)."""
    return {
        "threshold": outcome.threshold,
        "ratios": [
            {
                "ratio": r.ratio,
                "open_identities": r.open_id_count,
                "accuracy": r.accuracy,
                "oscr": r.curve.oscr_area,
                "tnr": r.tnr,
                "far": r.far,
            }
            for r in outcome.ratios
        ],
    }


def open_identity_report(outcome: EvalOutcome) -> dict:
    """Per evaluated open identity: beats scored, beats accepted at the
    registry threshold, and the enrolled ids that accepted them.

    With ``known_beats``, a ratio's FAR is the sum of ``accepted`` over its
    open identities divided by ``known_beats`` plus the sum of their
    ``beats``. JSON-serializable and deterministic.
    """
    identities = []
    for sid, samples in sorted(outcome.open_scores.items()):
        absorbed = Counter(s.predicted_id for s in samples
                           if s.max_prob >= outcome.threshold)
        identities.append({
            "id": sid,
            "beats": len(samples),
            "accepted": sum(absorbed.values()),
            "absorbed_by": {str(k): n for k, n in sorted(absorbed.items())},
        })
    return {
        "threshold": outcome.threshold,
        "known_beats": outcome.known_count,
        "open_identities": identities,
    }


# ----------------------------------------------------------------------
# full experiment and studies

@dataclass
class ExperimentResult:
    """Artifacts of one full pretrain -> enroll -> evaluate run."""

    corpus: Corpus
    pretrained: ModelParams | None
    pretrain_report: TrainReport | None
    registry: Registry
    outcome: EvalOutcome


def run_experiment(cfg: RunConfig, corpus: Corpus | None = None,
                   pretrained: ModelParams | None = None) -> ExperimentResult:
    """Run the whole pipeline in memory; stages can be injected for reuse."""
    if corpus is None:
        corpus = build_corpus(cfg)
    report = None
    if cfg.use_pretrain:
        if pretrained is None:
            pretrained, report = pretrain_stage(corpus, cfg)
        params = pretrained
    else:
        pretrained = None
        params = initial_params(cfg)
    registry = enroll_stage(corpus, cfg, params)
    outcome = evaluate(corpus, cfg, registry)
    return ExperimentResult(corpus=corpus, pretrained=pretrained,
                            pretrain_report=report, registry=registry,
                            outcome=outcome)


@dataclass
class AblationRow:
    """One ablation variant's switches and headline metrics (first ratio)."""

    variant: str
    pretrain: bool
    prototype: bool
    accuracy: float
    oscr: float
    tnr: float
    far: float


ABLATION_VARIANTS = ("full", "no_pretrain", "no_prototype")


def run_ablations(cfg: RunConfig, corpus: Corpus | None = None,
                  pretrained: ModelParams | None = None) -> list[AblationRow]:
    """Toggle pretraining and the prototype loss off, one at a time.

    Every variant shares the corpus and (where used) the same pretrained
    weights, so rows differ only in the ablated switch. ``no_prototype``
    fine-tunes with no objective: its weights stay fixed, only the BatchNorm
    running statistics move, and it is scored with the medoid prototypes.
    Metrics are taken at the first configured open-set ratio.
    """
    if corpus is None:
        corpus = build_corpus(cfg)
    if pretrained is None:
        pretrained, _ = pretrain_stage(corpus, cfg)
    rows = []
    for variant in ABLATION_VARIANTS:
        ft = cfg.finetune
        if variant == "no_prototype":
            ft = dataclasses.replace(ft, beta=0.0)
        use_pre = variant != "no_pretrain"
        var_cfg = dataclasses.replace(cfg, finetune=ft)
        params = pretrained if use_pre else initial_params(cfg)
        logger.info("ablation variant %s", variant)
        registry = enroll_stage(corpus, var_cfg, params)
        outcome = evaluate(corpus, var_cfg, registry,
                           ratios=(cfg.open_ratios[0],))
        r = outcome.ratios[0]
        rows.append(AblationRow(
            variant=variant,
            pretrain=use_pre,
            prototype=ft.beta > 0,
            accuracy=r.accuracy,
            oscr=r.curve.oscr_area,
            tnr=r.tnr,
            far=r.far,
        ))
    return rows


def format_ablation_table(rows) -> str:
    """Ablation study as CSV: one row per variant, switches as 0/1 flags."""
    lines = ["variant,pretrain,prototype,accuracy,oscr,tnr,far"]
    for r in rows:
        flags = [int(r.pretrain), int(r.prototype)]
        vals = [r.accuracy, r.oscr, r.tnr, r.far]
        lines.append(",".join([r.variant] + [str(f) for f in flags]
                              + [repr(float(v)) for v in vals]))
    return "\n".join(lines) + "\n"


def write_ablation_csv(rows, path) -> None:
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(format_ablation_table(rows))
