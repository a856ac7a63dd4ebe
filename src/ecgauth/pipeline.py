"""End-to-end experiment engine behind the command-line interface.

Everything here is deterministic in (config, seed): corpus synthesis,
train/validation/test splits, signal--report pretraining pairs, the stages
(``pretrain_stage``, ``enroll_stage``, ``evaluate``), the open-set ratio
sweep, and the ablation study. The CLI is a thin shell over these
functions; tests and demo scripts chain the same stages in memory.

On disk, a corpus is one raw little-endian float64 file per identity plus a
manifest that holds the sampling rate and each file's SHA-256
(``write_corpus``/``load_corpus``). It is written by ``synth`` and read only
by the stages, so it is stored in the form they read; the text record
format in ``signals`` is the ``auth`` ingestion format.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
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
    render_report,
    segment_beats,
    synth_ecg,
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
    return synth_ecg(
        dataclasses.replace(morph,
                            noise_std_mv=morph.noise_std_mv * spec.noise_scale,
                            hr_jitter_bpm=morph.hr_jitter_bpm * spec.jitter_scale),
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
    return f"id_{subject_id:04d}.f64"


def write_corpus(cfg: RunConfig, corpus_dir) -> Path:
    """Write one record file per identity plus manifest.json; returns the dir.

    A record file holds the identity's samples as raw little-endian float64
    and nothing else. The manifest carries ``fs``, each id's file name
    (``records``) and the SHA-256 of each file's bytes (``sha256``).
    """
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    spec = cfg.corpus
    records, digests = {}, {}
    for sid in enrolled_ids(spec) + open_ids(spec):
        name = _record_filename(sid)
        payload = synth_identity(cfg, sid).samples.astype("<f8").tobytes()
        with atomic_open(corpus_dir / name, "wb") as fh:
            fh.write(payload)
        records[str(sid)] = name
        digests[str(sid)] = hashlib.sha256(payload).hexdigest()
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "fs": spec.fs,
        "half_window": spec.half_window,
        "beats_per_identity": spec.beats_per_identity,
        "enrolled_ids": enrolled_ids(spec),
        "open_ids": open_ids(spec),
        "records": records,
        "sha256": digests,
    }
    with atomic_open(corpus_dir / "manifest.json", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    logger.info("wrote corpus to %s", corpus_dir)
    return corpus_dir


def _bare_name(name) -> str:
    """``name`` if it names a file in the corpus directory itself."""
    if (not isinstance(name, str) or name in ("", "..") or "\0" in name
            or Path(name).name != name):
        raise ValueError(f"record file {name!r} is not a bare file name")
    return name


def _manifest_ids(ids, key: str) -> list[int]:
    """A manifest id list, sorted: distinct integers only."""
    if not isinstance(ids, list) or not all(_is_int(s) for s in ids):
        raise ValueError(f"{key} must be a list of integers")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{key} lists an id more than once")
    return sorted(ids)


def _read_corpus_record(path: Path, digest: str, fs: float,
                        subject_id: int) -> EcgRecord:
    """One record file, checked against its manifest digest and decoded."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise DependencyError(f"missing record file: {path}") from None
    if hashlib.sha256(raw).hexdigest() != digest:
        raise InputError(f"record file {path} does not match its SHA-256 in "
                         "the corpus manifest")
    if len(raw) % 8:
        raise InputError(f"record file {path} holds {len(raw)} bytes, not a "
                         "whole number of float64 samples")
    try:
        return EcgRecord(samples=np.frombuffer(raw, "<f8").copy(), fs=fs,
                         subject_id=subject_id)
    except InputError as exc:
        raise InputError(f"record file {path}: {exc}") from None


def load_corpus(corpus_dir, include_open: bool = True) -> Corpus:
    """Load a written corpus; beat segments are re-derived (deterministic).

    The whole manifest is always parsed and checked: ``half_window`` is an
    integer >= 1, the enrolled and open ids are distinct integers with no id
    in both splits, and each record is listed by a bare file name in
    ``corpus_dir`` and with its SHA-256. A manifest without digests (a text
    corpus of an earlier version) is rejected with a hint to re-run
    ``ecgauth synth``. Each record file read must match its
    digest and hold a non-empty, finite trace; its ``fs`` comes from the
    manifest and its subject from the manifest key. With
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
        if not (math.isfinite(fs) and fs > 0):
            raise ValueError(f"fs must be a positive finite number, got {fs!r}")
        half_window = manifest["half_window"]
        if not _is_int(half_window) or half_window < 1:
            raise ValueError(f"half_window must be an integer >= 1, got "
                             f"{half_window!r}")
        if "sha256" not in manifest:
            raise InputError(
                f"corpus manifest {manifest_path} lists no record digests: the "
                "corpus was written by an earlier version in the text format; "
                "re-run `ecgauth synth`")
        enrolled, opens = [_manifest_ids(manifest[key], key)
                           for key in ("enrolled_ids", "open_ids")]
        both = set(enrolled) & set(opens)
        if both:
            raise ValueError(f"ids {sorted(both)} are listed as both enrolled "
                             "and open")
        enrolled_files, open_files = [
            {sid: (corpus_dir / _bare_name(manifest["records"][str(sid)]),
                   manifest["sha256"][str(sid)])
             for sid in ids}
            for ids in (enrolled, opens)
        ]
    except (KeyError, TypeError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        raise InputError(f"corpus manifest {manifest_path} is malformed "
                         f"({type(exc).__name__}: {exc})") from exc

    def load_split(split: dict) -> dict[int, IdentityData]:
        return {sid: _identity_data(_read_corpus_record(path, digest, fs, sid),
                                    half_window)
                for sid, (path, digest) in split.items()}

    return Corpus(fs=fs, half_window=half_window,
                  enrolled=load_split(enrolled_files),
                  open_set=load_split(open_files) if include_open else None)


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
    score table.

    The table has one row per evaluated beat: the known test split first,
    then every evaluated open identity's beats in id order. ``scores``,
    ``predicted`` and ``truth`` (OPEN on open rows) are the metrics'
    columns; ``subjects`` is each row's corpus identity.
    """

    threshold: float
    ratios: list[RatioEval]
    embedding_true_ids: list[int]
    embeddings: np.ndarray
    scores: np.ndarray
    predicted: np.ndarray
    truth: np.ndarray
    subjects: np.ndarray


def evaluate(corpus: Corpus, cfg: RunConfig, registry: Registry,
             ratios=None) -> EvalOutcome:
    """Score the held-out known split and open identities at every ratio.

    Known samples come from the enrolled identities' test split; open
    samples use every beat of the first ratio*n_enrolled open identities
    (id order). Each window is encoded once: the known split in one batch,
    each open identity in its own. Every row is then scored in one call, so
    each ratio's samples are a prefix of the score table and the exported
    embeddings are the first ratio's prefix: the sweep costs one encoder
    pass plus one sort per ratio. A corpus sampled at another rate than the
    registry's ``fs`` is an InputError.
    """
    if corpus.open_set is None:
        raise StateError("evaluate needs the open identities, but the corpus "
                         "was loaded without them")
    if corpus.fs != registry.fs:
        raise InputError(f"corpus: sampled at {corpus.fs!r} Hz, but the "
                         f"registry was trained at {registry.fs!r} Hz")
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
    groups = [[s for s, _ in test]] + [corpus.open_set[sid].segments
                                       for sid in all_open[:needed]]
    emb = np.concatenate([
        encode_signal_batch(registry.encoder, np.stack([s.window for s in segs]))
        for segs in groups])
    scores, predicted = score_embeddings(registry, emb)
    subjects = np.array([sid for _, sid in test] + [
        sid for sid, segs in zip(all_open, groups[1:]) for _ in segs])
    truth = subjects.copy()
    truth[len(test):] = OPEN
    # rows[k]: the table's length with the first k open identities
    rows = np.cumsum([len(segs) for segs in groups])

    results = []
    for ratio in ratios:
        n = rows[ratio * n_enrolled]
        table = scores[:n], predicted[:n], truth[:n]
        curve = oscr(*table)
        results.append(RatioEval(
            ratio=ratio,
            open_id_count=ratio * n_enrolled,
            curve=curve,
            accuracy=closed_set_accuracy(*table),
            tnr=tnr(*table, registry.threshold),
            far=far(*table, registry.threshold),
        ))
        logger.info("ratio 1:%d -> acc %.4f oscr %.4f tnr %.4f far %.4f",
                    ratio, results[-1].accuracy, curve.oscr_area,
                    results[-1].tnr, results[-1].far)

    n = rows[ratios[0] * n_enrolled]
    return EvalOutcome(
        threshold=registry.threshold,
        ratios=results,
        embedding_true_ids=truth[:n].tolist(),
        embeddings=emb[:n],
        scores=scores,
        predicted=predicted,
        truth=truth,
        subjects=subjects,
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
    is_open = outcome.truth == OPEN
    accepted = is_open & (outcome.scores >= outcome.threshold)
    for sid in np.unique(outcome.subjects[is_open]):
        mine = is_open & (outcome.subjects == sid)
        ids, counts = np.unique(outcome.predicted[mine & accepted],
                                return_counts=True)
        identities.append({
            "id": int(sid),
            "beats": int(mine.sum()),
            "accepted": int(counts.sum()),
            "absorbed_by": {str(k): int(n) for k, n in zip(ids, counts)},
        })
    return {
        "threshold": outcome.threshold,
        "known_beats": int((~is_open).sum()),
        "open_identities": identities,
    }


# ----------------------------------------------------------------------
# ablation study

@dataclass
class AblationRow:
    """One ablation variant's headline metrics (first ratio)."""

    variant: str
    accuracy: float
    oscr: float
    tnr: float
    far: float


ABLATION_VARIANTS = ("full", "no_pretrain", "no_finetune")


def run_ablations(cfg: RunConfig) -> list[AblationRow]:
    """Skip pretraining or fine-tuning, one at a time.

    Every variant shares the corpus and the calibration, and the two that
    pretrain share the same pretrained weights, so rows differ only in the
    skipped stage. ``no_pretrain`` fine-tunes from the seed's initial
    weights; ``no_finetune`` runs zero fine-tuning epochs, so it is scored
    with the pretrained weights and the medoid prototypes. Metrics are
    taken at the first configured open-set ratio.
    """
    corpus = build_corpus(cfg)
    pretrained, _ = pretrain_stage(corpus, cfg)
    variants = {
        "full": (cfg.finetune, pretrained),
        "no_pretrain": (cfg.finetune, initial_params(cfg)),
        "no_finetune": (dataclasses.replace(cfg.finetune, epochs=0), pretrained),
    }
    rows = []
    for variant in ABLATION_VARIANTS:
        ft, params = variants[variant]
        var_cfg = dataclasses.replace(cfg, finetune=ft)
        logger.info("ablation variant %s", variant)
        registry = enroll_stage(corpus, var_cfg, params)
        outcome = evaluate(corpus, var_cfg, registry,
                           ratios=(cfg.open_ratios[0],))
        r = outcome.ratios[0]
        rows.append(AblationRow(
            variant=variant,
            accuracy=r.accuracy,
            oscr=r.curve.oscr_area,
            tnr=r.tnr,
            far=r.far,
        ))
    return rows


def format_ablation_table(rows) -> str:
    """Ablation study as CSV: one row per variant."""
    lines = ["variant,accuracy,oscr,tnr,far"]
    for r in rows:
        vals = [r.accuracy, r.oscr, r.tnr, r.far]
        lines.append(",".join([r.variant] + [repr(float(v)) for v in vals]))
    return "\n".join(lines) + "\n"
