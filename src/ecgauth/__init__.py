"""Open-set ECG identity authentication toolkit.

Pipeline: synthesize or ingest single-lead records, detect R peaks, derive
fiducial features and textual reports, pretrain a dual encoder contrastively
on (beat, report) pairs, fine-tune one prototype per identity (started at the
class medoid), and evaluate open-set recognition.
"""

from .errors import (
    CheckpointChecksumError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigurationError,
    DependencyError,
    EcgAuthError,
    InputError,
    ParameterError,
    RecordParseError,
    ShapeError,
    StateError,
)
from .encoder import (
    REPORT_HASH_DIM,
    DualEncoder,
    EncoderConfig,
    ModelParams,
    build_model,
    encode_signal_batch,
    fold_signal_encoder,
    hash_report,
    hash_reports,
    init_params,
    load_checkpoint,
    load_container,
    save_checkpoint,
    save_container,
    tokenize_report,
)
from .signals import (
    BeatSegment,
    EcgRecord,
    FiducialFeatures,
    IdentityMorphology,
    detect_r_peaks,
    extract_fiducials,
    read_record,
    render_report,
    segment_beats,
    synth_ecg,
    write_record,
)
from .losses import (
    compute_medoid,
    prototype_prob,
)
from .training import (
    FinetuneConfig,
    PretrainConfig,
    TrainReport,
    finetune,
    pretrain,
)
from .authsys import (
    Decision,
    Registry,
    authenticate,
    authenticate_batch,
    calibrate_threshold,
    enroll,
    load_registry,
    save_registry,
)
from .metrics import (
    OPEN,
    OpenSetCurve,
    ScoredSample,
    ccr,
    closed_set_accuracy,
    far,
    fpr,
    oscr,
    tnr,
    write_embeddings_csv,
)
from .pipeline import (
    Corpus,
    CorpusSpec,
    RunConfig,
    build_corpus,
    config_from_dict,
    config_from_path,
    default_config_dict,
    load_corpus,
    run_ablations,
    write_corpus,
)

__version__ = "0.1.0"
