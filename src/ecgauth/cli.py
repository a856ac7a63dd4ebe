"""Command-line interface: synth, pretrain, finetune, auth, eval.

Every command is driven by one JSON config file (``--config``; built-in
defaults when omitted) plus two overrides: ``--seed`` and ``--out``. Given
identical inputs and seed, re-running a command rewrites its artifacts with
identical bytes. Verbosity is controlled by the ``ECGAUTH_LOG`` environment
variable (debug/info/warning/error; default warning).

Artifacts under the output directory:
  corpus/            per-identity record files + manifest.json   (synth)
  pretrain.ckpt      pretrained dual-encoder checkpoint          (pretrain)
  registry.reg       fine-tuned weights, prototypes, threshold, fs (finetune)
  eval/metrics.csv   one open-set curve block per ratio          (eval)
  eval/embeddings.csv, eval/summary.json                         (eval)
  eval/open_identities.json  per open identity: beats accepted, and as whom (eval)

Exit codes:
  0  command completed, or the reader of standard output closed it early
     (``ecgauth auth ... | head``): the rest of the output is discarded
  1  unexpected failure
  2  invalid configuration or command line
  3  missing upstream artifact (run the producing command first)
  4  invalid input data (unreadable record or corpus manifest, malformed values,
     a record sampled at another rate than the registry was trained at)
  5  corrupt or incompatible checkpoint/registry file
  6  internal state error
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import pipeline
from .atomic import atomic_open
from .authsys import authenticate_batch, load_registry, save_registry
from .encoder import load_checkpoint, save_checkpoint
from .errors import (
    CheckpointError,
    ConfigurationError,
    DependencyError,
    InputError,
    ParameterError,
    RecordParseError,
    StateError,
)
from .metrics import write_embeddings_csv
from .signals import detect_r_peaks, read_record, segment_beats

logger = logging.getLogger("ecgauth.cli")

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_INPUT = 4
EXIT_CHECKPOINT = 5
EXIT_STATE = 6


def _corpus_dir(cfg) -> Path:
    return Path(cfg.out_dir) / "corpus"


def _checkpoint_path(cfg) -> Path:
    return Path(cfg.out_dir) / "pretrain.ckpt"


def _registry_path(cfg) -> Path:
    return Path(cfg.out_dir) / "registry.reg"


def _load_corpus(cfg, include_open: bool) -> pipeline.Corpus:
    try:
        return pipeline.load_corpus(_corpus_dir(cfg), include_open=include_open)
    except DependencyError as exc:
        raise DependencyError(f"{exc} (run `ecgauth synth` first)") from None


def _load_registry(cfg):
    path = _registry_path(cfg)
    if not path.exists():
        raise DependencyError(
            f"missing registry: {path} (run `ecgauth finetune` first)"
        )
    return load_registry(path)


def cmd_synth(cfg, args) -> None:
    corpus_dir = pipeline.write_corpus(cfg, _corpus_dir(cfg))
    n = cfg.corpus.n_enrolled + cfg.corpus.n_open
    print(f"wrote {n} records ({cfg.corpus.n_enrolled} enrolled, "
          f"{cfg.corpus.n_open} open) to {corpus_dir}")


def cmd_pretrain(cfg, args) -> None:
    corpus = _load_corpus(cfg, include_open=False)
    params, report = pipeline.pretrain_stage(corpus, cfg)
    for line in report.to_lines():
        logger.info("%s", line)
    path = _checkpoint_path(cfg)
    save_checkpoint(params, path, metadata={"stage": "pretrain", "seed": cfg.seed})
    final = report.epochs[-1].losses["contrastive"]
    print(f"wrote pretrained checkpoint to {path} "
          f"(final epoch contrastive loss {final:.6f})")


def cmd_finetune(cfg, args) -> None:
    corpus = _load_corpus(cfg, include_open=False)
    if cfg.use_pretrain:
        ckpt = _checkpoint_path(cfg)
        if not ckpt.exists():
            raise DependencyError(
                f"missing pretrain checkpoint: {ckpt} "
                "(run `ecgauth pretrain` first, or set use_pretrain=false)"
            )
        params = load_checkpoint(ckpt)
    else:
        params = pipeline.initial_params(cfg)
    registry = pipeline.enroll_stage(corpus, cfg, params)
    path = _registry_path(cfg)
    save_registry(registry, path)
    print(f"enrolled {len(registry.ids)} identities; threshold "
          f"{registry.threshold:.9f}; wrote registry to {path}")


def cmd_auth(cfg, args) -> None:
    registry = _load_registry(cfg)
    record_path = Path(args.record)
    if not record_path.exists():
        raise InputError(f"record file not found: {record_path}")
    record = read_record(record_path)
    if record.fs != registry.fs:
        raise InputError(f"{record_path}: sampled at {record.fs!r} Hz, but the "
                         f"registry was trained at {registry.fs!r} Hz")
    # the window the registry was trained on, whatever the config says
    segments = segment_beats(record, detect_r_peaks(record),
                             registry.params.input_length // 2)
    if not segments:
        print("no beats detected", file=sys.stderr)
        return
    for k, (seg, dec) in enumerate(
        zip(segments, authenticate_batch(registry, segments))
    ):
        verdict = "accepted" if dec.accepted else "rejected"
        print(f"beat={k} r_index={seg.r_index} decision={verdict} "
              f"id={dec.predicted_id} prob={dec.max_prob:.6f}")


def cmd_eval(cfg, args) -> None:
    corpus = _load_corpus(cfg, include_open=True)
    registry = _load_registry(cfg)
    outcome = pipeline.evaluate(corpus, cfg, registry)
    eval_dir = Path(cfg.out_dir) / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    pipeline.write_eval_csv(outcome, eval_dir / "metrics.csv")
    write_embeddings_csv(
        eval_dir / "embeddings.csv",
        list(range(len(outcome.embedding_true_ids))),
        outcome.embedding_true_ids,
        outcome.embeddings,
    )
    for name, doc in (("summary.json", pipeline.eval_summary(outcome)),
                      ("open_identities.json",
                       pipeline.open_identity_report(outcome))):
        with atomic_open(eval_dir / name, encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(f"threshold {outcome.threshold:.9f}")
    for r in outcome.ratios:
        print(f"ratio=1:{r.ratio} acc={r.accuracy:.4f} "
              f"oscr={r.curve.oscr_area:.4f} tnr={r.tnr:.4f} far={r.far:.4f}")
    print(f"wrote {eval_dir / 'metrics.csv'}, embeddings.csv, summary.json, "
          "open_identities.json")


_COMMANDS = {
    "synth": (cmd_synth, "synthesize the identity corpus"),
    "pretrain": (cmd_pretrain, "contrastive signal/report pretraining"),
    "finetune": (cmd_finetune, "fine-tune, enroll, and calibrate a registry"),
    "auth": (cmd_auth, "authenticate every beat of a record file"),
    "eval": (cmd_eval, "open-set evaluation sweep over the configured ratios"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgauth",
        description="ECG identity authentication toolkit",
        epilog="exit codes: 0 ok, 1 unexpected, 2 config, 3 missing artifact, "
               "4 bad input, 5 bad checkpoint/registry, 6 state error",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (defaults built in)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output directory")
        if name == "auth":
            p.add_argument("record", help="record file to authenticate")
    return parser


def _configure_logging() -> None:
    name = os.environ.get("ECGAUTH_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = pipeline.config_from_path(args.config)
        else:
            cfg = pipeline.RunConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        _COMMANDS[args.command][0](cfg, args)
        # a reader that stops early must fail this flush, not the one at exit
        sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # the reader closed the pipe (`ecgauth auth ... | head`); nothing
        # failed. Point fd 1 at devnull so the flush at interpreter exit
        # does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ConfigurationError, ParameterError) as exc:
        return _fail(exc, EXIT_CONFIG)
    except DependencyError as exc:
        return _fail(exc, EXIT_DEPENDENCY)
    except CheckpointError as exc:
        return _fail(exc, EXIT_CHECKPOINT)
    except (InputError, RecordParseError) as exc:
        return _fail(exc, EXIT_INPUT)
    except StateError as exc:
        return _fail(exc, EXIT_STATE)
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        logger.exception("unexpected failure")
        return _fail(exc, EXIT_UNEXPECTED)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
