"""The two workloads and the loop that drives them through ecgauth.

Every workload runs the same user-facing flow in one process, with one
client and no extra threads. Set-up is ``ecgauth synth`` plus the auth
records. Each measured pass runs ``ecgauth pretrain``, ``finetune`` and
``eval``, with the auth records spread over the points where a registry
exists: each record through in-process ``ecgauth auth``, then single beats
of it through ``authsys.authenticate``. The workloads differ in corpus
shape, training budget, ratios and the number and length of records, which
moves the time between layers.

The ecgauth config seed of each workload is pinned, so corpus, training and
every quality metric are one fixed reference point; ``--seed`` drives the
benchmark's own record generator (identities, noise, order) and the choice
of single beats.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ecgauth
from ecgauth import authsys, cli, pipeline, signals

from checks import (
    check_auth_output,
    check_eval_outputs,
    check_single_decision,
    parse_auth_lines,
    tree_digest,
)

STAGES = ("pretrain", "finetune", "eval")
SETUP_REPEATS = 5
MIN_PASSES = 2
SINGLE_BEATS_PER_RECORD = 20
# The first single beats after a record call run on caches the record
# evicted (2.5 ms, then 2.3 and 1.9, against 1.65 ms from the fifth on).
# A stream of single beats is warm, so these calls are checked but not timed.
WARM_BEATS_PER_RECORD = 4

# Auth calls are timed on the calling thread's CPU clock. They are pure
# compute on one thread (the record and registry are read from the page
# cache), so on a dedicated core this is their wall latency. On a shared VM
# it leaves out the moments the host takes the vCPU away, which otherwise
# make up the 1% tail: single beats of 1.6 ms median show 4-13 ms wall
# times with 2-3 ms of CPU and no context switch.
call_clock = time.thread_time


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # overrides on ecgauth's default config tree
    record_beats: tuple[int, int]  # shortest and longest auth record
    records: int  # auth records, each sent once per pass


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train-hard",
            config={
                "seed": 2,
                "corpus": {"n_enrolled": 5, "n_open": 10, "beats_per_identity": 80,
                           "noise_scale": 2.0, "jitter_scale": 2.0},
                "pretrain": {"epochs": 4},
                "finetune": {"epochs": 5},
                "open_ratios": [1, 2],
            },
            record_beats=(10, 30),
            records=51,
        ),
        # a small registry facing a large open population: eval is the
        # OSCR sweep and batch-256 inference, auth is batch 1 to ~100
        Workload(
            name="auth-stream",
            config={
                "seed": 5,
                "corpus": {"n_enrolled": 4, "n_open": 32, "beats_per_identity": 60},
                "pretrain": {"epochs": 4},
                "finetune": {"epochs": 4},
                "open_ratios": [1, 2, 4, 8],
            },
            record_beats=(20, 100),
            records=51,
        ),
    )
}


def merge_config(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict):
            out[key] = merge_config(out[key], value)
        else:
            out[key] = value
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) * n samples lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class AuthRecord:
    path: Path
    segments: list  # what the detector finds, for the one-line-per-beat check
    singles: list  # indices of the beats also sent one by one


@dataclass
class RunState:
    """Everything one benchmark run measures and checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    stage_s: dict[str, list[float]] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    record_ms: list[float] = field(default_factory=list)
    record_beats: int = 0
    beat_ms: list[float] = field(default_factory=list)
    digests: dict[str, set] = field(default_factory=dict)
    summary: dict | None = None

    def op(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    def digest(self, what: str, value: str) -> None:
        self.digests.setdefault(what, set()).add(value)


class Runner:
    """Drives one workload; ``tracer`` (or None) wraps every CLI call."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.w = workload
        self.seed = seed
        self.work = work_dir
        self.out = work_dir / "out"
        self.records_dir = work_dir / "records"
        self.config_path = work_dir / "config.json"
        self.cfg = merge_config(pipeline.default_config_dict(),
                                dict(workload.config, out_dir=str(self.out)))
        self.state = RunState()
        self.tracer = None
        self.records: list[AuthRecord] = []

    # -- stages --------------------------------------------------------

    def cli(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if self.tracer is None:
                code = cli.main(argv)
            else:
                code = self.tracer.call(f"cli.{argv[0]}", cli.main, (argv,), {})
        return code, out.getvalue()

    def stage(self, command: str) -> None:
        t0 = time.perf_counter()
        code, _ = self.cli([command, "--config", str(self.config_path)])
        self.state.stage_s.setdefault(command, []).append(time.perf_counter() - t0)
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0 and command == "synth":
            corpus = self.out / "corpus"
            self.state.digest("corpus", tree_digest(sorted(corpus.iterdir())))
        if code == 0 and command == "finetune":
            reg = authsys.load_registry(self.out / "registry.reg")
            self.state.digest("registry", reg.digest())
        if code == 0 and command == "eval":
            eval_dir = self.out / "eval"
            problems = check_eval_outputs(eval_dir)
            self.state.digest("eval", tree_digest(
                eval_dir / n for n in ("summary.json", "metrics.csv", "embeddings.csv")))
            self.state.summary = json.loads((eval_dir / "summary.json").read_text())
        self.state.op(f"ecgauth {command}", problems)

    # -- set-up --------------------------------------------------------

    def setup(self) -> float:
        """Write the config, synthesize the corpus and generate this seed's
        auth records."""
        t0 = time.perf_counter()
        self.config_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.stage("synth")
        self._write_records()
        dt = time.perf_counter() - t0
        self.state.setup_s.append(dt)
        return dt

    def _record_paths(self) -> list[Path]:
        return [self.records_dir / f"rec_{k:03d}.ecg" for k in range(self.w.records)]

    def _write_records(self) -> None:
        """Half the records re-record enrolled identities with fresh noise,
        half come from identities the registry has never seen."""
        spec = self.cfg["corpus"]
        rng = np.random.default_rng([self.seed, 0x5EED])
        lo, hi = self.w.record_beats
        # the same multiset of lengths for every seed, in a seeded order
        lengths = rng.permutation(np.linspace(lo, hi, self.w.records).round().astype(int))
        self.records_dir.mkdir(parents=True, exist_ok=True)
        paths = self._record_paths()
        for k, (n_beats, path) in enumerate(zip(lengths, paths)):
            if k % 2 == 0:
                sid = int(rng.integers(1, spec["n_enrolled"] + 1))
                morph_rng = np.random.default_rng([self.cfg["seed"], sid])
            else:
                sid = 10_000 + k
                morph_rng = np.random.default_rng([self.seed, sid])
            morph = signals.IdentityMorphology.random(morph_rng)
            morph.noise_std_mv *= spec["noise_scale"]
            morph.hr_jitter_bpm *= spec["jitter_scale"]
            record = signals.synth_ecg(morph, n_beats=int(n_beats), fs=spec["fs"],
                                       seed=[self.seed, k], subject_id=sid)
            signals.write_record(record, path)
        self.state.digest("records", tree_digest(paths))

    def index_records(self) -> None:
        """Segment each record once, outside any timed region."""
        rng = np.random.default_rng([self.seed, 0xBEA7])
        half = self.cfg["corpus"]["half_window"]
        self.records = []
        for path in self._record_paths():
            rec = signals.read_record(path)
            segs = signals.segment_beats(rec, signals.detect_r_peaks(rec), half)
            # a record shorter than the quota sends some of its beats twice
            quota = WARM_BEATS_PER_RECORD + SINGLE_BEATS_PER_RECORD
            picks = rng.choice(len(segs), size=quota, replace=len(segs) < quota)
            self.records.append(AuthRecord(path, segs, [int(i) for i in picks]))

    # -- measured pass -------------------------------------------------

    def run_pass(self) -> float:
        """The three stages with the auth records spread evenly over the
        points where a registry exists: after every stage, and before the
        first one once an earlier pass has left a registry behind. Spreading
        the auth work samples the machine at several moments."""
        t0 = time.perf_counter()
        registry = self.out / "registry.reg"
        first = 0 if registry.exists() else STAGES.index("finetune") + 1
        size = math.ceil(len(self.records) / (len(STAGES) + 1 - first))
        for k in range(len(STAGES) + 1):
            if k:
                self.stage(STAGES[k - 1])
            if k >= first and registry.exists():
                j = k - first
                self.authenticate(self.records[j * size:(j + 1) * size])
        dt = time.perf_counter() - t0
        self.state.pass_s.append(dt)
        return dt

    def authenticate(self, records: list[AuthRecord]) -> None:
        registry = authsys.load_registry(self.out / "registry.reg")
        ids, thr = set(registry.ids), registry.threshold
        st = self.state
        # every slot starts from a collected heap, so a collection that the
        # preceding stage left due does not land in a timed call
        gc.collect()
        for rec in records:
            t0 = call_clock()
            code, out = self.cli(["auth", "--config", str(self.config_path),
                                  str(rec.path)])
            st.record_ms.append(1e3 * (call_clock() - t0))
            st.record_beats += len(rec.segments)
            problems = ([f"exit code {code}"] if code != 0 else
                        check_auth_output(out, rec.segments, ids, thr))
            st.digest(f"auth {rec.path.name}", out)
            if not st.op(f"auth {rec.path.name}", problems):
                continue
            lines = parse_auth_lines(out)
            for k, i in enumerate(rec.singles):
                t0 = call_clock()
                try:
                    decision = authsys.authenticate(registry, rec.segments[i])
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    st.op(f"beat {i} of {rec.path.name}", [repr(exc)])
                    continue
                if k >= WARM_BEATS_PER_RECORD:
                    st.beat_ms.append(1e3 * (call_clock() - t0))
                st.op(f"beat {i} of {rec.path.name}",
                      check_single_decision(decision, lines[i], ids, thr))

    # -- whole runs ----------------------------------------------------

    def clean_work_dir(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)

    def run_untraced(self, seconds: float) -> None:
        """Set-up and passes within ``seconds`` of the start: a pass begins
        only if the median pass and the set-up repeats still due fit in
        what is left (at least MIN_PASSES run regardless)."""
        start = time.perf_counter()
        self.clean_work_dir()
        self.setup()
        self.index_records()
        while True:
            self.run_pass()
            # the set-up repeats go between the passes, so that their median
            # samples the machine at different moments of the run
            if len(self.state.setup_s) < SETUP_REPEATS:
                self.setup()
            due = ((SETUP_REPEATS - len(self.state.setup_s))
                   * statistics.median(self.state.setup_s))
            elapsed = time.perf_counter() - start
            if (len(self.state.pass_s) >= MIN_PASSES
                    and elapsed + statistics.median(self.state.pass_s) + due > seconds):
                break
        while len(self.state.setup_s) < SETUP_REPEATS:
            self.setup()

    def run_traced(self, tracer) -> tuple[float, float, dict[str, float]]:
        """One untraced set-up and pass, then the same traced.

        Returns the untraced and traced wall seconds of set-up plus pass, and
        the untraced seconds of each CLI command."""
        self.clean_work_dir()
        plain = self.setup()
        self.index_records()
        plain += self.run_pass()
        plain_stages = self.stage_totals()
        self.tracer = tracer
        tracer.install(ecgauth)
        try:
            traced = tracer.call("bench.setup", self.setup, (), {})
            traced += tracer.call("bench.pass", self.run_pass, (), {})
        finally:
            tracer.uninstall()
            self.tracer = None
        return plain, traced, plain_stages

    def stage_totals(self) -> dict[str, float]:
        totals = {f"cli.{k}": sum(v) for k, v in self.state.stage_s.items()}
        totals["cli.auth"] = sum(self.state.record_ms) / 1e3
        return totals

    def consistency_problems(self) -> list[str]:
        """Repeats with the same seed must reproduce every artifact exactly."""
        return [f"{what} differs between repeats"
                for what, seen in sorted(self.state.digests.items()) if len(seen) > 1]

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics; 0 where a failed operation left no sample
        (the run is then reported as incorrect)."""
        st = self.state

        def median(values):
            return statistics.median(values) if values else 0.0

        def tail(values, q):
            return percentile(values, q) if values else 0.0

        quality = st.summary["ratios"][0] if st.summary else {}
        auth_s = sum(st.record_ms) / 1e3
        return {
            "setup_s": median(st.setup_s),
            "pretrain_s": median(st.stage_s.get("pretrain")),
            "finetune_s": median(st.stage_s.get("finetune")),
            "eval_s": median(st.stage_s.get("eval")),
            "oscr": quality.get("oscr", 0.0),
            "tnr": quality.get("tnr", 0.0),
            "far": quality.get("far", 0.0),
            "accuracy": quality.get("accuracy", 0.0),
            "auth_beats_per_s": st.record_beats / auth_s if auth_s else 0.0,
            "auth_record_p50_ms": median(st.record_ms),
            "auth_record_p90_ms": tail(st.record_ms, 0.90),
            "auth_beat_p50_ms": median(st.beat_ms),
            "auth_beat_p99_ms": tail(st.beat_ms, 0.99),
        }
