"""Output checks on what ecgauth writes and prints.

Each check returns a list of problems; an empty list means the output passed.
The benchmark counts an operation as failed when its check reports anything.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

_AUTH_LINE = re.compile(
    r"beat=(\d+) r_index=(\d+) decision=(accepted|rejected) id=(-?\d+) prob=([0-9.]+)$"
)
_CURVE_HEADER = "delta,ccr,fpr,far,tnr"
# tolerance of the OSCR oracle in the acceptance tests
_AREA_TOL = 1e-12
# decision lines print probabilities with 6 decimals
_PRINTED_TOL = 1e-6


def parse_auth_lines(text: str):
    """[(beat, r_index, accepted, id, prob)] or None if any line is malformed."""
    rows = []
    for line in text.splitlines():
        m = _AUTH_LINE.match(line)
        if m is None:
            return None
        rows.append((int(m[1]), int(m[2]), m[3] == "accepted", int(m[4]), float(m[5])))
    return rows


def check_auth_output(text, segments, ids, threshold) -> list[str]:
    """One well-formed decision line per detected beat, in beat order."""
    rows = parse_auth_lines(text)
    if rows is None:
        return ["malformed decision line"]
    if len(rows) != len(segments):
        return [f"{len(rows)} decision lines for {len(segments)} detected beats"]
    problems = []
    for k, ((beat, r_index, accepted, pid, prob), seg) in enumerate(zip(rows, segments)):
        if beat != k or r_index != seg.r_index:
            problems.append(f"line {k}: beat {beat} at {r_index}, expected {seg.r_index}")
        if pid not in ids:
            problems.append(f"line {k}: id {pid} is not enrolled")
        if not 0.0 < prob <= 1.0:
            problems.append(f"line {k}: probability {prob} outside (0, 1]")
        if (prob > threshold + _PRINTED_TOL and not accepted) or (
                prob < threshold - _PRINTED_TOL and accepted):
            problems.append(f"line {k}: decision disagrees with threshold")
    return problems


def check_single_decision(decision, line, ids, threshold) -> list[str]:
    """A single-beat decision is valid and agrees with the record's batch line."""
    problems = []
    prob = decision.max_prob
    if not 0.0 < prob <= 1.0:
        problems.append(f"probability {prob} outside (0, 1]")
    if decision.predicted_id not in ids:
        problems.append(f"id {decision.predicted_id} is not enrolled")
    if decision.accepted != (prob >= threshold):
        problems.append("decision disagrees with threshold")
    _, _, _, line_id, line_prob = line
    if decision.predicted_id != line_id or abs(prob - line_prob) > _PRINTED_TOL:
        problems.append(f"single beat ({decision.predicted_id}, {prob}) differs "
                        f"from batch line ({line_id}, {line_prob})")
    return problems


def trapezoid_area(fpr, ccr) -> float:
    """OSCR area as the documented trapezoid over (FPR, CCR) plus (0, 0)."""
    points = sorted(zip(fpr, ccr)) + [(0.0, 0.0)]
    points.sort()
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def _check_curve(ratio, lines) -> tuple[list[str], float | None]:
    where = f"ratio {ratio}"
    if len(lines) < 3 or lines[0] != _CURVE_HEADER or not lines[-1].startswith("oscr="):
        return [f"{where}: malformed curve block"], None
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    delta, ccr, fpr, far, tnr = (list(col) for col in zip(*rows))
    problems = []
    if any(b <= a for a, b in zip(delta, delta[1:])):
        problems.append(f"{where}: thresholds not strictly increasing")
    for name, col in (("ccr", ccr), ("fpr", fpr), ("far", far)):
        if any(b > a for a, b in zip(col, col[1:])):
            problems.append(f"{where}: {name} rises with the threshold")
    if any(b < a for a, b in zip(tnr, tnr[1:])):
        problems.append(f"{where}: tnr falls with the threshold")
    if any(not 0.0 <= v <= 1.0 for row in rows for v in row):
        problems.append(f"{where}: value outside [0, 1]")
    if any(abs(t - (1.0 - f)) > _AREA_TOL for t, f in zip(tnr, fpr)):
        problems.append(f"{where}: tnr != 1 - fpr")
    area = float(lines[-1][len("oscr="):])
    if abs(area - trapezoid_area(fpr, ccr)) > _AREA_TOL:
        problems.append(f"{where}: oscr={area!r} differs from the recomputed trapezoid")
    return problems, area


def check_eval_outputs(eval_dir) -> list[str]:
    """metrics.csv curves are monotone and integrate to their oscr= lines,
    and summary.json agrees with them."""
    eval_dir = Path(eval_dir)
    summary = json.loads((eval_dir / "summary.json").read_text(encoding="utf-8"))
    text = (eval_dir / "metrics.csv").read_text(encoding="utf-8")
    blocks = [b.strip("\n").splitlines()
              for b in re.split(r"^(?=ratio=)", text, flags=re.M) if b]
    problems = []
    if not 0.0 < summary["threshold"] < 1.0:
        problems.append(f"threshold {summary['threshold']} outside (0, 1)")
    if len(blocks) != len(summary["ratios"]):
        return problems + [f"{len(blocks)} curve blocks for "
                           f"{len(summary['ratios'])} ratios"]
    for block, entry in zip(blocks, summary["ratios"]):
        if block[0] != f"ratio={entry['ratio']}":
            problems.append(f"curve block {block[0]!r} for ratio {entry['ratio']}")
            continue
        found, area = _check_curve(entry["ratio"], block[1:])
        problems += found
        if area is not None and area != entry["oscr"]:
            problems.append(f"ratio {entry['ratio']}: summary oscr {entry['oscr']!r} "
                            f"!= metrics.csv {area!r}")
        for key in ("accuracy", "oscr", "tnr", "far"):
            if not 0.0 <= entry[key] <= 1.0 or math.isnan(entry[key]):
                problems.append(f"ratio {entry['ratio']}: {key} outside [0, 1]")
    return problems


def tree_digest(paths) -> str:
    """SHA-256 over the names and bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
