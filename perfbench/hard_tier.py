"""Print the ablation table of the train-hard tier (one-off, about a minute).

Run from the root of a checkout:

    python3 perfbench/hard_tier.py

It trains the train-hard config once per ablation variant (pretraining, then
each fine-tuning loss term switched off) and prints
``pipeline.format_ablation_table``. The benchmark runs never call it; it is
the unsaturated baseline for deciding whether the reciprocal-point geometry
earns its place.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]

from ecgauth import pipeline  # noqa: E402

from workloads import WORKLOADS, merge_config  # noqa: E402


def main() -> int:
    tree = merge_config(pipeline.default_config_dict(), WORKLOADS["train-hard"].config)
    rows = pipeline.run_ablations(pipeline.config_from_dict(tree))
    sys.stdout.write(pipeline.format_ablation_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
