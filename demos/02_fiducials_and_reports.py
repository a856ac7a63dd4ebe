"""Turn a record into fiducial numbers and a one-paragraph text report.

The report is the second modality for contrastive pretraining: a fixed
sentence template carrying R positions, RR intervals, QRS width, SDNN and
RMSSD. Equal features render to equal bytes.
"""

import numpy as np

from ecgauth import (
    IdentityMorphology,
    detect_r_peaks,
    extract_fiducials,
    render_report,
    synth_ecg,
)

morph = IdentityMorphology.random(np.random.default_rng(3))
record = synth_ecg(morph, n_beats=12, fs=250.0, seed=11)

features = extract_fiducials(record, detect_r_peaks(record))
print("fiducials")
print(f"  r peaks        : {np.asarray(features.r_peaks)[:6].tolist()} ...")
print(f"  rr intervals   : {np.round(features.rr_intervals_s, 3).tolist()}")
print(f"  avg qrs width  : {features.avg_qrs_width_s * 1000:.0f} ms")
print(f"  sdnn / rmssd   : {features.sdnn_s:.4f} s / {features.rmssd_s:.4f} s")
print()

report = render_report(features)
print("report")
print(f"  {report}")
