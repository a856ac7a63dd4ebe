"""Closed forms and toy geometry for the training losses.

Small enough to verify by hand: the contrastive loss has exact values on
degenerate batches, the medoid is an actual member of the set, and
prototype probabilities are a softmax over negative squared distances.
"""

import math

import numpy as np

from ecgauth import compute_medoid, prototype_prob
from ecgauth.losses import contrastive_loss_grad

# --- contrastive closed forms ------------------------------------------
# two identical (signal, report) pairs: every similarity is 1, each
# direction is a uniform softmax over 2 candidates -> loss is ln 2
same = np.array([[0.6, 0.8], [0.6, 0.8]])
loss, _, _ = contrastive_loss_grad(same, same)
print(f"identical pairs      : {loss:.12f} "
      f"(ln 2 = {math.log(2):.12f})")

# perfectly aligned orthonormal pairs: the positive dominates every
# negative by e**(1/tau), so the loss is almost exactly zero
eye = np.eye(2)
loss, _, _ = contrastive_loss_grad(eye, eye, tau=0.07)
print(f"orthonormal pairs    : {loss:.2e} "
      f"(temperature 0.07)")

# --- medoid centers ------------------------------------------------------
# the center of each class is the member minimizing summed distance to the
# rest -- robust to the odd far-away beat, unlike the mean
cluster = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2], [5.0, 5.0]])
center = compute_medoid(cluster)
print(f"medoid of cluster    : {center.tolist()} "
      f"(mean would be {cluster.mean(axis=0).round(2).tolist()})")

# --- prototype probabilities ---------------------------------------------
prototypes = np.array([[0.0, 0.0], [3.0, 0.0]])
queries = np.array([[0.1, 0.0], [2.8, 0.1], [1.5, 0.0]])
probs = prototype_prob(queries, prototypes)
for q, p in zip(queries, probs):
    print(f"query {q.tolist()!s:12} -> P(class 0) {p[0]:.4f}  "
          f"P(class 1) {p[1]:.4f}")

