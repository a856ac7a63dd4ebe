"""Closed forms and toy geometry for the four training losses.

Small enough to verify by hand: the contrastive loss has exact values on
degenerate batches, the medoid is an actual member of the set, prototype
probabilities are a softmax over negative squared distances, and the
reciprocal-point hinge only pushes samples that sit inside the margin.
"""

import math

import numpy as np

from ecgauth import compute_medoid, contrastive_loss, prototype_prob
from ecgauth.losses import repulsion_loss_grad

# --- contrastive closed forms ------------------------------------------
# two identical (signal, report) pairs: every similarity is 1, each
# direction is a uniform softmax over 2 candidates -> loss is ln 2
same = np.array([[0.6, 0.8], [0.6, 0.8]])
print(f"identical pairs      : {contrastive_loss(same, same):.12f} "
      f"(ln 2 = {math.log(2):.12f})")

# perfectly aligned orthonormal pairs: the positive dominates every
# negative by e**(1/tau), so the loss is almost exactly zero
eye = np.eye(2)
print(f"orthonormal pairs    : {contrastive_loss(eye, eye, tau=0.07):.2e} "
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

# --- reciprocal-point repulsion ------------------------------------------
# each class also learns a reciprocal point ("everything that is not me")
# plus a margin R; enrolled features pay for dimension-averaged squared
# distance beyond R, which keeps them inside a bounded shell around the
# reciprocal and so bounds the region left over for unknowns
# (one enrolled class: reciprocal point (2, 0), margin 1)
reciprocal = np.array([[2.0, 0.0]])
margin = np.array([1.0])
near = np.array([[1.9, 0.0]])      # d^2/dim = 0.005, well inside the margin
far_away = np.array([[-2.0, 0.0]])  # d^2/dim = 8.0, far beyond it
near_loss = repulsion_loss_grad(near, reciprocal, margin)[0]
far_loss = repulsion_loss_grad(far_away, reciprocal, margin)[0]
print(f"repulsion near point : {near_loss:.4f} (within margin, hinge inactive)")
print(f"repulsion far away   : {far_loss:.4f} "
      f"(beyond margin, pulled back toward the shell)")
