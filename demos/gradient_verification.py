"""
Verifying the analytic gradients
================================

Every gradient block of the joint objective (hash weights/bias, classifier
weights/bias, and the per-sample feature gradient handed to an upstream
extractor) is checked against central finite differences. Sign codes are
frozen at the evaluation point, matching their treatment in the analytic
derivation.

    python3 demos/gradient_verification.py
"""

import numpy as np

from jointhash import (
    Hyperparams,
    ModelParams,
    gradient_check,
    gradient_check_suite,
)

# ---------------------------------------------------------------------------
# One configuration in detail: small dimensions make the finite-difference
# sweep cheap, and the per-block errors show where each derivative flows.
rng = np.random.default_rng(7)
params = ModelParams(
    hash_weights=rng.normal(0, 0.5, (4, 6)),
    hash_bias=rng.normal(0, 0.5, 4),
    cls_weights=rng.normal(0, 0.5, (3, 4)),
    cls_bias=rng.normal(0, 0.5, 3),
)
features = rng.normal(size=(5, 6))
labels = rng.integers(0, 3, 5)

errors = gradient_check(features, labels, params,
                        Hyperparams(eta=0.2, beta=25.0))
print("relative error per gradient block (central differences, h=1e-5):")
for block, err in errors.items():
    print(f"  {block:<14} {err:.3e}")

# ---------------------------------------------------------------------------
# The full randomized suite cycles eta through {0, 0.2, 1} and beta through
# {0, 25} so both loss components and their interaction get exercised.
results = gradient_check_suite(seed=0, count=20)
worst = float(np.max([r.worst for r in results]))  # a NaN fails the check
print(f"\n20 random configurations: worst relative error {worst:.3e}")
print("PASS" if worst < 1e-4 else "FAIL", "(tolerance 1e-4)")
