"""PSD margin probe: how close admissible meshes come to an indefinite operator.

``check_psd`` judges the smallest eigenvalue of the Jacobi-scaled
``D^-1/2 (M + M^T) D^-1/2`` (``scaled_min_eigenvalue``), which has the sign
pattern of ``M + M^T`` and an O(1) spectrum.  This probe minimizes it over
the 23 step ratios of a 24-level mesh, each ratio in ``[eta, 3]``, for
alpha 0.1, 0.5 and 0.9: Powell with bounds, two seeded random starts of 1500
evaluations each.  A minimum well above zero is a recorded margin for the
paper's threshold rather than a pass/fail bit.  Run from the repository root
(about 10 s):

    python3 demos/07_psd_margin_probe.py
"""
import numpy as np
from scipy.optimize import minimize

from subdiff import TimeMesh, admissibility_thresholds, build_kernel_table, check_psd

LEVELS = 24
STARTS = 2
MAX_EVALUATIONS = 1500
SEED = 20261018


def mesh_from_ratios(ratios):
    """Mesh on [0, 1] whose step ratios ``tau_k / tau_{k-1}`` are ``ratios``."""
    steps = np.cumprod(np.concatenate([[1.0], ratios]))
    nodes = np.concatenate([[0.0], np.cumsum(steps)])
    return TimeMesh(nodes / nodes[-1])


def scaled_margin(ratios, alpha):
    table = build_kernel_table(mesh_from_ratios(ratios), alpha, backend="closed")
    return check_psd(table).scaled_min_eigenvalue


def main():
    _, eta = admissibility_thresholds()
    bounds = [(eta, 3.0)] * (LEVELS - 1)
    rng = np.random.default_rng(SEED)
    for alpha in (0.1, 0.5, 0.9):
        best = None
        for _ in range(STARTS):
            start = rng.uniform(eta, 3.0, LEVELS - 1)
            result = minimize(scaled_margin, start, args=(alpha,), method="Powell",
                              bounds=bounds, options={"maxfev": MAX_EVALUATIONS})
            if best is None or result.fun < best.fun:
                best = result
        print(f"alpha={alpha}: min scaled eigenvalue {best.fun:.3f} at ratios in "
              f"[{float(np.min(best.x)):.3f}, {float(np.max(best.x)):.3f}] "
              f"(eta = {eta:.6f}); all-eta mesh "
              f"{scaled_margin(np.full(LEVELS - 1, eta), alpha):.3f}")


if __name__ == "__main__":
    main()
