"""Positivity and structure diagnostics of the discrete operator.

Certifies the symmetrized history matrix as positive semidefinite, prints
the per-level positivity certificate, runs the sign/monotonicity property
suites, and builds the complementary kernel whose product with the history
matrix is the all-ones lower triangle.  Run from the repository root:

    python3 demos/03_positivity_diagnostics.py
"""
import numpy as np

from subdiff import (
    build_complementary_kernel,
    build_kernel_table,
    check_properties_P,
    check_properties_Q,
    check_psd,
    make_graded_mesh,
    make_r_variable_mesh,
)


def main():
    alpha = 0.3
    for name, mesh in [
        ("graded r=2", make_graded_mesh(1.0, 96, 2.0)),
        ("node-dependent", make_r_variable_mesh(1.0, 96, alpha)),
    ]:
        # one kernel table feeds every check
        table = build_kernel_table(mesh, alpha)
        report = check_psd(table)
        print(f"{name}: eigenvalues of M + M^T in "
              f"[{report.min_eigenvalue:.3e}, {report.max_eigenvalue:.3e}] "
              f"-> {'PSD' if report.passed else 'NOT PSD'}")
        print(f"  certificate g_k > 0 for all k: {bool(np.all(report.g > 0.0))} "
              f"(min {float(np.min(report.g)):.3e})")

        p_viol = check_properties_P(table)
        q_viol = check_properties_Q(table)
        print(f"  sign/monotonicity violations: {len(p_viol)}, "
              f"integral-bound violations: {len(q_viol)}")

        comp = build_complementary_kernel(table)
        product = comp @ table.matrix()
        rows, cols = np.tril_indices(table.n)
        residual = float(np.max(np.abs(product[rows, cols] - 1.0)))
        print(f"  complementary kernel: max |(P M)_kj - 1| = {residual:.2e}, "
              f"min entry {float(np.min(comp[rows, cols])):.2e}\n")


if __name__ == "__main__":
    main()
