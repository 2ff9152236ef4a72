"""Positivity and structure diagnostics of the discrete operator.

Certifies the symmetrized history matrix as positive semidefinite, prints
the smallest per-level positivity certificate, runs the sign/monotonicity
property suites, and builds the complementary kernel whose product with the
history matrix is the all-ones lower triangle.  ``analyze_operator`` runs
every check and states the verdict ``subdiff analyze`` prints.  Run from
the repository root:

    python3 demos/03_positivity_diagnostics.py
"""
from subdiff import analyze_operator, build_kernel_table, make_graded_mesh, make_r_variable_mesh


def main():
    alpha = 0.3
    for name, mesh in [
        ("graded r=2", make_graded_mesh(1.0, 96, 2.0)),
        ("node-dependent", make_r_variable_mesh(1.0, 96, alpha)),
    ]:
        # one kernel table feeds every check
        report = analyze_operator(build_kernel_table(mesh, alpha))
        psd = report["psd"]
        print(f"{name}: eigenvalues of M + M^T in "
              f"[{psd['min_eigenvalue']:.3e}, {psd['max_eigenvalue']:.3e}]; "
              f"Jacobi-scaled min {psd['scaled_min_eigenvalue']:.3f} "
              f"-> {'PSD' if psd['passed'] else 'NOT PSD'}")
        print(f"  smallest certificate g_k: {report['diagonal_certificate_min']:.3e}")
        print(f"  sign/monotonicity violations: {report['sign_monotonicity_violations']}, "
              f"integral-bound violations: {report['integral_bound_violations']}")
        print(f"  complementary kernel: max |(P M)_kj - 1| = "
              f"{report['complementary_identity_residual']:.2e}, "
              f"min entry {report['complementary_min_entry']:.2e}")
        print(f"  verdict: {'PASS' if report['passed'] else 'FAIL'}\n")


if __name__ == "__main__":
    main()
