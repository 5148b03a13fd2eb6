"""Sweep the finite-strain minimizations in eps and watch the rescaled minima
approach the linearized limit.

For the constant-pressure disk the rescaled minimum behaves like
min_E0 + O(eps), and the extracted displacements converge to the limit
minimizer in the discrete Sobolev norm; the determinant and gradient
compactness diagnostics settle at their scaling constants.
"""

from pressurelab import DomainSpec, MaterialModel, Plan, Problem, build_domain, builtin_pressure, extend_pressure
from pressurelab.studies import gamma_study

const = builtin_pressure("constant", {"value": 0.1})
problem = Problem(mesh=build_domain(DomainSpec.disk(1.0, 24)), material=MaterialModel(), pi=const,
                  extension=extend_pressure(const, None, 1.1, 0.5))
plan = Plan(grad_tol=1e-12, max_iter=5000, multistart_angles=(0.0,),
            eps_list=(0.08, 0.04, 0.02, 0.01), seed=1, rotation_grid=256)

report = gamma_study(problem, plan)

print(f"limit value  min_E0 = {report.limits['min_E0']:.8f}  at alpha0 = {report.limits['alpha0']}")
print(f"{'eps':>6s} {'E/eps^2':>12s} {'gap':>10s} {'|u-u0|':>10s} {'det diag':>10s} {'grad diag':>10s} {'iters':>6s}")
for row in report.rows:
    print(f"{row['eps']:6.3f} {row['energy_over_eps2']:12.8f} {row['gap_to_min_E0']:10.2e} "
          f"{row['u_dist_w1p']:10.2e} {row['det_dev_sq_over_eps2']:10.5f} "
          f"{row['gp_over_eps2']:10.5f} {row['iterations']:6d}")
print(f"\nscaling constant ratio across the sweep: {report.limits['scaling_constant_ratio']:.4f}")
