"""Slow-rotation almost minimizers on the four-lobe domain.

With the strictly increasing bump every optimal rotation is isolated, yet the
boundary second variation vanishes there.  Rotating the limit state by
lambda = eps^0.4 therefore costs only O(lambda^3/eps) * eps^2 extra energy:
the states are almost minimizers although their rotations sit at distance
lambda from the optimal set, far beyond the sqrt(eps) scale of rigid loads.
"""

import numpy as np

from pressurelab import DomainSpec, MaterialModel, Plan, Problem, build_domain, extend_pressure, quadrant_bump_pressure
from pressurelab.studies import almost_minimizer_scaling

bump = quadrant_bump_pressure("strict")
problem = Problem(mesh=build_domain(DomainSpec.four_lobe(resolution=24)), material=MaterialModel(), pi=bump,
                  extension=extend_pressure(bump, None, 2.2, 1.0))
plan = Plan(grad_tol=1e-10, max_iter=2000, multistart_angles=(0.0, np.pi),
            eps_list=(0.08, 0.04, 0.02, 0.01), seed=1, rotation_grid=512, lambda_exponent=0.4)

report = almost_minimizer_scaling(problem, plan)

print(f"{'eps':>6s} {'lambda':>8s} {'rem*eps/l^3':>12s} {'E/eps^2':>10s} {'gap':>10s} {'dist/lam':>9s}")
for row in report.rows:
    print(f"{row['eps']:6.3f} {row['lambda']:8.4f} {row['remainder_over_target']:12.4f} "
          f"{row['energy_over_eps2']:10.5f} {row['gap_over_eps2']:10.5f} {row['dist_over_lambda']:9.4f}")
print("\nthe remainder ratio stays within a bounded window while the energy gap"
      "\nto the true minimum vanishes: the constructed states are almost minimizers.")
