"""crflow: a numerical laboratory for the prescribed Webster scalar curvature
flow on the CR sphere S^{2n+1}.

Layers:
  geometry        Cayley chart, Heisenberg group, U(n+1,1) automorphisms
  spectral        bigraded-harmonic basis, quadrature, sub-Laplacian
  conformal       pullback factors and bubble fields
  flow            curvature operator, energies, RKC2 flow with diagnostics
  normalization   center-of-mass automorphisms and the shadow of a state
  constants       the six bubble-expansion constants in closed form, with
                  chart quadrature and Monte Carlo as cross-checks
  morse           exact hypothesis gate (counts, k-system, degree, ratio test)
  cli             `crflow run | constants | morse | bubble | selftest`
"""

from .conformal import bubble, pullback_factor
from .constants import (ConstantEstimate, all_constants, constant,
                        monte_carlo_constant, quadrature_constant)
from .errors import (BudgetExceeded, ConfigError, CRFlowError,
                     DegenerateDenominator, IndexOutOfRange, NoConvergence,
                     NonConvergentQuadrature, NonPositiveFactor,
                     NonPositiveMin, NonPositiveScale, PoleSingularity,
                     PositivityLoss, StepRejected, TruncationLoss)
from .flow import (DiagnosticsRecord, FlowConfig, FlowState, RunResult,
                   Termination, alpha, base_curvature, beta_threshold,
                   center_of_mass, diagnostics, energy, energy_f,
                   mass_concentration, run, step, volume_renormalize)
from .geometry import (CRAutomorphism, cayley_forward_xy, cayley_inverse_xy,
                       delta_xy, dilate_xy, translate_xy, volume_density_xy)
from .hquad import heisenberg_integral, sphere_volume
from .morse import (CriticalPoint, GateReport, MorseData, counts, degree_sum,
                    sbc_check, solve_k, theorem_gate)
from .normalization import (CenteringResult, find_centering,
                            ideal_bubble_shadow, shadow, shadow_deficit_ratio)
from .spectral import (Basis, Field, build_basis, horizontal_grad_sq,
                       integrate, sub_laplacian)

__version__ = "0.1.0"
