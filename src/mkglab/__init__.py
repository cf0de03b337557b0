"""mkglab: a numerical laboratory for Maxwell-Klein-Gordon asymptotics.

Spherically reduced Lorenz-gauge evolution of a charged scalar field with
quantitative checks of the late-time structure: the charge-corrected
radiation field at null infinity, the Coulomb limit of r A_L, the
logarithmically corrected bad component A_Lbar, interior limits t A -> K(y),
and the weak-null behaviour of the associated asymptotic system.
"""

from .config import RunConfig, default_config, parse_config, run_config_hash
from .core import FieldState, Weights, current, field_strength, jbracket
from .data_builder import (CutoffChi, FreeData, GaussianProfile, assemble_state,
                           build_admissible, compute_charge, solve_a0,
                           subtract_charge_tail, weighted_norm)
from .evolution import (EvolutionUnstable, MonitorLog, ObservationPlan,
                        SchemeParams, charge_monitor, energy_monitor, evolve,
                        frame_identity_residual, lorenz_residual, step)
from .grid import RadialGrid
from .interior import (AsymSource, CutoffChi0, K_mu, angular_kernel_integral,
                       chain_difference_report, eval_A_ex, eval_A_ex_infty,
                       interior_limit_check)
from .null_extraction import (EnvelopeSpec, RadiationTable, RaySample,
                              build_radiation_table, compute_J_asym,
                              envelope_check, extract_AL_limit, extract_phi0,
                              mod_ALbar, phase_slope_fit, sample_ray)
from .pipeline import RunReport, convergence_study, run_pipeline
from .wave_oracle import (RadialSource, dalembert_free, kirchhoff_eval,
                          solve_inhom_radial, verify_decay_bound)

__version__ = "0.1.0"
