"""Anisotropic Trudinger-Moser toolbox.

Finsler gauges and Wulff geometry, convex (anisotropic Schwarz)
symmetrization on grids, subcritical and critical exponential functionals
on radial profiles, and maximizer search with an identity sweep connecting
the two problems.
"""

__version__ = "0.1.0"

from .finsler import (FinslerNorm, GaugeError, wulff_volume,
                      sharp_constant, bipolar_residual, coarea_surface_check,
                      unit_ball_measure)
from .profiles import RadialProfile
from .functional import (FunctionalParams, series_start, phi,
                         lq_norm_radial, dirichlet_energy_radial,
                         grad_norm_radial, atmsc_value, critical_value,
                         normalize_sphere, constraint_scale, aa_bracket,
                         FunctionalOverflowError, ParamError)
from .rearrange import (GridFunction, StepRearrangement, SupportOverflowError,
                        SymmetryError, distribution_function,
                        decreasing_rearrangement, convex_symmetrization,
                        profile_of, rasterize_profile, grid_lq_norm,
                        grid_dirichlet_energy, grid_atmsc_value,
                        hardy_littlewood_check, polya_szego_check, symmetry_gap,
                        equimeasurability_gaps, disc_tolerance, DISC_TOL_COEFF)
from .maximize import (SearchConfig, SearchResult, SweepResult, MaximizerReport,
                       estimate_f, identity_sweep, direct_critical_max,
                       construct_critical_from_subcritical, threshold_check,
                       maximizer_diagnostics)
