"""EPR entanglement of the output beams of a driven two-mode optomechanical cavity.

The package evaluates the closed-form adiabatic output model (the
standard-form spectral covariance over a frequency grid, in one batched
pass, and its EOF / squeezing / negativity) and cross-validates it against
exact frequency-domain solutions of the underlying linearized Langevin
systems (3-mode rotating-wave and 6-operator pre-RWA).  ``evaluate`` serves
every model, the closed form included.
"""

from .config import PAPER_DEFAULTS, RunConfig, paper_default_config, parse_config, serialize_config
from .constants import CODATA, PhysicalConstants
from .errors import (BracketError, ConfigError, ConstraintViolated, DegenerateResponse,
                     DomainError, NonConvergent, NoSteadyState, NotSymmetricState,
                     OptoEprError, ParameterError, ParseError, PhysicsError,
                     SignConventionViolated, SingularDrift, UnitError, UnknownKey)
from .langevin import (Covariance4, LinearResponse, adiabatic_response, assemble_covariance,
                       compare_models, evaluate, full6_solve, intracavity_occupation,
                       log_negativity, rwa3_solve, standard_form_reduce)
from .params import (DriveSpec, PhysicalParams, RegimeReport, amplitude_to_power,
                     detunings, eta_from_geometry, normal_mode_drives, power_to_amplitude,
                     thermal_occupancy, validate_regime)
from .spectrum import OptimumD, StandardForm, eof, optimum_d, squeezing_db
from .steady_state import (DerivedParams, amplitude_to_drive, operating_point_params,
                           retuned_d, solve_steady_state, solve_steady_states,
                           steady_state_residual)
from .sweeps import (SweepResult, SweepSpec, default_omega_grid, find_optimum_d_numeric,
                     peak_statistics, run_sweep, sensitivity_analysis)

__version__ = "0.1.0"
