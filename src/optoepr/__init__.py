"""EPR entanglement of the output beams of a driven two-mode optomechanical cavity.

The package evaluates the closed-form adiabatic output model (the
standard-form spectral covariance over a frequency grid, in one batched
pass, and its EOF / squeezing / negativity) and cross-validates it against
exact frequency-domain solutions of the underlying linearized Langevin
systems (3-mode rotating-wave and 6-operator pre-RWA).  ``evaluate`` serves
every model, the closed form included.

Importing the package loads ``config``, ``errors``, ``params``,
``steady_state`` and ``spectrum``.  The names it re-exports from
``langevin`` (the exact models) and ``sweeps`` (sweeps, peak statistics and
the searches) load their module on first use (PEP 562), as do
``optoepr.langevin`` and ``optoepr.sweeps`` themselves; each resolved name
is then bound here like an imported one.  So a command line that needs
neither, such as ``optoepr derive``, never loads them.
"""

import importlib
import types

from .config import PAPER_DEFAULTS, RunConfig, paper_default_config, parse_config, serialize_config
from .errors import (BracketError, ConfigError, ConstraintViolated, DegenerateResponse,
                     DomainError, NonConvergent, NoSteadyState, NotSymmetricState,
                     OptoEprError, ParameterError, ParseError, PhysicsError,
                     SignConventionViolated, SingularDrift, UnitError, UnknownKey)
from .params import (DriveSpec, PhysicalParams, RegimeReport, amplitude_to_power,
                     detunings, eta_from_geometry, normal_mode_drives, power_to_amplitude,
                     thermal_occupancy, validate_regime)
from .spectrum import OptimumD, StandardForm, eof, optimum_d, squeezing_db
from .steady_state import (DerivedParams, amplitude_to_drive, operating_point_params,
                           retuned_d, solve_steady_state, steady_state_residual)

# Each name resolved on first use, by the module that defines it (a module's
# own name resolves to the module).
_LAZY = {
    **dict.fromkeys(("langevin", "Covariance4", "LinearResponse", "adiabatic_response",
                     "assemble_covariance", "compare_models", "evaluate", "full6_solve",
                     "intracavity_occupation", "log_negativity", "rwa3_solve",
                     "standard_form_reduce"), "langevin"),
    **dict.fromkeys(("sweeps", "SweepResult", "SweepSpec", "default_omega_grid",
                     "find_optimum_d_numeric", "peak_statistics", "run_sweep",
                     "sensitivity_analysis"), "sweeps"),
}

# The public names, bound above or resolved on first use, modules aside.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__ += [name for name, module in _LAZY.items() if name != module]

__version__ = "0.1.0"


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    globals()[name] = value = module if name == module_name else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
