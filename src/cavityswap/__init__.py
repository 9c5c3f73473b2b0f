"""Simulation and analysis of parametric frequency conversion between two
dissipative cavity modes coupled by a flux-pumped element.

The package is organised bottom-up:

* :mod:`cavityswap.units` -- unit-suffixed text values <-> internal SI,
* :mod:`cavityswap.core` -- modes, the pump drive and its envelope, field state,
* :mod:`cavityswap.textio` -- the two text formats: CSV files of ``%.17g``
  cells and ``key = value`` files,
* :mod:`cavityswap.fluxmap` -- the coupler-pull flux modulation curves
  and the pump-power to coupling-rate conversion,
* :mod:`cavityswap.dynamics` -- RK4 integration of the coupled-mode
  equations, the eigenvalues of the constant-pump swap and the closed
  forms read off them (swap frequency, swap calibration), their exact
  solutions under a constant pump or a drive tone, and the steady-state
  reflection spectrum,
* :mod:`cavityswap.sequences` -- pulse-sequence files and their execution,
* :mod:`cavityswap.analysis` -- swap-frequency pencil, decay/phase fits, dwell
  times and the loss-corrected efficiency,
* :mod:`cavityswap.experiments` -- config-driven measurement runners
  (also exposed through the ``cavityswap`` command-line tool).
"""

from .analysis import (DegenerateFitError, FitResult, NoOscillationError,
                       dwell_times, fit_exponential_decay, fit_phase_slope,
                       loss_corrected_efficiency, oscillation_frequency)
from .core import (ComplexAmplitudePair, CouplerState, ModeParams, PumpDrive,
                   ValidationError, mode_params_from_q)
from .dynamics import (CalibrationError, ConvergenceError, DriveTone,
                       IntegrationDivergedError, ResolutionError, SimConfig,
                       SingularSteadyStateError, TraceRecord, calibrate_swap_time,
                       integrate, integrate_checked, max_step, propagate_load,
                       propagate_swap, rabi_frequency, reflection_spectrum,
                       swap_eigen, swap_frequency)
from .fluxmap import (DEFAULT_FLUX_CALIB, CouplerPullCurve,
                      DegenerateBiasWarning, calibrated_curves, coupling_rate,
                      flux_for_pump_power, max_slope_bias, pump_power_to_flux)
from .sequences import (PulseSequence, Segment, SequenceSemanticError,
                        SequenceSyntaxError, demodulate, emit_sequence,
                        parse_sequence, run_sequence, run_sequence_checked)
from .units import Quantity, UnitError, format_quantity, parse_quantity

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
