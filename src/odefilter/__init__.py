"""Probabilistic ODE solving by Kalman filtering on integrated-Wiener priors.

The solver treats an initial value problem as sequential Gaussian inference:
an integrated-Wiener-process prior over the solution and its derivatives is
conditioned, step by step, on derivative observations manufactured by
evaluating the right-hand side at the current prediction.  The result is a
calibrated Gaussian posterior over the whole solution rather than a point
estimate, at a cost comparable to a classic multistep method.
"""

from .analysis import (
    OrderFit,
    SteadyState,
    amplification_matrix,
    convergence_order,
    nordsieck_gains,
    rk_starter_q4,
    stability_scan,
    starter_coefficients,
    steady_state,
    trapezoid_oracle,
)
from .bench import (
    BenchRecord,
    CalibrationTable,
    emit,
    error_calibration,
    run_benchmark,
)
from .filtering import (
    GaussState,
    SolutionPath,
    interpolate,
    predict,
    sample_posterior,
    smooth,
    update,
)
from .priors import (
    discrete_transition,
    nordsieck_qbar,
    pascal_matrix,
)
from .problems import (
    available_problems,
    get_problem,
    load_problem_file,
    local_errors,
    reference_solution,
)
from .solver import (
    IvpProblem,
    SolveResult,
    SolverConfig,
    StepSizeUnderflowError,
    initialize,
    solve,
)
from .stepcontrol import (
    StepReport,
    estimate_sigma2,
    global_error_factor,
    local_error_test,
    next_step_size,
)

__version__ = "0.1.0"
