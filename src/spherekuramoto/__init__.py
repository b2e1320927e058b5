"""Kuramoto dynamics on spheres.

Simulates the full N-body model on S^(d-1), its Mobius-group-reduced forms,
and the mean-field (infinite population) reduction, and certifies the
geometric structure behind them: orbit confinement, conserved cross-ratios,
the hyperbolic gradient property of the boost flow, and global
synchronization.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    GeometryError,
    MobiusMap,
    boost_apply,
    convert_form,
    cross_ratio,
    hyperbolic_distance,
    identity_map,
    infinitesimal_generator,
    mobius_apply,
    mobius_compose,
    mobius_inverse,
)
from .dynamics import (  # noqa: F401
    IntegrationAbort,
    SimulationError,
    as_weights,
    equal_weights,
    full_rhs,
    integrate_full,
    mean_field_weights,
    order_parameter,
    random_configuration,
    rk4_step,
    sync_metrics,
)
from .reduced import (  # noqa: F401
    ReducedState,
    basepoint_change,
    initial_state,
    integrate_reduced,
    integrate_w,
    reconstruct,
    reduced_rhs,
    w_rhs,
)
from .continuum import (  # noqa: F401
    ContinuumState,
    continuum_rhs,
    hypergeom_f,
    integrate_continuum,
    order_parameter_closed_form,
    poisson_integral_mc,
    poisson_kernel_euclidean,
    poisson_kernel_hyperbolic,
    sample_pushforward,
)
from .gradient import (  # noqa: F401
    LimitReport,
    LinearizationReport,
    PotentialContext,
    classify_limits,
    find_fixed_point,
    flow_rhs,
    hyperbolic_grad,
    potential,
    potential_grad,
    scaled_rhs,
    semiscaled_jacobian,
)
from .complexball import (  # noqa: F401
    complex_boost,
    complex_flow_rhs,
    divergence_from_real,
    hermitian_inner,
)
