"""crlab: a numerical laboratory for Fredholm indices of Cauchy-Riemann
operators on cylinders, their spectral flow, operator gluing, and the
dimension bookkeeping of broken configurations."""

from .assemble import DiscreteOperator, assemble
from .dimension import (
    Component,
    ConfigurationGraph,
    OrbitLabel,
    codimension,
    component_dim,
    configuration_dim,
    unparameterized_dim,
)
from .exceptions import CRLabError
from .gluing import GluingConfig, approximate_kernel, glue, stability_constant, verify_additivity
from .indexing import (
    IndexReport,
    analytic_index,
    adjoint_check,
    convergence_study,
    delta_sweep,
    index_of,
    numerical_index,
)
from .loops import (
    LoopOperatorSpec,
    SpectrumReport,
    assemble_loop_operator,
    is_nondegenerate,
    spectral_flow,
    spectrum,
)
from .problems import (
    CRProblem,
    EndSpec,
    GridSpec,
    Truncation,
    build_contact_fiber_cylinder,
    build_plane,
    build_trivial_cylinder,
)

__version__ = "0.1.0"
