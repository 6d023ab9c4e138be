"""Mixed operators between L^p direct integrals on finite atomic
measure spaces.

A section f over the target atoms is sent to (s, t) -> P(s, t) f(t) on
a weighted relation; the package computes the exact operator norm of
that map through a decoupling reduction, evaluates the boundedness
criteria (general relation, graphs of injective maps, two-sided norm
bounds, and mixed-norm composition operators), and cross-validates
criteria against sampling and grid oracles.
"""

from .boundedness import (
    BoundednessReport,
    criterion_general_result,
    criterion_graph_result,
    criterion_uniform_bounds,
    exact_norm_decoupled,
    oracle_norm_sampling,
    phi_derivative,
    phi_value,
    sandwich_report,
    section_ratios,
)
from .errors import (
    DimensionMismatchError,
    HypothesisViolationError,
    InvalidExponentError,
    MissingPairError,
    MixedOpError,
    NonFiniteResultError,
    NotInjectiveError,
    SandwichViolationError,
    ScenarioError,
    SliceRangeError,
    UnknownAtomError,
    UnsupportedExponentsError,
)
from .fibers import (
    INF,
    FiberFamily,
    NormSpec,
    Section,
    direct_integral_norm,
    fiber_norm,
)
from .kernels import (
    EXACT,
    LOWER_BOUND,
    NormResult,
    OperatorKernel,
    apply_mixed,
    direction_grid_oracle,
    effectiveness_objective,
    fiber_effectiveness,
    kappa,
    matrix_norm_objective,
    matrix_operator_norm,
    output_norm,
    pointwise_norm_aggregate,
)
from .measure import (
    AtomMap,
    DensityFn,
    FiniteMeasureSpace,
    WeightedRelation,
    graph_relation,
    integrate_change_of_variables,
    marginal_onto_T,
    pushforward_volume_derivative,
    radon_nikodym,
)
from .mixedcomp import (
    MixedDomain,
    SplitMapping,
    criterion_mixed_composition,
    direct_integral_instance,
    grid_section,
    mixed_as_direct_integral,
    mixed_norm,
    slice_volume_derivatives,
)
from .scenario import Check, Scenario, load_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
