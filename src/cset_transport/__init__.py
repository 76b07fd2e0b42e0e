"""Exact and relaxed structure-preserving matching of finite C-sets.

Instances of a finitely presented theory (graphs, symmetric graphs,
simplicial sets, attributed data, ...) can be compared four ways:

* exact homomorphism search (:func:`find_homomorphism`);
* the Markov-morphism feasibility LP, a convex relaxation of the
  homomorphism problem (:func:`markov_feasible`);
* an exact Hausdorff-style metric over short transformations
  (:func:`hausdorff_distance`);
* a Wasserstein-style metric over Markov transformations, computed as a
  linear program (:func:`wasserstein_cset_distance`).
"""

from .theory import (
    BUILTIN_THEORY_NAMES,
    Generator,
    Path,
    TheoryPresentation,
    builtin_theory,
    parse_theory,
    render_theory,
    validate_theory,
)
from .cset import (
    Instance,
    Transformation,
    evaluate_path,
    find_homomorphism,
    instance_from_json,
    instance_to_json,
    is_natural,
    load_instance,
    validate_instance,
)
from .mm import (
    INF,
    MeasureData,
    MetricData,
    counting_measure,
    discrete_metric,
    is_measure_decreasing,
    is_short_map,
    lp_distance,
    shortest_path_metric,
    uniform_measure,
)
from .markov import (
    FiniteKernel,
    JointMeasure,
    MarkovTransformation,
    apply_measure,
    compose_kernels,
    disintegrate,
    embed_function,
    identity_kernel,
    independent_product,
    is_coupling,
    is_deterministic,
    is_product,
    product_measure,
    uniform_kernel,
)
from .lp import LpModel, LpSolution, export_lp, parse_lp, solve
from .transport import (
    OtResult,
    optimal_coupling,
    wasserstein_deterministic,
    wasserstein_kernels,
    wasserstein_measures,
)
from .hausdorff import (
    HausdorffConfig,
    HausdorffResult,
    classical_hausdorff,
    discrete_hausdorff_is_hom,
    hausdorff_distance,
    transformation_weight,
)
from .relax import (
    WassersteinProgram,
    markov_feasibility_lp,
    markov_feasible,
    relaxation_gap,
    wasserstein_cset_distance,
    wasserstein_cset_lp,
)
from . import gallery

__version__ = "0.1.0"
