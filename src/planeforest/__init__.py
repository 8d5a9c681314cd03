"""Random plane forests with prescribed degree sequences and their Brownian limits."""

from .degseq import (
    DegreeSequence,
    EmpiricalDist,
    degree_vector,
    empirical,
    geometric_profile,
    limit_sigma,
    make_degree_sequence,
    validate,
)
from .forest_codec import (
    MarkedCyclicForest,
    PlaneForest,
    PlaneTree,
    bridge_from_marked_tree,
    count_forests,
    count_mcf,
    dfw_decode,
    dfw_encode,
    enumerate_forests,
    enumerate_mcfs,
    forest_to_mcf,
    marked_tree_from_bridge,
    mcf_from_walk,
    mcf_preimages,
    walk_from_mcf,
)
from .lattice_paths import (
    CodingWalk,
    FirstPassageBridge,
    LatticeBridge,
    LatticePath,
    cyclic_shift,
    is_first_passage,
    rotation_index,
    split_at_passage_times,
    walk_from_degrees,
)
from .limit_sim import (
    ranked_excursions,
    reflect_at_min,
    sample_limit_vector,
    sample_tau_exact,
    simulate_to_hit,
    tau_cdf,
    tau_density,
    uncensored_limit_draws,
)
from .realtree import (
    CodingFunction,
    FiniteMetricSpace,
    coding_pseudometric,
    contour_function,
    first_visit_times,
    metric_snapshot,
    tree_graph_metric,
)
from .sampler import (
    replicates,
    rng_from_seed,
    sample_forest,
    sample_mcf,
    shuffle_degrees,
    substream,
    walk_statistics,
)
from .verify import (
    ExperimentReport,
    experiment_concentration,
    experiment_degrees,
    experiment_largest_marked,
    experiment_tau,
    experiment_tree_sizes,
    experiment_walk,
    ks_one_sample,
    ks_two_sample,
)

__version__ = "0.1.0"
