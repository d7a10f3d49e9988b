"""Decentralized optimization over compact matrix submanifolds.

Gossip consensus with nearest-point projection, decentralized projected
Riemannian gradient descent (DPRGD), and the gradient-tracking variant
(DPRGT), together with the PCA / generalized eigenvalue / low-rank matrix
completion testbeds and an experiment harness with reproducible traces.
"""

from .algorithms import (
    AgentSystem,
    RunConfig,
    StepSchedule,
    Trace,
    consensus_step,
    dprgd_step,
    dprgt_step,
    init_system,
    init_tracker,
    run,
)
from .errors import (
    ConfigError,
    FormatError,
    InvalidInputError,
    SingularityError,
    TubeViolationError,
)
from .manifolds import (
    ManifoldSpec,
    check_projection_lipschitz,
    generalized_stiefel,
    stiefel,
)
from .metrics import (
    TraceRecord,
    consensus_error,
    induced_mean,
    quadratic_upper_bound_probe,
    stationarity,
    subspace_distance,
    write_trace,
)
from .network import (
    Graph,
    MixingMatrix,
    build_graph,
    consensus_radius_t,
    metropolis_weights,
    mix,
)
from .problems import (
    GevpProblem,
    GroundTruth,
    LrmcProblem,
    PcaProblem,
    gen_gevp_data,
    gen_lrmc_data,
    gen_pca_data,
    load_dataset,
    load_matrix,
    save_dataset,
    save_matrix,
)

__version__ = "0.1.0"
