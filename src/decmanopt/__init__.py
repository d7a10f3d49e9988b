"""Decentralized optimization over compact matrix submanifolds.

Gossip consensus with nearest-point projection, decentralized projected
Riemannian gradient descent (DPRGD), and the gradient-tracking variant
(DPRGT), together with the PCA / generalized eigenvalue / low-rank matrix
completion testbeds and an experiment harness with reproducible traces.
"""

from .algorithms import (
    RunConfig,
    StepSchedule,
    Trace,
    init_system,
    run,
)
from .errors import (
    ConfigError,
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
    subspace_distance,
    write_trace,
)
from .network import (
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
)

__version__ = "0.1.0"
