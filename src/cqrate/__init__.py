"""cqrate: entropic quantities, constrained channel optimization and
rate-region geometry for distributed compression of classical-quantum
sources."""

__version__ = "0.1.0"

from .codes import (  # noqa: F401
    BlockCode,
    DecouplingReport,
    FidelityReport,
    average_fidelity,
    decoupling_cmi,
    delta_n_eps,
    identity_code,
    load_code,
    truncation_code,
)
from .idelta import (  # noqa: F401
    IdeltaCurve,
    IdeltaResult,
    OptimizerOptions,
    apply_channel,
    idelta_curve,
    optimize_I0_minus,
    oracle_grid,
)
from .qcore import (  # noqa: F401
    DensityOperator,
    Isometry,
    binary_entropy,
    conditional_mutual_information,
    mutual_information,
    operator_norm,
)
from .reference import source_a, source_b, source_c  # noqa: F401
from .region import (  # noqa: F401
    HalfPlane,
    RatePoint,
    RateRegion2D,
    dw_point,
    inner_bound_region,
    markov_interpolation,
    merging_point,
    outer_bound_region,
    qsr_point,
    region_contains,
    region_vertices,
)
from .source import (  # noqa: F401
    CqSource,
    EntropicProfile,
    GenericityReport,
    entropic_profile,
    genericity_report,
    load_source,
    transfer_operators,
)
