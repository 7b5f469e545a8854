"""psiwalk: a classical wave field guiding an overdamped random walker.

The wave field evolves under the Schrodinger equation (split-step Fourier);
a point walker follows the field's log-density gradient with strong white
noise; the walker's position density obeys an equivalent drift-diffusion
equation solved as an independent oracle.
"""

from .version import __version__

from .grids import (
    PERIODIC,
    REFLECTING,
    DensityField,
    Grid,
    WaveField,
    gradient,
)
from .fieldio import read_field, write_field
from .schrodinger import (
    DoubleGaussianParams,
    HamiltonianSpec,
    UnsupportedPropagatorError,
    eigenbasis,
    evolve,
    make_double_gaussian,
    make_packet,
    make_superposition,
)
from .guidance import (
    GuidanceParams,
    drift_field,
    log_density,
    regularized_density,
)
from .langevin import (
    DensitySampler,
    EnsembleResult,
    FirstPassage,
    IntegratorFailure,
    NodeBasinMap,
    PlaneCrossing,
    PointSampler,
    RegionEntry,
    run_ensemble,
    run_first_passage_ensemble,
    substream,
)
from .smoluchowski import FPOperator, StepSizeError, fp_evolve, fp_step, fp_step_implicit
from .analysis import (
    CorrelationStats,
    EscapeTimeEstimate,
    coarsen,
    histogram,
    independence_test,
    kramers_prediction,
    mfpt_estimate,
    total_variation,
)
from .scenarios import RunManifest, ScenarioConfig, run_scenario, validate_config
