"""Tube-chart toolkit: reconstruct connections and semigeodesic metrics
from hypersurface data and prescribed curvature, verify the results with
a forward curvature oracle, and test chart properties geodesically."""

from .chart_check import (
    Curve,
    geodesic_shoot,
    lemma1_check,
    pre_semigeodesic_residual,
    semigeodesic_check,
    unit_speed_residual,
)
from .config import MODES, RunConfig, Tolerances, load_config, validate_for_mode
from .connection_recon import (
    ConnectionCurvatureSpec,
    HypersurfaceConnectionData,
    reconstruct_connection,
    stage1_integrate,
    stage2_integrate,
)
from .curvature import (
    DEGENERACY_TOL,
    ConnectionField,
    CurvatureTube,
    MetricField,
    christoffel_from_metric,
    curvature04_semigeo,
    curvature13,
    lower_and_check_identity,
)
from .errors import (
    ConfigError,
    DegenerateMetric,
    EvalError,
    FieldSyntaxError,
    GridTooCoarse,
    InvalidInit,
    InvalidSpec,
    LeftDomain,
    NotSemigeodesic,
    OutOfDomain,
    SemigeoError,
    UnknownSymbol,
    VariableOutOfRange,
)
from .expr import eval_field_on, parse_field
from .fd import fd_partial, fd_second, fd_transverse
from .grid_field import (
    ChartSpec,
    ExpressionField,
    TensorTube,
    TubeGrid,
    build_grid,
    interpolate,
    write_curve_dump,
    write_tensor_dump,
)
from .metric_recon import (
    HypersurfaceMetricData,
    MetricCurvatureSpec,
    reconstruct_metric,
)
from .ode import GuardConfig, MarchResult, ReconstructionReport, rk4_march, rk4_step

__version__ = "0.1.0"

__all__ = [
    "ChartSpec",
    "ConfigError",
    "ConnectionCurvatureSpec",
    "ConnectionField",
    "Curve",
    "CurvatureTube",
    "DEGENERACY_TOL",
    "DegenerateMetric",
    "EvalError",
    "ExpressionField",
    "FieldSyntaxError",
    "GridTooCoarse",
    "GuardConfig",
    "HypersurfaceConnectionData",
    "HypersurfaceMetricData",
    "InvalidInit",
    "InvalidSpec",
    "LeftDomain",
    "MarchResult",
    "MetricCurvatureSpec",
    "MetricField",
    "MODES",
    "NotSemigeodesic",
    "OutOfDomain",
    "ReconstructionReport",
    "RunConfig",
    "SemigeoError",
    "TensorTube",
    "Tolerances",
    "TubeGrid",
    "UnknownSymbol",
    "VariableOutOfRange",
    "build_grid",
    "christoffel_from_metric",
    "curvature04_semigeo",
    "curvature13",
    "eval_field_on",
    "fd_partial",
    "fd_second",
    "fd_transverse",
    "geodesic_shoot",
    "interpolate",
    "lemma1_check",
    "load_config",
    "lower_and_check_identity",
    "parse_field",
    "pre_semigeodesic_residual",
    "reconstruct_connection",
    "reconstruct_metric",
    "rk4_march",
    "rk4_step",
    "semigeodesic_check",
    "stage1_integrate",
    "stage2_integrate",
    "unit_speed_residual",
    "validate_for_mode",
    "write_curve_dump",
    "write_tensor_dump",
]
