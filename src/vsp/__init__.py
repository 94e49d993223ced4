"""Vehicle scheduling toolkit.

Model instances and schedules, validate constraints, dispatch with
event-driven heuristics, solve the tardy-count objective exactly, export
the model as an LP file, generate benchmark instances, and sweep
deadline-ratio experiments.
"""

from .core import (
    INF,
    ConfigurationError,
    ConstraintKind,
    Graph,
    Instance,
    ObjectiveKind,
    Schedule,
    ShapeError,
    ValidationReport,
    Violation,
    VspError,
    Walk,
    conflict_pairs,
    evaluate,
    min_free_trip_time,
    tardy_flags,
    tardy_weights,
    validate_schedule,
)
from .exact import (
    Constraint,
    DcsSolution,
    DifferenceConstraintSystem,
    SolveResult,
    SolveStatus,
    minimal_times,
    solve_exact,
)
from .heuristics import (
    DispatchResult,
    Mode,
    SlotWindowError,
    VehicleStatus,
    deadline_and_proximity,
    lazy_dispatch,
    replay_dispatch,
    run_dispatch,
    sorting_key,
)
from .instances import (
    ExperimentConfig,
    FormatError,
    GridSpec,
    JspInstance,
    build_grid_graph,
    generate_grid_instance,
    read_instance,
    read_jsp,
    read_schedule,
    reduce_jsp_to_vsp,
    write_instance,
    write_schedule,
)
from .mip import (
    HorizonError,
    MipModel,
    MipRow,
    build_mip_model,
    export_mip,
    parse_lp,
    schedule_from_lp_solution,
    write_lp,
)
from .bench import ALGORITHMS, RunRecord, SweepResult, emit_csv, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
