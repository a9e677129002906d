"""permscan: permission-escalation testing for add-on host APIs.

Pipeline: catalog ingestion -> permission labeling -> dependency graph ->
suite generation -> execution under role matrix / scope ladder -> E1/E2/E3
escalation detection.
"""

from .catalog import Catalog, load_catalog, object_census, validate_catalog
from .classify import Operation, PermissionLabel, classify_api, classify_catalog
from .detector import Finding, Report, build_report, detect_full
from .executor import ExecutionRecord, SimulatorBackend, run_role_matrix, run_scope_ladder
from .graph import CallChain, DepGraph, build_graph, shortest_producer_path, to_dot
from .simulator import (
    Decision,
    FaultSpec,
    Role,
    RoleCapabilityMatrix,
    Subject,
    WorkspaceState,
    check_access,
    instantiate_template,
    invoke_host_api,
    resolve_faults,
)
from .testgen import TestCase, generate_suite, order_suite, producer_plans, resolve_parameters

__version__ = "0.1.0"
