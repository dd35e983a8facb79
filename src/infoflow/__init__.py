"""Information-flow view of access-control policies.

Translate classical policies (permission lists, label lattices, role
hierarchies) into one directed graph of permitted information flows, then
compose, conflict-check and query those graphs.
"""

from types import ModuleType as _ModuleType

from .analyze import common_flows, conflicting, conflicts, diffs, one_sided_conflicts
from .compose import append, append_strict, merge
from .errors import SchemaError, UnknownInterfaceError, ValidationError
from .model import (
    EMPTY_CR,
    CommonRepresentation,
    Explicit,
    Flow,
    GrantResult,
    Implicit,
    InterfaceId,
    Mode,
    component_count,
    format_flow,
    format_interface,
    grant,
    is_lively,
    reachable,
)
from .policies import (
    LBAC_LABEL,
    AclPolicy,
    CapabilityPolicy,
    LatticePolicy,
    RbacPolicy,
    RbacSemantics,
    SourcePolicy,
    acl_to_cr,
    capability_to_cr,
    lattice_dominates,
    lbac_to_cr,
    policy_from_dict,
    policy_to_cr,
    rbac_privileges,
    rbac_seniority,
    rbac_to_cr,
    transpose_capabilities,
)
from .rules import (
    Action,
    And,
    CompositionDecision,
    CompositionRule,
    Condition,
    ConflictCountAtMost,
    ConflictsComplementaryIn,
    NoConflicts,
    Not,
    Side,
    apply_rule,
    eval_condition,
    rule_from_dict,
)
from .serialize import dumps, loads, to_dot

__version__ = "0.1.0"

# Every public name imported above, and nothing else; README's "Public API"
# lists the same names.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
