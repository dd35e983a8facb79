"""Information-flow view of access-control policies.

Translate classical policies (permission lists, label lattices, role
hierarchies) into one directed graph of permitted information flows, then
compose, conflict-check and query those graphs.

A public name, and a submodule, is imported when it is first read, so a
program that only loads and queries graphs never imports the policy, rule
or composition modules.
"""

__version__ = "0.1.0"

# Every public name, by the module that defines it; README's "Public API"
# lists the same names.
_HOME = {
    name: module
    for module, names in {
        "analyze": "common_flows conflicting conflicts diffs one_sided_conflicts",
        "compose": "append append_strict merge",
        "errors": "SchemaError UnknownInterfaceError ValidationError",
        "model": """EMPTY_CR CommonRepresentation Explicit Flow GrantResult Implicit
            InterfaceId Mode component_count format_flow format_interface grant is_lively
            reachable""",
        "policies": """LBAC_LABEL AclPolicy CapabilityPolicy LatticePolicy RbacPolicy
            RbacSemantics SourcePolicy acl_to_cr capability_to_cr lattice_dominates lbac_to_cr
            policy_from_dict policy_to_cr rbac_privileges rbac_seniority rbac_to_cr
            transpose_capabilities""",
        "rules": """Action And CompositionDecision CompositionRule Condition
            ConflictCountAtMost ConflictsComplementaryIn NoConflicts Not Side apply_rule
            eval_condition rule_from_dict""",
        "serialize": "dumps loads to_dot",
    }.items()
    for name in names.split()
}

_SUBMODULES = frozenset({*_HOME.values(), "cli"})

__all__ = sorted(_HOME)


def _submodule(name: str) -> object:
    # ``__import__`` rather than importlib, so that ``python -X importtime``
    # times the import; a fromlist makes it return the submodule itself.
    return __import__(f"{__name__}.{name}", fromlist=["__name__"])


def __getattr__(name: str) -> object:
    """A public name from its home module, kept here once read, or a submodule."""
    if name in _SUBMODULES:
        # Importing a submodule binds it here, so this runs once per submodule.
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return list(__all__)
