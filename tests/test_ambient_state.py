"""Structural guard for DESIGN.md "Ambient state": one run context, one
way to attach.  Pure ``ast`` over ``src/repro`` — nothing is imported or
run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Module globals rebound at run time that are *not* run sessions: the
#: equivalence suite's datapath reference switch and the flow-id /
#: packet-uid counters (skipped forward past the ids a fan-out's workers
#: allocated).  The fan-out accumulator is the run context's ``fanout``
#: slot.
PROCESS_GLOBALS = {
    "net/link.py": {"_BATCHING"},
    "net/packet.py": {"_packet_ids"},
    "transport/flow.py": {"_flow_ids"},
}

#: Names the per-module registries and the copy-pasted session wiring
#: used to go by.
RETIRED = {"add_observer", "remove_observer", "deactivate",
           "activate_plane", "deactivate_plane", "_host_trace",
           "_owns_context", "_restore_lineage", "_restore_provenance",
           "_sessions", "_active_plane", "_active_reporter", "_active_plan",
           "_active_env", "_active_policy", "_active_journal",
           "_TIEBREAK_SALT"}


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield (path.relative_to(SRC).as_posix(),
               ast.parse(path.read_text(encoding="utf-8")))


MODULES = dict(modules())


def assigned_attributes(tree):
    """Every ``x.attr = ...`` / ``x.attr += ...`` target in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Attribute):
                    yield leaf.attr


def test_no_module_keeps_its_own_ambient_registry():
    # The run context is one object mutated in place, so even
    # telemetry/context.py needs no ``global``.
    rebound = {
        name: {g for node in ast.walk(tree) if isinstance(node, ast.Global)
               for g in node.names}
        for name, tree in MODULES.items()}
    assert {k: v for k, v in rebound.items() if v} == PROCESS_GLOBALS


def test_only_scope_and_enter_write_a_slot():
    # ``ambient.<slot> = ...`` anywhere else would skip the save/restore
    # discipline (DESIGN.md §6, "Who may write").
    writes = [
        name for name, tree in MODULES.items()
        if name != "telemetry/context.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, (ast.Name, ast.Attribute))
        and getattr(target.value, "id",
                    getattr(target.value, "attr", None)) == "ambient"]
    assert writes == []


def test_only_the_recorder_sets_its_lineage_and_provenance():
    offenders = [name for name, tree in MODULES.items()
                 if name != "sim/trace.py"
                 and {"lineage", "provenance"} & set(assigned_attributes(tree))]
    assert offenders == []


def test_unscoped_activate_survives_only_for_the_procfault_plan():
    defined = [name for name, tree in MODULES.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name == "activate"]
    assert defined == ["chaos/procfault.py"]


def names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_retired_names_are_gone():
    leftovers = {name: RETIRED & set(names_used(tree))
                 for name, tree in MODULES.items()}
    assert {k: v for k, v in leftovers.items() if v} == {}


def test_provenance_is_read_as_a_plain_attribute():
    defensive = [
        name for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "getattr" and len(node.args) == 3
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value in ("lineage", "provenance")]
    assert defensive == []
