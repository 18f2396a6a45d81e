"""Initial solutions for the design-space exploration.

A greedy load-balancing constructor: processes are placed in
topological order on the allowed node with the smallest resulting load,
and the copies of one process are spread over distinct nodes whenever
the mapping restrictions permit (replicas on one node serialize, which
is exactly what replication is trying to avoid).
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.policies.types import PolicyAssignment
from repro.schedule.mapping import CopyMapping


def initial_mapping(app: Application, arch: Architecture,
                    policies: PolicyAssignment) -> CopyMapping:
    """Greedy load-balanced placement of every copy."""
    loads: dict[str, float] = {n: 0.0 for n in arch.node_names}
    assignments: dict[tuple[str, int], str] = {}
    for process_name in app.topological_order:
        process = app.process(process_name)
        allowed = [n for n in process.allowed_nodes if n in loads]
        if not allowed:
            raise MappingError(
                f"process {process_name!r} has no usable node")
        used_here: set[str] = set()
        for copy_index in range(len(policies.of(process_name).copies)):
            if copy_index == 0 and process.fixed_node is not None:
                choice = process.fixed_node
            else:
                fresh = [n for n in allowed if n not in used_here]
                pool = fresh if fresh else allowed
                choice = min(
                    pool,
                    key=lambda n: (loads[n] + process.wcet_on(n), n))
            assignments[(process_name, copy_index)] = choice
            loads[choice] += process.wcet_on(choice)
            used_here.add(choice)
    return CopyMapping(assignments)
