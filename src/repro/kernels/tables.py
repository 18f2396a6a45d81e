"""The per-problem compile step: flat tables for the kernels.

:func:`compile_problem` lowers one ``(app, arch, k, priorities)``
context into a :class:`CompiledProblem`: contiguous process indices,
input/output/successor adjacency as index lists, per-copy cost memos
and the shared TDMA/send-memo context the estimator kernel runs over.
Compilation is cached (keyed by application identity plus architecture
identity, fault budget and priority content), so tabu walks, sweeps
and campaign chunks that evaluate thousands of candidates of one
problem pay the lowering once.

Float vectors are stored as ``array('d')`` and index vectors as
``array('q')`` — indexing either returns a plain Python ``float`` /
``int``, which is what keeps kernel arithmetic byte-identical to the
oracle. The kernels need nothing outside the standard library.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from weakref import WeakKeyDictionary
from collections.abc import Mapping

from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.comm.tdma import TdmaBus
from repro.policies.recovery import CopyExecution
from repro.policies.types import CopyPlan
from repro.schedule.estimation import _AppStructure, _CopyCost
from repro.schedule.priorities import partial_critical_path_priorities

CopyKey = tuple[str, int]

#: Compiled problems retained per application (LRU beyond this).
_MAX_PER_APP = 16

#: app -> OrderedDict[(id(arch), k, priority key) -> CompiledProblem].
#: The compiled problem holds the arch strongly, so the id() component
#: of its key stays valid for exactly as long as the entry lives.
_CACHE: "WeakKeyDictionary[Application, OrderedDict]" = \
    WeakKeyDictionary()


class CompiledProblem:
    """Flat, index-addressed tables of one estimation problem.

    Everything here is immutable run-to-run context: per-process
    constants, adjacency in process indices, the interned priority
    vector, and the run-chain context (:class:`_AppStructure`,
    :class:`TdmaBus`, the uncontended-send memo) shared by every
    kernel run *and* every oracle re-evaluation chained off a
    kernel-produced state.
    """

    __slots__ = (
        "app", "arch", "k", "priorities", "structure", "bus",
        "send_memo", "names", "pid_of", "rank", "release", "negpri",
        "node_names", "nid_of", "inputs", "outputs", "successors",
        "base_blockers", "msg_names",
        "_cost_memo", "_key_memo", "_keys_rows",
    )

    def __init__(self, app: Application, arch: Architecture, k: int,
                 priorities: dict[str, float]) -> None:
        self.app = app
        self.arch = arch
        self.k = k
        self.priorities = priorities
        self.structure = _AppStructure(app)
        self.bus = TdmaBus(arch.bus)
        self.send_memo: dict = {}

        names = tuple(app.process_names)
        self.names = names
        self.pid_of = {name: pid for pid, name in enumerate(names)}
        # Rank in sorted-name order: candidate tuples built on
        # (rank, copy) compare in exactly the order the oracle's
        # (name, copy) keys do.
        order = {name: rank
                 for rank, name in enumerate(sorted(names))}
        self.rank = array("q", (order[name] for name in names))
        self.release = array(
            "d", (app.process(name).release for name in names))
        self.negpri = array(
            "d", (-priorities[name] for name in names))

        self.node_names = tuple(arch.node_names)
        self.nid_of = {node: nid
                       for nid, node in enumerate(self.node_names)}

        # Message indices: assigned over the union of all structure
        # inputs/outputs in process order (internal keys only).
        msg_idx: dict[str, int] = {}
        msg_names: list[str] = []
        for name in names:
            for message in self.structure.outputs[name]:
                if message.name not in msg_idx:
                    msg_idx[message.name] = len(msg_names)
                    msg_names.append(message.name)
            for message in self.structure.inputs[name]:
                if message.name not in msg_idx:
                    msg_idx[message.name] = len(msg_names)
                    msg_names.append(message.name)
        self.msg_names = tuple(msg_names)

        pid_of = self.pid_of
        self.inputs = tuple(
            tuple((msg_idx[m.name], pid_of[m.src])
                  for m in self.structure.inputs[name])
            for name in names)
        self.outputs = tuple(
            tuple((msg_idx[m.name], m.name, pid_of[m.dst],
                   m.size_bytes)
                  for m in self.structure.outputs[name])
            for name in names)
        self.successors = tuple(
            tuple(pid_of[s] for s in self.structure.successors[name])
            for name in names)
        self.base_blockers = array(
            "q", (self.structure.blockers[name] for name in names))

        #: (pid, nid, CopyPlan) -> _CopyCost, shared across runs.
        self._cost_memo: dict[tuple[int, int, CopyPlan], _CopyCost] = {}
        #: (pid, copy) -> interned CopyKey tuple.
        self._key_memo: dict[tuple[int, int], CopyKey] = {}
        #: (pid, ncopies) -> interned tuple of that process's keys.
        self._keys_rows: dict[tuple[int, int],
                              tuple[CopyKey, ...]] = {}

    def copy_cost(self, pid: int, nid: int, plan: CopyPlan,
                  ) -> _CopyCost:
        """The memoized per-copy cost of one placed recovery plan."""
        memo_key = (pid, nid, plan)
        cost = self._cost_memo.get(memo_key)
        if cost is None:
            process = self.app.process(self.names[pid])
            execution = CopyExecution(
                wcet=process.wcet_on(self.node_names[nid]), plan=plan,
                alpha=process.alpha, mu=process.mu, chi=process.chi)
            cost = _CopyCost(execution, self.k)
            self._cost_memo[memo_key] = cost
        return cost

    def copy_key(self, pid: int, copy: int) -> CopyKey:
        """The interned ``(name, copy)`` key of one placed copy."""
        memo_key = (pid, copy)
        key = self._key_memo.get(memo_key)
        if key is None:
            key = (self.names[pid], copy)
            self._key_memo[memo_key] = key
        return key

    def keys_row(self, pid: int, ncopies: int) -> tuple[CopyKey, ...]:
        """The interned key tuple of one process's placed copies.

        Copy counts take few distinct values (1..k+1), so the row for
        a given ``(pid, ncopies)`` is built once and shared by every
        run that places that many copies of the process.
        """
        memo_key = (pid, ncopies)
        row = self._keys_rows.get(memo_key)
        if row is None:
            row = tuple(self.copy_key(pid, copy)
                        for copy in range(ncopies))
            self._keys_rows[memo_key] = row
        return row


def _priority_key(priorities: Mapping[str, float] | None,
                  ) -> tuple | None:
    if priorities is None:
        return None
    return tuple(sorted(priorities.items()))


def compile_problem(app: Application, arch: Architecture, k: int,
                    priorities: Mapping[str, float] | None,
                    ) -> CompiledProblem:
    """The cached compiled tables of one estimation problem.

    ``priorities=None`` selects (and caches) the default
    partial-critical-path priorities, exactly as
    :meth:`~repro.schedule.estimation.EstimatorState.compute` does.
    """
    per_app = _CACHE.get(app)
    if per_app is None:
        per_app = OrderedDict()
        _CACHE[app] = per_app
    key = (id(arch), k, _priority_key(priorities))
    compiled = per_app.get(key)
    if compiled is None or compiled.arch is not arch:
        if priorities is None:
            resolved = dict(
                partial_critical_path_priorities(app, arch))
        else:
            resolved = dict(priorities)
        compiled = CompiledProblem(app, arch, k, resolved)
        from repro.kernels import counters
        counters.problems_compiled += 1
        per_app[key] = compiled
        if len(per_app) > _MAX_PER_APP:
            per_app.popitem(last=False)
    else:
        per_app.move_to_end(key)
    return compiled
