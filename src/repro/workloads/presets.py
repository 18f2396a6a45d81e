"""The paper's hand-drawn examples (Figures 1–6), realistic case
studies, and structurally extreme families for fault-injection
campaigns (:func:`deep_chain`, :func:`wide_fork_join`,
:func:`bursty_heterogeneous`).

All numbers that the paper states explicitly are used verbatim; where
the paper's figures are ambiguous (the DATE format omits some WCETs and
the exact application of Fig. 5a), the reconstruction documented in
DESIGN.md / EXPERIMENTS.md is used, chosen to be consistent with every
activation time visible in the paper's Fig. 6 schedule tables.
"""

from __future__ import annotations

from repro.model.application import Application
from repro.model.architecture import Architecture, BusSpec, Node
from repro.model.fault_model import FaultModel
from repro.model.message import Message
from repro.model.process import Process
from repro.model.transparency import Transparency
from repro.policies.types import CopyPlan
from repro.schedule.mapping import CopyMapping
from repro.utils.rng import DeterministicRng


def fig1_process() -> tuple[Process, CopyPlan]:
    """Paper Fig. 1: P1 with C=60, α=10, μ=10, χ=5, two checkpoints.

    Fault-free duration 90; with the single fault of Fig. 1c the worst
    case is 130 (α skipped in the last recovery).
    """
    process = Process("P1", {"N1": 60.0}, alpha=10.0, mu=10.0, chi=5.0)
    return process, CopyPlan(recoveries=1, checkpoints=2)


def fig3_example() -> tuple[Application, Architecture]:
    """Paper Fig. 3: five processes on two nodes with the printed WCET
    table (P3 restricted to N1).

    The figure's edge drawing is partly illegible in the DATE layout;
    the reconstruction uses the natural fork/join reading
    P1→{P2,P3}, P2→P4, P3→P5.
    """
    processes = [
        Process("P1", {"N1": 20.0, "N2": 30.0}),
        Process("P2", {"N1": 40.0, "N2": 60.0}),
        Process("P3", {"N1": 60.0}),  # "X" on N2
        Process("P4", {"N1": 40.0, "N2": 60.0}),
        Process("P5", {"N1": 40.0, "N2": 60.0}),
    ]
    messages = [
        Message("m1", "P1", "P2", size_bytes=8),
        Message("m2", "P1", "P3", size_bytes=8),
        Message("m3", "P2", "P4", size_bytes=8),
        Message("m4", "P3", "P5", size_bytes=8),
    ]
    app = Application(processes, messages, deadline=400.0,
                      name="paper-fig3")
    arch = Architecture(
        [Node("N1"), Node("N2")],
        BusSpec(slot_order=("N1", "N2"), slot_length=2.0),
        name="paper-fig3-arch",
    )
    return app, arch


def fig5_example() -> tuple[Application, Architecture, FaultModel,
                            Transparency, CopyMapping]:
    """Paper Fig. 5/6: four processes, k = 2, frozen {P3, m2, m3}.

    Reconstruction (consistent with every start time in Fig. 6):
    P1, P2 on N1; P3, P4 on N2; P1→P2 locally, P1→P4 via m1,
    P1→P3 via m2 (frozen), P2→P3 via m3 (frozen);
    C1=30, C2=20, C3=20, C4=30, μ=5, α=χ=0.
    The FT-CPG of this instance reproduces Fig. 5b's structure exactly:
    3 copies of P1, 6 of P2, 6 of P4, 3 of the frozen P3, and three
    synchronization nodes.
    """
    processes = [
        Process("P1", {"N1": 30.0, "N2": 30.0}, mu=5.0),
        Process("P2", {"N1": 20.0, "N2": 20.0}, mu=5.0),
        Process("P3", {"N1": 20.0, "N2": 20.0}, mu=5.0),
        Process("P4", {"N1": 30.0, "N2": 30.0}, mu=5.0),
    ]
    messages = [
        Message("m0", "P1", "P2", size_bytes=4),
        Message("m1", "P1", "P4", size_bytes=4),
        Message("m2", "P1", "P3", size_bytes=4),
        Message("m3", "P2", "P3", size_bytes=4),
    ]
    app = Application(processes, messages, deadline=300.0,
                      name="paper-fig5")
    arch = Architecture(
        [Node("N1"), Node("N2")],
        BusSpec(slot_order=("N1", "N2"), slot_length=2.0),
        name="paper-fig5-arch",
    )
    fault_model = FaultModel(k=2)
    transparency = Transparency(frozen_processes=("P3",),
                                frozen_messages=("m2", "m3"))
    process_map = {"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"}
    mapping = CopyMapping({(name, 0): node
                           for name, node in process_map.items()})
    return app, arch, fault_model, transparency, mapping


def brake_by_wire() -> tuple[Application, Architecture, Transparency]:
    """A brake-by-wire application on a 4-node TTP cluster — the
    safety-critical X-by-wire setting that motivates this research
    line (a TTP-based fault-tolerant platform, hard deadlines, sensors
    and actuators bound to their nodes).

    14 processes: pedal acquisition (duplicated sensors), pedal
    voting/plausibility, vehicle-dynamics input, brake-force
    computation, per-wheel force distribution and four wheel actuator
    commands, plus a monitor. The actuator commands are marked frozen
    (their release to the wheel nodes must be identical in every fault
    scenario — actuation jitter is itself a safety hazard), as is the
    global brake-force message.
    """
    def proc(name: str, base: float, *, fixed: str | None = None,
             ) -> Process:
        wcet = {n: round(base * f, 1)
                for n, f in zip(("N1", "N2", "N3", "N4"),
                                (1.0, 0.95, 1.05, 1.0))}
        return Process(name, wcet, alpha=base * 0.04, mu=base * 0.06,
                       chi=base * 0.04, fixed_node=fixed)

    processes = [
        proc("pedal_a", 8, fixed="N1"),
        proc("pedal_b", 8, fixed="N1"),
        proc("pedal_vote", 10),
        proc("dynamics_in", 12, fixed="N2"),
        proc("brake_force", 24),
        proc("distribute", 16),
        proc("wheel_fl_cmd", 9, fixed="N3"),
        proc("wheel_fr_cmd", 9, fixed="N3"),
        proc("wheel_rl_cmd", 9, fixed="N4"),
        proc("wheel_rr_cmd", 9, fixed="N4"),
        proc("abs_check", 14),
        proc("monitor", 8),
        proc("log_brake", 6),
        proc("hmi_lamp", 5),
    ]
    edges = [
        ("pedal_a", "pedal_vote"), ("pedal_b", "pedal_vote"),
        ("pedal_vote", "brake_force"), ("dynamics_in", "brake_force"),
        ("brake_force", "distribute"), ("dynamics_in", "abs_check"),
        ("abs_check", "distribute"),
        ("distribute", "wheel_fl_cmd"), ("distribute", "wheel_fr_cmd"),
        ("distribute", "wheel_rl_cmd"), ("distribute", "wheel_rr_cmd"),
        ("brake_force", "monitor"), ("monitor", "log_brake"),
        ("monitor", "hmi_lamp"),
    ]
    messages = [
        Message(f"m_{src}_{dst}", src, dst, size_bytes=6)
        for src, dst in edges
    ]
    app = Application(processes, messages, deadline=420.0,
                      name="brake-by-wire")
    arch = Architecture(
        [Node("N1"), Node("N2"), Node("N3"), Node("N4")],
        BusSpec(slot_order=("N1", "N2", "N3", "N4"), slot_length=1.0),
        name="bbw-arch",
    )
    transparency = Transparency(
        frozen_processes=("wheel_fl_cmd", "wheel_fr_cmd",
                          "wheel_rl_cmd", "wheel_rr_cmd"),
        frozen_messages=("m_brake_force_distribute",),
    )
    return app, arch, transparency


def deep_chain(length: int = 10, nodes: int = 2, *, seed: int = 1,
               ) -> tuple[Application, Architecture]:
    """A deep pipeline: ``length`` processes in one dependency chain.

    The structural opposite of the layered generator output — zero
    parallelism, so every recovery slack sits on the critical path and
    fault-injection campaigns observe the *serial* worst case: each
    additional fault pushes the finish by a full recovery. WCETs vary
    moderately (deterministically from ``seed``) so mapping still
    matters across the ``nodes`` TTP nodes.
    """
    if length < 2:
        raise ValueError(f"chain needs >= 2 processes, got {length}")
    rng = DeterministicRng(seed)
    node_names = tuple(f"N{i + 1}" for i in range(nodes))
    processes = []
    total_base = 0.0
    for index in range(length):
        base = round(rng.uniform(15.0, 45.0), 1)
        total_base += base
        wcet = {n: round(base * rng.uniform(0.9, 1.1), 1)
                for n in node_names}
        processes.append(Process(f"C{index + 1}", wcet,
                                 alpha=round(base * 0.05, 2),
                                 mu=round(base * 0.05, 2),
                                 chi=round(base * 0.05, 2)))
    messages = [
        Message(f"m{i + 1}", f"C{i + 1}", f"C{i + 2}", size_bytes=8)
        for i in range(length - 1)
    ]
    # The whole chain is the critical path; 4x leaves room for the
    # recovery slack of several faults without deadline pressure.
    app = Application(processes, messages, deadline=round(total_base * 4, 1),
                      name=f"deep-chain-{length}")
    arch = Architecture(
        [Node(n) for n in node_names],
        BusSpec(slot_order=node_names, slot_length=1.0),
        name=f"chain-arch-{nodes}n",
    )
    return app, arch


def wide_fork_join(width: int = 6, nodes: int = 3, *, seed: int = 2,
                   ) -> tuple[Application, Architecture]:
    """A source fanning out to ``width`` parallel workers and joining.

    Maximum parallelism between two synchronization points: the join
    waits for *every* worker, so a fault on any one of them moves the
    sink — the sharing of recovery slack across co-located workers
    (the core of the estimation model) is exactly what campaigns on
    this family stress.
    """
    if width < 2:
        raise ValueError(f"fork-join needs width >= 2, got {width}")
    rng = DeterministicRng(seed)
    node_names = tuple(f"N{i + 1}" for i in range(nodes))

    def proc(name: str, base: float) -> Process:
        wcet = {n: round(base * rng.uniform(0.85, 1.15), 1)
                for n in node_names}
        return Process(name, wcet, alpha=round(base * 0.04, 2),
                       mu=round(base * 0.06, 2),
                       chi=round(base * 0.04, 2))

    workers = [proc(f"W{i + 1}", round(rng.uniform(20.0, 50.0), 1))
               for i in range(width)]
    source = proc("fork", 12.0)
    sink = proc("join", 14.0)
    processes = [source, *workers, sink]
    messages = [Message(f"m_out{i + 1}", "fork", w.name, size_bytes=8)
                for i, w in enumerate(workers)]
    messages += [Message(f"m_in{i + 1}", w.name, "join", size_bytes=8)
                 for i, w in enumerate(workers)]
    mean_wcet = sum(sum(p.wcet.values()) / len(p.wcet)
                    for p in processes) / len(processes)
    deadline = round(6 * mean_wcet * (2 + width / nodes), 1)
    app = Application(processes, messages, deadline=deadline,
                      name=f"fork-join-{width}w")
    arch = Architecture(
        [Node(n) for n in node_names],
        BusSpec(slot_order=node_names, slot_length=1.0),
        name=f"forkjoin-arch-{nodes}n",
    )
    return app, arch


def bursty_heterogeneous(bursts: int = 3, burst_width: int = 3, *,
                         nodes: int = 3, seed: int = 7,
                         ) -> tuple[Application, Architecture]:
    """Bursts of short tasks funneled through heavy aggregators.

    ``bursts`` alternating stages: a wide layer of light processes
    (the burst) followed by one heavy aggregator consuming all of
    them. WCETs are strongly heterogeneous across nodes (up to 2x,
    deterministically from ``seed``), so the mapping choice dominates
    and the fault behaviour differs sharply between light and heavy
    processes — the mixed regime the uniform generator never
    produces.
    """
    if bursts < 1 or burst_width < 2:
        raise ValueError(
            f"need bursts >= 1 and burst_width >= 2, got "
            f"{bursts}x{burst_width}")
    rng = DeterministicRng(seed)
    node_names = tuple(f"N{i + 1}" for i in range(nodes))

    def proc(name: str, base: float) -> Process:
        # Strong heterogeneity: per-node factors in [0.6, 1.8].
        wcet = {n: round(base * rng.uniform(0.6, 1.8), 1)
                for n in node_names}
        return Process(name, wcet, alpha=round(base * 0.05, 2),
                       mu=round(base * 0.05, 2),
                       chi=round(base * 0.05, 2))

    processes: list[Process] = []
    messages: list[Message] = []
    previous_aggregator: str | None = None
    for burst in range(1, bursts + 1):
        light = [proc(f"B{burst}_{i + 1}",
                      round(rng.uniform(4.0, 10.0), 1))
                 for i in range(burst_width)]
        heavy = proc(f"A{burst}", round(rng.uniform(40.0, 70.0), 1))
        processes += [*light, heavy]
        for task in light:
            if previous_aggregator is not None:
                messages.append(Message(
                    f"m_{previous_aggregator}_{task.name}",
                    previous_aggregator, task.name, size_bytes=4))
            messages.append(Message(f"m_{task.name}_{heavy.name}",
                                    task.name, heavy.name,
                                    size_bytes=4))
        previous_aggregator = heavy.name
    mean_wcet = sum(sum(p.wcet.values()) / len(p.wcet)
                    for p in processes) / len(processes)
    deadline = round(6 * mean_wcet * bursts * 2, 1)
    app = Application(processes, messages, deadline=deadline,
                      name=f"bursty-{bursts}x{burst_width}")
    arch = Architecture(
        [Node(n) for n in node_names],
        BusSpec(slot_order=node_names, slot_length=1.0),
        name=f"bursty-arch-{nodes}n",
    )
    return app, arch


def cruise_controller() -> tuple[Application, Architecture]:
    """An adaptive cruise controller in the style of the case studies
    used throughout this research line (sensing → fusion → control →
    actuation plus diagnostics and HMI), 24 processes on 3 nodes.

    WCETs are in microseconds-scale abstract units; N1 hosts the
    sensor interfaces, N3 the actuators (fixed mappings), the rest is
    free for optimization.
    """
    def proc(name: str, base: float, *, fixed: str | None = None,
             only: tuple[str, ...] | None = None) -> Process:
        nodes = only or ("N1", "N2", "N3")
        wcet = {n: round(base * f, 1)
                for n, f in zip(nodes, (1.0, 0.9, 1.1))}
        return Process(name, wcet, alpha=base * 0.05, mu=base * 0.05,
                       chi=base * 0.04, fixed_node=fixed)

    processes = [
        proc("wheel_fl", 12, fixed="N1"),
        proc("wheel_fr", 12, fixed="N1"),
        proc("wheel_rl", 12, fixed="N1"),
        proc("wheel_rr", 12, fixed="N1"),
        proc("radar_acq", 30, fixed="N1"),
        proc("yaw_acq", 16, fixed="N1"),
        proc("driver_buttons", 8, fixed="N1"),
        proc("speed_filter", 20),
        proc("radar_filter", 34),
        proc("yaw_filter", 18),
        proc("target_tracker", 40),
        proc("speed_fusion", 26),
        proc("mode_logic", 14),
        proc("distance_ctrl", 38),
        proc("speed_ctrl", 32),
        proc("arbiter", 18),
        proc("traction_check", 22),
        proc("throttle_cmd", 16, fixed="N3"),
        proc("brake_cmd", 16, fixed="N3"),
        proc("gear_hint", 12, fixed="N3"),
        proc("diag_monitor", 24),
        proc("dash_update", 14),
        proc("event_logger", 10),
        proc("watchdog", 6),
    ]
    edges = [
        ("wheel_fl", "speed_filter"), ("wheel_fr", "speed_filter"),
        ("wheel_rl", "speed_filter"), ("wheel_rr", "speed_filter"),
        ("radar_acq", "radar_filter"), ("yaw_acq", "yaw_filter"),
        ("speed_filter", "speed_fusion"), ("yaw_filter", "speed_fusion"),
        ("radar_filter", "target_tracker"),
        ("speed_fusion", "target_tracker"),
        ("driver_buttons", "mode_logic"), ("speed_fusion", "mode_logic"),
        ("target_tracker", "distance_ctrl"),
        ("mode_logic", "distance_ctrl"),
        ("speed_fusion", "speed_ctrl"), ("mode_logic", "speed_ctrl"),
        ("distance_ctrl", "arbiter"), ("speed_ctrl", "arbiter"),
        ("speed_fusion", "traction_check"),
        ("arbiter", "throttle_cmd"), ("arbiter", "brake_cmd"),
        ("traction_check", "brake_cmd"), ("arbiter", "gear_hint"),
        ("speed_fusion", "diag_monitor"), ("radar_filter", "diag_monitor"),
        ("mode_logic", "dash_update"), ("arbiter", "dash_update"),
        ("diag_monitor", "event_logger"), ("diag_monitor", "watchdog"),
    ]
    messages = [
        Message(f"m_{src}_{dst}", src, dst, size_bytes=8)
        for src, dst in edges
    ]
    app = Application(processes, messages, deadline=900.0,
                      name="cruise-controller")
    arch = Architecture(
        [Node("N1"), Node("N2"), Node("N3")],
        BusSpec(slot_order=("N1", "N2", "N3"), slot_length=1.0),
        name="cc-arch",
    )
    return app, arch


#: Name -> loader for every preset that returns a plain
#: ``(Application, Architecture)`` pair — the single source of truth
#: shared by the CLI workload dispatch and the campaign runner, so the
#: two can never disagree on which presets exist. ``fig5`` (which also
#: returns a fault model, transparency and a fixed mapping) and
#: ``brake_by_wire`` (which returns a transparency) are dispatched
#: specially by their callers and stay out of this table.
SIMPLE_PRESETS = {
    "fig3": fig3_example,
    "cruise": cruise_controller,
    "chain": deep_chain,
    "forkjoin": wide_fork_join,
    "bursty": bursty_heterogeneous,
}

#: Named workloads a campaign or a design-space exploration can target
#: (all transparency-free).
PRESET_WORKLOADS = tuple(SIMPLE_PRESETS)
