"""Event-driven simulator core (DES) — see docs/des.md.

A Nessi-style discrete-event engine over the conditional schedule
tables. Scenarios the table-replay simulator
(:mod:`repro.runtime.simulator`) can express run through that oracle
itself; :class:`DesSimulator` adds the scenario axes table replay
cannot express: intermittent fault windows, corrupted TDMA slot
occurrences (with dynamic retransmission), and per-process release
jitter (:class:`~repro.ftcpg.scenarios.DesFaultPlan`).

* :mod:`repro.des.queue` — the deterministic event queue
  (``(time, priority, seq)`` heap with anchored eps-clustering, merged
  with a presorted activation stream);
* :mod:`repro.des.events` — the logged event vocabulary and the
  golden-trace rendering;
* :mod:`repro.des.core` — :class:`DesSimulator`, which routes each
  plan to the replay oracle or the forward engine;
* :mod:`repro.des.online` — forward execution of DES-only scenarios,
  compiled once per design.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("DesRun", "DesSimulator"),
    ".events": ("DesEvent", "DesEventKind", "render_trace"),
    ".online": ("OnlineEngine",),
    ".queue": ("EventQueue",),
})

__all__ = [
    "DesEvent",
    "DesEventKind",
    "DesRun",
    "DesSimulator",
    "EventQueue",
    "OnlineEngine",
    "render_trace",
]
