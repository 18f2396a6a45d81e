"""TTP-style TDMA bus substrate (paper §2).

:class:`TdmaBus` turns a static :class:`~repro.model.architecture.BusSpec`
into slot-timing arithmetic, and :class:`BusReservations` tracks which
slots a (partial) schedule has already claimed, so several schedulers
(the slack-sharing estimator, conditional scheduler contexts, runtime
simulator) share one consistent notion of when a frame can go out.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".tdma": ("FrameWindow", "TdmaBus", "Transmission"),
    ".reservations": ("BusReservations",),
})

__all__ = ["BusReservations", "FrameWindow", "TdmaBus", "Transmission"]
