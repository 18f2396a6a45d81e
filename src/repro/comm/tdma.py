"""TDMA slot arithmetic.

Time on the bus is an infinite sequence of rounds; round ``r`` starts
at ``r * round_length`` and contains ``len(slot_order)`` slots of
``slot_length`` each. Slot ``s`` of round ``r`` is therefore the
half-open interval ``[r*R + s*L, r*R + (s+1)*L)`` and belongs to node
``slot_order[s]``.

A message of ``n`` frames sent by node ``N`` occupies ``n`` *distinct*
slot occurrences owned by ``N`` (not necessarily consecutive rounds if
some are already reserved); the data is available to all receivers at
the end of the last frame's slot (broadcast bus).

**Slot table.** Both slot searches, :meth:`TdmaBus.schedule_transmission`
and :meth:`TdmaBus.owner_slot_occurrences`, read one per-node table
that the bus derives once: each owner's ``(slot index, slot index *
slot_length)`` pairs, plus the frame payload. A window starts at
``r * round_length + offset``, the same two products and one sum as
``r*R + s*L``, so the table changes no bit of any :class:`FrameWindow`.
The table stays out of the pickled state: every DiskCache estimates
entry pickles its estimator state's bus, so
:meth:`TdmaBus.__getstate__` returns the four specification fields
alone (entry bytes do not depend on the table) and
:meth:`TdmaBus.__setstate__` rebuilds the table, also for entries
written before it existed.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import SchedulingError, ValidationError
from repro.model.architecture import BusSpec
from repro.utils.mathutils import TIME_EPS, ceil_div

#: Safety bound on slot searches; reaching it means the caller asked
#: for a transmission absurdly far in the future (usually a logic bug).
_MAX_SEARCH_ROUNDS = 1_000_000


class FrameWindow(NamedTuple):
    """One reserved slot occurrence.

    A ``NamedTuple`` rather than a frozen dataclass: slot searches
    construct one per accepted frame on the hottest estimation paths,
    and tuple construction is C-level while a frozen dataclass pays
    ``object.__setattr__`` per field.
    """

    round_index: int
    slot_index: int
    start: float
    end: float


class Transmission(NamedTuple):
    """A scheduled message transmission: one or more frame windows."""

    sender: str
    frames: tuple[FrameWindow, ...]

    @property
    def start(self) -> float:
        """Start of the first frame."""
        return self.frames[0].start

    @property
    def arrival(self) -> float:
        """Time at which all receivers hold the complete message."""
        return self.frames[-1].end


class TdmaBus:
    """Slot arithmetic for one :class:`BusSpec`."""

    def __init__(self, spec: BusSpec) -> None:
        self._spec = spec
        self._slots_of: dict[str, tuple[int, ...]] = {}
        for index, owner in enumerate(spec.slot_order):
            self._slots_of.setdefault(owner, ())
            self._slots_of[owner] += (index,)
        # Cached once: the slot searches below touch these per
        # candidate window, and the property chain through BusSpec
        # recomputes the round length on every access.
        self._round_length = spec.round_length
        self._slot_length = spec.slot_length
        self._derive_slot_table()

    def _derive_slot_table(self) -> None:
        """Derive what the slot searches read (never pickled)."""
        slot_length = self._slot_length
        self._owned: dict[str, tuple[tuple[int, float], ...]] = {
            owner: tuple((s, s * slot_length) for s in slots)
            for owner, slots in self._slots_of.items()}
        self._payload = self._spec.slot_payload_bytes

    def __getstate__(self) -> dict:
        # The four specification fields in instance-dict order, no
        # derived table: DiskCache entry bytes and keys must not
        # depend on it, and entries written without it must load.
        return {"_spec": self._spec, "_slots_of": self._slots_of,
                "_round_length": self._round_length,
                "_slot_length": self._slot_length}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive_slot_table()

    @property
    def spec(self) -> BusSpec:
        """The underlying static specification."""
        return self._spec

    @property
    def round_length(self) -> float:
        """Duration of one round."""
        return self._round_length

    def slots_of(self, node: str) -> tuple[int, ...]:
        """Slot indices within a round owned by ``node``."""
        try:
            return self._slots_of[node]
        except KeyError:
            raise ValidationError(f"node {node!r} owns no bus slot") from None

    def slot_window(self, round_index: int, slot_index: int) -> FrameWindow:
        """The time window of one slot occurrence."""
        start = (round_index * self._round_length
                 + slot_index * self._slot_length)
        return FrameWindow(round_index, slot_index, start,
                           start + self._slot_length)

    def frames_needed(self, size_bytes: int) -> int:
        """Frames required for a payload of ``size_bytes``."""
        return ceil_div(size_bytes, self._spec.slot_payload_bytes)

    def owner_slot_occurrences(self, node: str, earliest: float):
        """Yield the node's slot windows starting at or after ``earliest``.

        A generator over :class:`FrameWindow`, in time order; the frame
        must be ready *at* the slot start (the communication controller
        latches the frame when the slot opens), so windows whose start
        is (within tolerance) >= ``earliest`` qualify.
        """
        try:
            owned = self._owned[node]
        except KeyError:
            raise ValidationError(f"node {node!r} owns no bus slot") from None
        round_length = self._round_length
        slot_length = self._slot_length
        threshold = earliest - TIME_EPS
        round_index = max(0, int(earliest // round_length) - 1)
        for r in range(round_index, round_index + _MAX_SEARCH_ROUNDS):
            base = r * round_length
            for s, offset in owned:
                start = base + offset
                if start >= threshold:
                    yield FrameWindow(r, s, start, start + slot_length)
        raise SchedulingError(
            f"no bus slot found for {node!r} within "
            f"{_MAX_SEARCH_ROUNDS} rounds of t={earliest}"
        )  # pragma: no cover - defensive

    def schedule_transmission(self, node: str, earliest: float,
                              size_bytes: int,
                              reservations: "BusReservationsLike",
                              ) -> Transmission:
        """Reserve the earliest free slots for a message.

        ``reservations`` is consulted and updated; frames use the first
        free slot occurrences of ``node`` at or after ``earliest``. A
        message needs at least one frame: ``size_bytes`` below 1
        raises :class:`ValueError`.
        """
        try:
            owned = self._owned[node]
        except KeyError:
            raise ValidationError(f"node {node!r} owns no bus slot") from None
        if size_bytes <= 0:
            raise ValueError(f"message size must be positive, got "
                             f"{size_bytes}")
        # Frame count inline (:meth:`frames_needed` is the same ceiling).
        remaining = -(-size_bytes // self._payload)
        round_length = self._round_length
        slot_length = self._slot_length
        threshold = earliest - TIME_EPS
        acquire = reservations.acquire
        frames: list[FrameWindow] = []
        # Inlined slot search (same windows, same order as
        # :meth:`owner_slot_occurrences`): the generator handshake and
        # the window objects of reserved candidates are pure overhead
        # on this hottest of paths.
        first = max(0, int(earliest // round_length) - 1)
        for r in range(first, first + _MAX_SEARCH_ROUNDS):
            base = r * round_length
            for s, offset in owned:
                start = base + offset
                if start < threshold:
                    continue
                if not acquire((r, s)):
                    continue
                frames.append(FrameWindow(r, s, start,
                                          start + slot_length))
                remaining -= 1
                if remaining == 0:
                    return Transmission(node, tuple(frames))
        raise SchedulingError(
            f"no free bus slot for {node!r} within "
            f"{_MAX_SEARCH_ROUNDS} rounds of t={earliest}"
        )  # pragma: no cover - defensive


class BusReservationsLike:
    """Protocol-ish base used only for documentation/typing."""

    def is_reserved(self, key: tuple[int, int]) -> bool:  # pragma: no cover
        raise NotImplementedError

    def reserve(self, key: tuple[int, int]) -> None:  # pragma: no cover
        raise NotImplementedError

    def acquire(self, key: tuple[int, int]) -> bool:  # pragma: no cover
        """Reserve if free; default composes the two primitives."""
        if self.is_reserved(key):
            return False
        self.reserve(key)
        return True
