"""Bus slot reservation tables.

A reservation table records which ``(round, slot)`` occurrences a
partial schedule has already claimed. The conditional scheduler forks
one table per execution context, so the structure supports O(1)
copy-on-write-ish cloning: a child context shares the parent's frozen
set and adds its own overlay.
"""

from __future__ import annotations


class BusReservations:
    """Mutable set of reserved ``(round, slot)`` occurrences with cheap
    hierarchical cloning."""

    __slots__ = ("_parent", "_own")

    def __init__(self, parent: "BusReservations | None" = None) -> None:
        self._parent = parent
        self._own: set[tuple[int, int]] = set()

    def is_reserved(self, key: tuple[int, int]) -> bool:
        """True if the slot occurrence is taken in this context."""
        table: BusReservations | None = self
        while table is not None:
            if key in table._own:
                return True
            table = table._parent
        return False

    def reserve(self, key: tuple[int, int]) -> None:
        """Claim a slot occurrence; raises if already taken."""
        if self.is_reserved(key):
            raise ValueError(f"bus slot {key} reserved twice")
        self._own.add(key)

    def reserve_all(self, keys: list[tuple[int, int]]) -> None:
        """Claim every slot occurrence of ``keys`` in one call.

        Raises the :meth:`reserve` error if a key is already taken in
        this context or listed twice, and then reserves none of them.
        Trace replay re-reserves a whole prefix of recorded frames at
        once this way.
        """
        batch = set(keys)
        if len(batch) == len(keys):
            table: BusReservations | None = self
            while table is not None:
                if not batch.isdisjoint(table._own):
                    break
                table = table._parent
            else:
                self._own |= batch
                return
        # Listed twice or taken: name the first offending key.
        seen: set[tuple[int, int]] = set()
        for key in keys:
            if key in seen or self.is_reserved(key):
                raise ValueError(f"bus slot {key} reserved twice")
            seen.add(key)

    def acquire(self, key: tuple[int, int]) -> bool:
        """Claim a slot occurrence if free; one ancestry walk total.

        Equivalent to ``is_reserved`` + ``reserve`` but walks the
        parent chain once — slot searches probe many occupied slots,
        so the doubled walk is measurable.
        """
        table: BusReservations | None = self
        while table is not None:
            if key in table._own:
                return False
            table = table._parent
        self._own.add(key)
        return True

    def fork(self) -> "BusReservations":
        """Child table sharing everything reserved so far.

        The child sees all current reservations but its own future
        reservations are invisible to the parent and to siblings.
        """
        return BusReservations(parent=self)

    def flatten(self) -> set[tuple[int, int]]:
        """All reservations visible from this context (for inspection)."""
        result: set[tuple[int, int]] = set()
        table: BusReservations | None = self
        while table is not None:
            result |= table._own
            table = table._parent
        return result

    def __len__(self) -> int:
        return len(self.flatten())
