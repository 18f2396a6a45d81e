"""The epsilon-dominance Pareto archive of the design-space explorer.

Objectives are a fixed-length vector, **all minimized**; callers
convert "bigger is better" axes before insertion (the explorer stores
``opacity = 1 - transparency_degree``). Designs with different fault
budgets are incomparable — a ``k = 1`` design beating a ``k = 2``
design on length says nothing — so every point carries a ``group``
key and dominance is only ever tested within a group: the archive
maintains one frontier per fault budget.

Two layers, chosen so the final frontier is a **set function** of the
evaluated points — independent of insertion order, of how candidates
were chunked across engine jobs, and of how many workers ran them:

1. the archive itself keeps exactly the raw Pareto-optimal points.
   Weak dominance removes a point; exact-objective duplicates keep the
   lowest candidate index. Both rules are transitive, which is what
   makes chunk-local pruning safe: a chunk's local archive can drop a
   dominated point early because the surviving witness (or a chain of
   witnesses ending in one) reaches the merge and would have removed
   it anyway;
2. :meth:`ParetoArchive.frontier` applies epsilon sparsification on
   top: objective space is gridded into boxes of size ``epsilons`` and
   each box keeps one representative — the point closest to the box's
   lower corner (scaled Euclidean), candidate index breaking ties.
   Per-box selection is again a pure function of the archived set.

This is the same discipline as :mod:`repro.campaigns.stats`: chunk
results merge exactly, in any grouping, so ``--workers 8`` and
``--chunks 16`` produce byte-identical reports to a serial run.

>>> archive = ParetoArchive(epsilons=(1.0, 0.1))
>>> _ = archive.insert(DesignPoint(0, {"id": "a"}, (10.0, 0.5), "k=2"))
>>> _ = archive.insert(DesignPoint(1, {"id": "b"}, (12.0, 0.2), "k=2"))
>>> archive.insert(DesignPoint(2, {"id": "c"}, (11.0, 0.6), "k=2"))
False
>>> [p.candidate["id"] for p in archive.points()]
['a', 'b']
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

#: Default epsilon-box edges per objective: (length time units,
#: opacity fraction, memory bytes).
DEFAULT_EPSILONS = (4.0, 0.04, 32.0)

#: Default limit of frontier certification: frontier designs with more
#: fault scenarios than this stay uncertified.
DEFAULT_VERIFY_MAX_SCENARIOS = 20_000


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design: objectives plus its full description.

    ``index`` is the candidate's global enumeration index (the
    deterministic merge key); ``candidate`` and ``extras`` are
    JSON-able payloads carried through to reports untouched.
    """

    index: int
    candidate: dict
    objectives: tuple[float, ...]
    group: str
    extras: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        """Plain-dict form (checkpoint/report round-trip)."""
        return {
            "index": self.index,
            "candidate": self.candidate,
            "objectives": list(self.objectives),
            "group": self.group,
            "extras": self.extras,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "DesignPoint":
        """Rebuild a point from its plain-dict form."""
        return cls(
            index=int(data["index"]),
            candidate=dict(data["candidate"]),
            objectives=tuple(float(o) for o in data["objectives"]),
            group=str(data["group"]),
            extras=dict(data.get("extras", {})),
        )


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Strict Pareto dominance (minimization): ``a <= b``, one ``<``."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def _removes(winner: DesignPoint, loser: DesignPoint) -> bool:
    """Whether ``winner`` evicts ``loser`` from the raw Pareto set.

    Weak dominance with a strict component, or an exact objective
    duplicate with a lower candidate index. Transitive by
    construction (see module docstring).
    """
    if dominates(winner.objectives, loser.objectives):
        return True
    return (winner.objectives == loser.objectives
            and winner.index < loser.index)


class ParetoArchive:
    """Per-group raw Pareto set with epsilon-sparsified frontier."""

    def __init__(self, epsilons: Sequence[float],
                 points: Iterable[DesignPoint] = ()) -> None:
        if not epsilons or any(e <= 0 for e in epsilons):
            raise ValueError(
                f"epsilons must be positive, got {tuple(epsilons)}")
        self._epsilons = tuple(float(e) for e in epsilons)
        self._points: list[DesignPoint] = []
        for point in points:
            self.insert(point)

    @property
    def epsilons(self) -> tuple[float, ...]:
        """Box edge lengths of the sparsification grid."""
        return self._epsilons

    def __len__(self) -> int:
        return len(self._points)

    def _check(self, point: DesignPoint) -> None:
        if len(point.objectives) != len(self._epsilons):
            raise ValueError(
                f"point has {len(point.objectives)} objectives, "
                f"archive expects {len(self._epsilons)}")

    def insert(self, point: DesignPoint) -> bool:
        """Offer one point; True when it enters the archive.

        Rejected when an archived point of the same group removes it;
        otherwise it evicts every archived point it removes.
        """
        self._check(point)
        for existing in self._points:
            if existing.group == point.group \
                    and _removes(existing, point):
                return False
        self._points = [p for p in self._points
                        if p.group != point.group
                        or not _removes(point, p)]
        self._points.append(point)
        return True

    def points(self) -> tuple[DesignPoint, ...]:
        """The raw Pareto set, sorted by candidate index."""
        return tuple(sorted(self._points, key=lambda p: p.index))

    def groups(self) -> tuple[str, ...]:
        """Archived groups, sorted."""
        return tuple(sorted({p.group for p in self._points}))

    # -- epsilon sparsification ------------------------------------------------

    def _box(self, objectives: Sequence[float]) -> tuple[int, ...]:
        return tuple(math.floor(o / e + 1e-12)
                     for o, e in zip(objectives, self._epsilons))

    def _corner_distance(self, point: DesignPoint) -> float:
        box = self._box(point.objectives)
        return sum(((o - b * e) / e) ** 2
                   for o, b, e in zip(point.objectives, box,
                                      self._epsilons))

    def frontier(self, group: str | None = None,
                 ) -> tuple[DesignPoint, ...]:
        """Epsilon-sparsified frontier, sorted by candidate index.

        One representative per occupied epsilon-box per group: the
        point nearest the box's lower corner, index breaking ties —
        a pure function of the archived set.
        """
        best: dict[tuple, DesignPoint] = {}
        for point in self._points:
            if group is not None and point.group != group:
                continue
            key = (point.group, self._box(point.objectives))
            incumbent = best.get(key)
            if incumbent is None:
                best[key] = point
                continue
            challenger = (self._corner_distance(point), point.index)
            holder = (self._corner_distance(incumbent),
                      incumbent.index)
            if challenger < holder:
                best[key] = point
        return tuple(sorted(best.values(), key=lambda p: p.index))

    # -- serialization ---------------------------------------------------------

    def to_jsonable(self) -> dict:
        """Plain-dict form (points in index order)."""
        return {
            "epsilons": list(self._epsilons),
            "points": [p.to_jsonable() for p in self.points()],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ParetoArchive":
        """Rebuild an archive from its plain-dict form."""
        return cls(
            epsilons=tuple(float(e) for e in data["epsilons"]),
            points=(DesignPoint.from_jsonable(p)
                    for p in data["points"]),
        )

    @classmethod
    def merged(cls, epsilons: Sequence[float],
               point_sets: Iterable[Iterable[DesignPoint]],
               ) -> "ParetoArchive":
        """Fold several point sets into one archive.

        Points are inserted in global candidate-index order, but the
        result does not depend on it (the raw Pareto set is a set
        function); sorting just keeps the walk deterministic.
        """
        pool = [p for points in point_sets for p in points]
        pool.sort(key=lambda p: p.index)
        return cls(epsilons, pool)
