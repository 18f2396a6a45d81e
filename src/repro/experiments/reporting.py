"""Result tables and cell aggregation shared by the experiments."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.eval.core import CacheStats
from repro.utils.textgrid import TextGrid


def render_rows(header: Sequence[str], rows: Sequence[Sequence[object]],
                ) -> str:
    """Render experiment rows as an aligned text table."""
    grid = TextGrid(header)
    for row in rows:
        grid.add_row(row)
    return grid.render()


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    return sum(values) / len(values)


def cache_stats_from_cells(cells: Sequence[Mapping]) -> CacheStats:
    """Merge the per-cell estimation-cache counters of a sweep.

    Every engine-executed cell (fig7/fig8/dse/campaign chunks) reports
    its evaluator pool's estimate-tier ``cache_hits`` /
    ``cache_misses`` (and, since the unified evaluation core,
    ``cache_entries``); this folds them into one
    :class:`~repro.eval.CacheStats` so reports
    and benchmarks stop recomputing hit rates by hand. Cells restored
    from pre-existing checkpoints may lack the keys; they count as
    zero.
    """
    return CacheStats(
        hits=sum(int(c.get("cache_hits", 0)) for c in cells),
        misses=sum(int(c.get("cache_misses", 0)) for c in cells),
        entries=sum(int(c.get("cache_entries", 0)) for c in cells),
    )


def group_cells_by_size(
    cells: Sequence[Mapping],
    sizes: Sequence[int] | None = None,
) -> list[tuple[int, list[Mapping]]]:
    """Group sweep-cell results by application size.

    ``sizes`` fixes the row order (the sweep configuration's order);
    without it, sizes appear sorted ascending.
    """
    by_size: dict[int, list[Mapping]] = {}
    for cell in cells:
        by_size.setdefault(int(cell["size"]), []).append(cell)
    order = sizes if sizes is not None else sorted(by_size)
    return [(size, by_size[size]) for size in order]
