"""Sharded (optionally multiprocess) construction of index ball tables.

The driver splits the source list into fixed-size blocks, runs the
vectorized kernel (:mod:`repro.indexing.kernels`) on each block, and
returns the resulting :class:`~repro.indexing.kernels.BallTables`
shards plus build counters.  With ``workers > 1`` the blocks fan out
over a ``ProcessPoolExecutor``: the CSR arrays and the per-node rate
vector are shipped to each worker once through the pool initializer
(copy-on-write shared under the default ``fork`` start method), and
each worker returns one compact array shard — cheap to pickle, and the
exact layout the on-disk store writes.  Tiny builds fall back to the
serial path automatically: below :data:`MIN_PARALLEL_SOURCES` sources a
process pool costs more than it saves.

Because every block is computed independently from the same immutable
inputs, parallel and serial builds produce identical tables —
``tests/test_properties_persistence.py`` pins that property.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.datagraph import DataGraph
from ..rwmp.dampening import DampeningModel
from .kernels import BallTables, ball_tables

#: Sources per kernel block (bounds the (block, nodes) working matrices).
DEFAULT_BLOCK_SIZE = 128

#: Below this many sources the pool startup dominates: build serially.
MIN_PARALLEL_SOURCES = 64


@dataclasses.dataclass(frozen=True)
class BuildStats:
    """Counters of one index build (surfaced by ``cirank ... --stats``).

    Attributes:
        method: ``"kernel"``, ``"kernel-parallel"``, or ``"reference"``.
        workers: process count the build ran with (1 = in-process).
        sources: number of source nodes expanded.
        entries: total (source, target) entries materialized.
        blocks: number of kernel blocks (== shards).
        seconds: wall-clock build time.
    """

    method: str
    workers: int
    sources: int
    entries: int
    blocks: int
    seconds: float

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return dataclasses.asdict(self)


def node_rates(graph: DataGraph, dampening: DampeningModel) -> np.ndarray:
    """The per-node dampening-rate vector the kernels consume."""
    return np.fromiter(
        dampening.rates, dtype=np.float64, count=graph.node_count
    )


# Worker-side state, installed once per process by the pool initializer.
_WORKER_PAYLOAD: Optional[tuple] = None


def _worker_init(payload: tuple) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _worker_block(sources: np.ndarray) -> BallTables:
    (nbr_offsets, nbr_targets, rates, horizon, max_ball, d_max, keep) = (
        _WORKER_PAYLOAD
    )
    return ball_tables(
        nbr_offsets, nbr_targets, sources, rates,
        horizon, max_ball=max_ball, d_max=d_max, keep=keep,
    )


def build_ball_tables(
    graph: DataGraph,
    dampening: DampeningModel,
    sources: Sequence[int],
    horizon: int,
    max_ball: int = 0,
    keep: Optional[np.ndarray] = None,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Tuple[List[BallTables], BuildStats]:
    """Build the ball-table shards for ``sources``.

    Args:
        graph: the data graph (its compiled CSR view feeds the kernel).
        dampening: supplies per-node rates and the ``d_max`` cap.
        sources: node ids to expand (all nodes for the pairs index, the
            star nodes for the star index).
        horizon: BFS horizon.
        max_ball: per-source ball size valve (0 = unlimited).
        keep: optional boolean node mask; only kept nodes are emitted as
            targets (ball expansion still crosses every node).
        workers: process count; ``<= 1`` or a tiny source list builds
            serially in-process.
        block_size: sources per kernel block / shard.

    Returns:
        ``(shards, stats)`` — one :class:`BallTables` per block, in
        source order, plus the build counters.
    """
    start = time.perf_counter()
    compiled = graph.compiled()
    source_array = np.asarray(sources, dtype=np.int64)
    rates = node_rates(graph, dampening)
    d_max = dampening.max_rate()
    keep_array = None if keep is None else np.asarray(keep, dtype=bool)
    block_size = max(1, int(block_size))
    blocks = [
        source_array[i:i + block_size]
        for i in range(0, source_array.size, block_size)
    ]
    payload = (
        compiled.nbr_offsets, compiled.nbr_targets, rates,
        int(horizon), int(max_ball), float(d_max), keep_array,
    )
    parallel = (
        workers > 1
        and source_array.size >= MIN_PARALLEL_SOURCES
        and len(blocks) > 1
    )
    if parallel:
        pool_size = min(int(workers), len(blocks))
        with ProcessPoolExecutor(
            max_workers=pool_size,
            initializer=_worker_init,
            initargs=(payload,),
        ) as executor:
            shards = list(executor.map(_worker_block, blocks))
        method = "kernel-parallel"
        effective_workers = pool_size
    else:
        shards = [
            ball_tables(
                compiled.nbr_offsets, compiled.nbr_targets, block, rates,
                int(horizon), max_ball=int(max_ball), d_max=float(d_max),
                keep=keep_array,
            )
            for block in blocks
        ]
        method = "kernel"
        effective_workers = 1
    stats = BuildStats(
        method=method,
        workers=effective_workers,
        sources=int(source_array.size),
        entries=sum(shard.entry_count for shard in shards),
        blocks=len(shards),
        seconds=time.perf_counter() - start,
    )
    return shards, stats


def tables_to_dicts(
    shards: Sequence[BallTables],
) -> Tuple[Dict[int, Dict[int, Tuple[int, float]]], Dict[int, int]]:
    """Convert shards into the index classes' dict-of-dict tables."""
    entries: Dict[int, Dict[int, Tuple[int, float]]] = {}
    radius: Dict[int, int] = {}
    for shard in shards:
        for source, rad, targets, distances, retentions in shard.rows():
            radius[source] = rad
            entries[source] = {
                target: (dist, retention)
                for target, dist, retention in zip(
                    targets.tolist(), distances.tolist(), retentions.tolist()
                )
            }
    return entries, radius
