"""Seeded workload inputs and the CLI configuration each workload runs.

Every input is generated here from the workload seed and handed to the
program as a file: an edge list for the graph and, for workloads that use
the ``file`` partitioner, a partition file. The program itself sees only
those files and its command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Grid:
    """rows x cols 4-neighbour grid, vertex ids relabelled by a seeded
    permutation so that every seed gives a different input file."""

    rows: int
    cols: int

    def arcs(self, seed: int) -> tuple[int, np.ndarray]:
        n = self.rows * self.cols
        ids = np.arange(n, dtype=np.int64).reshape(self.rows, self.cols)
        right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
        down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
        return n, self.relabel(seed)[np.concatenate([right, down])]

    def relabel(self, seed: int) -> np.ndarray:
        """Grid position (row-major) -> vertex id in the written file."""
        return np.random.default_rng([int(seed), 0x6121]).permutation(self.rows * self.cols)

    def tiles(self, seed: int, tile_rows: int, tile_cols: int) -> np.ndarray:
        """Part id per vertex id for a tile_rows x tile_cols block partition."""
        r = np.arange(self.rows)[:, None] * tile_rows // self.rows
        c = np.arange(self.cols)[None, :] * tile_cols // self.cols
        parts = np.empty(self.rows * self.cols, dtype=np.int64)
        parts[self.relabel(seed)] = (r * tile_cols + c).ravel()
        return parts


@dataclass(frozen=True)
class RingChords:
    """Directed ring i -> i+1 plus `chords` seeded random arcs per vertex
    (no self loops, no repeated arcs)."""

    n: int
    chords: int

    def arcs(self, seed: int) -> tuple[int, np.ndarray]:
        rng = np.random.default_rng([int(seed), 0x52C4])
        src = np.arange(self.n, dtype=np.int64)
        ring = np.stack([src, (src + 1) % self.n], axis=1)
        want = self.n * (1 + self.chords)
        arcs = ring
        while len(arcs) < want:
            cand = rng.integers(0, self.n, size=(want, 2))
            cand = cand[cand[:, 0] != cand[:, 1]]
            merged = np.concatenate([arcs, cand])
            _, first = np.unique(merged, axis=0, return_index=True)
            arcs = merged[np.sort(first)][:want]
        return self.n, arcs


@dataclass(frozen=True)
class Workload:
    name: str
    graph: "Grid | RingChords"
    p: int
    partitioners: tuple[str, ...]
    epochs: int
    # The exact-volume identity (measured words == predicted words) is
    # checked only where the prediction is exact: full-batch runs on an
    # undirected graph. The directed prediction is built on the symmetrized
    # pattern and overestimates, so it is not checked yet.
    check_prediction: bool
    dims: tuple[int, ...] = (16, 16, 8)
    tiles: tuple[int, int] | None = None  # block partition for "file"
    directed: bool = False
    batch_size: int | None = None  # mini-batch mode when set
    batches: int = 8
    instances: int = 1  # seeded inputs per run, cycled in rounds

    def instance_seeds(self, seed: int) -> list[int]:
        """The seeds of the run's instances, derived from the workload seed."""
        return [int(x) for x in np.random.SeedSequence(int(seed)).generate_state(self.instances)]

    def write_inputs(self, seed: int, work: Path) -> list[str]:
        """Write the seeded input files into `work`; return the CLI argv
        (without --out)."""
        n, arcs = self.graph.arcs(seed)
        graph_path = work / f"{self.name}.txt"
        lines = [f"n={n}"] + [f"{u} {v}" for u, v in arcs.tolist()]
        graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [
            "--graph", str(graph_path),
            "-p", str(self.p),
            "--partitioner", ",".join(self.partitioners),
            "--dims", ",".join(map(str, self.dims)),
            "--layers", str(len(self.dims) - 1),
            "--epochs", str(self.epochs),
            "--seed", str(seed),
            "--scheduler", "round",
        ]
        if self.directed:
            argv.append("--directed")
        if self.batch_size is not None:
            argv += ["--mode", "mini", "--batch-size", str(self.batch_size),
                     "--batches", str(self.batches)]
        if self.tiles is not None:
            part_path = work / f"{self.name}.part"
            parts = self.graph.tiles(seed, *self.tiles)
            part_path.write_text("".join(f"{x}\n" for x in parts.tolist()), encoding="utf-8")
            argv += ["--partition-file", str(part_path)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fm-grid",
            graph=Grid(24, 24),
            p=8,
            partitioners=("rp", "gp", "hp"),
            epochs=2,
            check_prediction=True,
            instances=6,
        ),
        Workload(
            name="fullbatch-large",
            graph=Grid(84, 84),
            p=16,
            partitioners=("rp", "file"),
            epochs=2,
            check_prediction=True,
            tiles=(4, 4),
            instances=4,
        ),
        Workload(
            name="minibatch-directed",
            graph=RingChords(600, 2),
            p=4,
            partitioners=("rp", "shp"),
            epochs=2,
            check_prediction=False,
            directed=True,
            batch_size=120,
            batches=16,
            instances=4,
        ),
    )
}
