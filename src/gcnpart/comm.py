"""Point-to-point communication planning for a row-partitioned matrix.

For ranks m != c, list m -> c holds the global rows owned by m that
appear as nonzero columns in c's rows: exactly the feature/gradient rows
c must receive from m, each listed once however many local rows of c
reference it. The plan is a pure function of the matrix pattern and the
row ownership, computed once before training. The backward phase uses the
plan of the transposed matrix, which is the forward plan when the matrix
equals its transpose.

The plan is CSR over the p x p (sender, receiver) pairs; receivers index
payload rows positionally against each sorted list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import Partition
from .sparse import CsrMatrix, unique_keys


def _frozen(x) -> np.ndarray:
    out = np.asarray(x, dtype=np.int64).view()  # a read-only view; x stays writable
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CommPlan:
    """List m -> c is ids[bounds[m * p + c] : bounds[m * p + c + 1]] (list
    m -> m is empty). Cached read-only views of these: sizes[m, c], the
    length of list m -> c; send[m][c], the list; recv_from[c], the
    ascending ranks with a nonempty list to c; and receives[c], the
    (sender, rows) of each message to c by sender rank."""

    p: int
    owner: np.ndarray  # each row's rank
    ids: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        for name in ("owner", "ids", "bounds"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @cached_property
    def sizes(self) -> np.ndarray:
        return _frozen(np.diff(self.bounds).reshape(self.p, self.p))

    @cached_property
    def send(self) -> tuple:
        b, p = self.bounds.tolist(), self.p
        return tuple(tuple(self.ids[b[q] : b[q + 1]] for q in range(m * p, m * p + p)) for m in range(p))

    @cached_property
    def recv_from(self) -> tuple:
        return tuple(_frozen(np.flatnonzero(self.sizes[:, c])) for c in range(self.p))

    @cached_property
    def receives(self) -> tuple:
        return tuple([(s, int(self.sizes[s, c])) for s in self.recv_from[c].tolist()] for c in range(self.p))

    def to_report(self) -> dict:
        """JSON-ready summary: per-pair row counts and per-rank totals."""
        rows, msgs = self.sizes.sum(axis=1).tolist(), np.count_nonzero(self.sizes, axis=1).tolist()
        return {
            "p": self.p,
            "pair_row_counts": {f"{m}->{c}": int(self.sizes[m, c]) for m, c in zip(*np.nonzero(self.sizes))},
            "rows_sent_per_rank": rows,
            "messages_per_rank": msgs,
            "total_rows_sent": sum(rows),
            "total_messages": sum(msgs),
        }


def build_comm_plan(a: CsrMatrix, pi: "Partition | np.ndarray", p: int | None = None) -> CommPlan:
    """Plan for computing A_m @ X with X conformably row-partitioned.

    pi may be a Partition or a bare owner array (the latter is used for
    mini-batch instances, where some ranks may own no batch rows).
    """
    if a.n_rows != a.n_cols:
        raise ValueError("matrix must be square")
    if isinstance(pi, Partition):
        owner = pi.assignment
        p = pi.p
    else:
        owner = np.asarray(pi, dtype=np.int64)
        if p is None:
            raise ValueError("p is required when passing a bare owner array")
    if len(owner) != a.n_rows:
        raise ValueError("every row needs an owner")
    if len(owner) and (owner.min() < 0 or owner.max() >= p):
        raise ValueError("owner id out of range")

    # one sorted key per (sender, consumer, column) a consumer row needs
    n = a.n_rows
    consumer = owner[np.repeat(np.arange(n, dtype=np.int64), a.row_nnz())]
    sender = owner[a.col_indices]
    cross = consumer != sender
    keys = unique_keys((sender[cross] * p + consumer[cross]) * n + a.col_indices[cross])
    return CommPlan(p, owner, keys % n, np.searchsorted(keys // n, np.arange(p * p + 1)))

