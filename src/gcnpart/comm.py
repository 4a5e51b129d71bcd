"""Point-to-point communication planning for a row-partitioned matrix.

For ranks m != n, send[m][n] lists the global rows owned by m that appear
as nonzero columns in n's rows: exactly the feature/gradient rows n must
receive from m, each listed once however many local rows of n reference
it. recv_from[m] lists the ranks m expects a message from. The plan is a
pure function of the matrix pattern and the row ownership, computed once
before training. The backward phase uses the plan of the transposed
matrix, which is the forward plan when the matrix equals its transpose.

Send selectors are sorted index lists (not stored diagonal matrices);
receivers index payload rows positionally against the sorted list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import Partition
from .sparse import CsrMatrix, unique_keys


@dataclass(frozen=True)
class CommPlan:
    p: int
    owner: np.ndarray
    send: tuple  # send[m][n]: sorted global row ids m ships to n; send[m][m] empty
    recv_from: tuple  # recv_from[m]: ascending ranks with a nonempty send to m

    def __post_init__(self):
        owner = np.asarray(self.owner, dtype=np.int64)
        owner.setflags(write=False)
        object.__setattr__(self, "owner", owner)

    @cached_property
    def receives(self) -> tuple:
        """receives[m]: (sender, rows) of each message to m, by sender rank."""
        return tuple([(int(s), len(self.send[s][m])) for s in self.recv_from[m]] for m in range(self.p))

    def to_report(self) -> dict:
        """JSON-ready summary: per-pair row counts and per-rank totals."""
        pairs = {}
        for m in range(self.p):
            for n in range(self.p):
                if len(self.send[m][n]):
                    pairs[f"{m}->{n}"] = int(len(self.send[m][n]))
        sent_rows = [int(sum(len(lst) for lst in self.send[m])) for m in range(self.p)]
        msgs = [int(sum(1 for lst in self.send[m] if len(lst))) for m in range(self.p)]
        return {
            "p": self.p,
            "pair_row_counts": pairs,
            "rows_sent_per_rank": sent_rows,
            "messages_per_rank": msgs,
            "total_rows_sent": int(sum(sent_rows)),
            "total_messages": int(sum(msgs)),
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
    return plan_from_lists(p, owner, keys % n, np.searchsorted(keys // n, np.arange(p * p + 1)))


def plan_from_lists(p: int, owner, ids: np.ndarray, bounds: np.ndarray) -> CommPlan:
    """The plan whose list m -> c is ids[bounds[m * p + c] : bounds[m * p + c + 1]]."""
    b = bounds.tolist()
    send = tuple(tuple(ids[b[q] : b[q + 1]] for q in range(m * p, m * p + p)) for m in range(p))
    sizes = np.diff(bounds)
    return CommPlan(p, owner, send, tuple(np.flatnonzero(sizes[m::p]) for m in range(p)))


@dataclass(frozen=True)
class PlanVolume:
    words_per_proc: np.ndarray
    total_words: int
    msgs_per_proc: np.ndarray
    total_msgs: int


def plan_volume(plan: CommPlan, d: int) -> PlanVolume:
    """Words and message counts for one d-wide transfer round of the plan."""
    words = np.array(
        [d * sum(len(lst) for lst in plan.send[m]) for m in range(plan.p)], dtype=np.int64
    )
    msgs = np.array(
        [sum(1 for lst in plan.send[m] if len(lst)) for m in range(plan.p)], dtype=np.int64
    )
    return PlanVolume(words, int(words.sum()), msgs, int(msgs.sum()))
