"""Trace containers: transactions, per-thread streams, whole workloads."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.common.constants import LINE_SIZE, WORD_SIZE
from repro.common.errors import TransactionError
from repro.trace.ops import Load, Op, Store


class Transaction:
    """One transaction: the memory operations between the markers.

    The ``Tx_begin`` / ``Tx_end`` markers themselves are implicit —
    every transaction in a trace is committed by the workload; crash
    injection decides which ones actually commit in a given run.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: Optional[Sequence[Op]] = None) -> None:
        self.ops: List[Op] = list(ops) if ops is not None else []

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def store(self, addr: int, value: int) -> "Transaction":
        self.ops.append(Store(addr, value))
        return self

    def load(self, addr: int) -> "Transaction":
        self.ops.append(Load(addr))
        return self

    # ------------------------------------------------------------------
    # Metrics (Fig. 4 and Fig. 13 inputs)
    # ------------------------------------------------------------------
    @property
    def stores(self) -> List[Store]:
        return [op for op in self.ops if type(op) is Store]

    @property
    def write_size_bytes(self) -> int:
        """Bytes the transaction writes: one word per store (Fig. 4)."""
        return WORD_SIZE * sum(1 for op in self.ops if type(op) is Store)

    def distinct_words(self) -> int:
        return len({op.addr for op in self.ops if type(op) is Store})

    def distinct_lines(self) -> int:
        mask = ~(LINE_SIZE - 1)
        return len({op.addr & mask for op in self.ops if type(op) is Store})

    def final_values(self) -> Dict[int, int]:
        """The last value written to each word (what commit makes
        durable)."""
        out: Dict[int, int] = {}
        for op in self.ops:
            if type(op) is Store:
                out[op.addr] = op.value
        return out

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"Transaction({len(self.ops)} ops, {self.write_size_bytes}B written)"


class ThreadTrace:
    """All transactions executed by one thread, in program order."""

    __slots__ = ("tid", "transactions")

    def __init__(
        self, tid: int, transactions: Optional[Sequence[Transaction]] = None
    ) -> None:
        if not 0 <= tid < 256:
            raise TransactionError(f"tid {tid} does not fit the 8-bit log field")
        self.tid = tid
        self.transactions: List[Transaction] = (
            list(transactions) if transactions is not None else []
        )

    def append(self, tx: Transaction) -> None:
        self.transactions.append(tx)

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)


class Trace:
    """A whole workload: per-thread streams plus the initial PM image."""

    def __init__(
        self,
        threads: Sequence[ThreadTrace],
        initial_image: Optional[Dict[int, int]] = None,
        name: str = "trace",
    ) -> None:
        self.threads: List[ThreadTrace] = list(threads)
        self.initial_image: Dict[int, int] = dict(initial_image or {})
        self.name = name

    # ------------------------------------------------------------------
    # Aggregate metrics
    # ------------------------------------------------------------------
    @property
    def total_transactions(self) -> int:
        return sum(len(t) for t in self.threads)

    @property
    def total_ops(self) -> int:
        """Engine-visible op count: each transaction's ops plus its
        implicit ``Tx_begin``/``Tx_end`` markers.  A crash plan's
        ``at_op`` ranges over ``0..total_ops`` inclusive."""
        return sum(
            len(tx.ops) + 2 for thread in self.threads for tx in thread.transactions
        )

    def all_transactions(self) -> Iterator[Transaction]:
        for thread in self.threads:
            yield from thread

    def mean_write_size_bytes(self) -> float:
        """Average bytes written per transaction (the Fig. 4 metric)."""
        sizes = [tx.write_size_bytes for tx in self.all_transactions()]
        return sum(sizes) / len(sizes) if sizes else 0.0

    def touched_words(self) -> Iterable[int]:
        """Every word address any transaction stores to (used by the
        atomic-durability checker to scope the comparison)."""
        words = set(self.initial_image)
        for tx in self.all_transactions():
            for op in tx.ops:
                if type(op) is Store:
                    words.add(op.addr)
        return words

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, {len(self.threads)} threads, "
            f"{self.total_transactions} transactions)"
        )
