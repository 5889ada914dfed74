"""Logical memory accounting for the semi-external model.

The paper's problem statement fixes a memory budget ``M`` with
``k * |V| <= M <= |G|`` where ``k`` is a small constant (the paper uses
``k = 3`` as its example) and ``|G| = |V| + |E|``.  :class:`MemoryBudget`
tracks named charges against ``M`` in *elements* — the same unit as the EM
model — so the algorithms can ask "how many more edges fit next to the
spanning tree?" without the answer depending on Python object overheads.
"""

from __future__ import annotations

from typing import Dict

from ..errors import MemoryBudgetExceeded

#: The paper's example constant: an in-memory spanning tree over ``n`` nodes
#: is charged ``k * n`` elements (parent pointer, sibling order key, depth).
TREE_NODE_COST = 3


class MemoryBudget:
    """Named element charges against a fixed budget ``M``.

    >>> budget = MemoryBudget(100)
    >>> budget.charge("tree", 60)
    >>> budget.available
    40
    >>> budget.charge("batch", 41)
    Traceback (most recent call last):
        ...
    repro.errors.MemoryBudgetExceeded: charging 41 elements under 'batch' exceeds budget: 60/100 used
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("memory capacity must be positive")
        self.capacity = capacity
        self._charges: Dict[str, int] = {}

    @property
    def used(self) -> int:
        """Total elements currently charged."""
        return sum(self._charges.values())

    @property
    def available(self) -> int:
        """Elements still free under the budget."""
        return self.capacity - self.used

    def charge(self, label: str, amount: int) -> None:
        """Add ``amount`` elements under ``label``.

        Raises:
            MemoryBudgetExceeded: if the charge would exceed the capacity.
        """
        if amount < 0:
            raise ValueError("charge amount must be non-negative")
        if amount > self.available:
            raise MemoryBudgetExceeded(
                f"charging {amount} elements under {label!r} exceeds budget: "
                f"{self.used}/{self.capacity} used"
            )
        self._charges[label] = self._charges.get(label, 0) + amount

    def tree_charge(self, node_count: int) -> int:
        """The element cost of an in-memory spanning tree over ``node_count``
        nodes (``k * n`` with the paper's ``k = 3``)."""
        return TREE_NODE_COST * node_count

    def __repr__(self) -> str:
        return (
            f"MemoryBudget(capacity={self.capacity}, used={self.used}, "
            f"charges={self._charges!r})"
        )
