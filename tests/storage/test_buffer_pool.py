"""Unit tests for the logical memory budget."""

import pytest

from repro.errors import MemoryBudgetExceeded
from repro.storage import TREE_NODE_COST, MemoryBudget


class TestCharging:
    def test_charge_accumulates_per_label(self):
        budget = MemoryBudget(100)
        budget.charge("batch", 10)
        budget.charge("batch", 15)
        assert budget.used == 25
        assert budget.available == 75

    def test_overcharge_raises_and_leaves_state_unchanged(self):
        budget = MemoryBudget(50)
        budget.charge("tree", 30)
        with pytest.raises(MemoryBudgetExceeded):
            budget.charge("batch", 21)
        assert budget.used == 30

    def test_exact_fit_allowed(self):
        budget = MemoryBudget(50)
        budget.charge("all", 50)
        assert budget.available == 0

    def test_negative_charge_rejected(self):
        budget = MemoryBudget(10)
        with pytest.raises(ValueError):
            budget.charge("x", -1)


class TestModelConstants:
    def test_tree_charge_uses_paper_constant(self):
        budget = MemoryBudget(1000)
        assert budget.tree_charge(10) == TREE_NODE_COST * 10
        assert TREE_NODE_COST == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
