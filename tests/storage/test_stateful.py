"""Hypothesis stateful (model-based) tests for the storage substrate."""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.errors import MemoryBudgetExceeded
from repro.storage import MemoryBudget


class MemoryBudgetMachine(RuleBasedStateMachine):
    """Drive a MemoryBudget against a dict model."""

    labels = Bundle("labels")

    def __init__(self):
        super().__init__()
        self.budget = MemoryBudget(1000)
        self.model = {}

    @initialize()
    def start(self):
        self.model = {}

    @rule(target=labels, name=st.sampled_from(["a", "b", "c", "d"]))
    def make_label(self, name):
        return name

    @rule(label=labels, amount=st.integers(min_value=0, max_value=400))
    def charge(self, label, amount):
        used = sum(self.model.values())
        if amount <= 1000 - used:
            self.budget.charge(label, amount)
            self.model[label] = self.model.get(label, 0) + amount
        else:
            with pytest.raises(MemoryBudgetExceeded):
                self.budget.charge(label, amount)

    @invariant()
    def accounting_agrees(self):
        assert self.budget.capacity == 1000
        assert self.budget.used == sum(self.model.values())
        assert self.budget.available == 1000 - sum(self.model.values())


TestMemoryBudgetStateful = MemoryBudgetMachine.TestCase
TestMemoryBudgetStateful.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
