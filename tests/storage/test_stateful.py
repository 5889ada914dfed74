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

    @rule(label=labels, amount=st.integers(min_value=0, max_value=1200))
    def set_charge(self, label, amount):
        used_elsewhere = sum(v for k, v in self.model.items() if k != label)
        if amount <= 1000 - used_elsewhere:
            self.budget.set_charge(label, amount)
            if amount == 0:
                self.model.pop(label, None)
            else:
                self.model[label] = amount
        else:
            with pytest.raises(MemoryBudgetExceeded):
                self.budget.set_charge(label, amount)

    @rule(label=labels)
    def release(self, label):
        self.budget.release(label)
        self.model.pop(label, None)

    @invariant()
    def accounting_agrees(self):
        assert self.budget.used == sum(self.model.values())
        assert self.budget.available == 1000 - sum(self.model.values())
        for label, amount in self.model.items():
            assert self.budget.charged(label) == amount


TestMemoryBudgetStateful = MemoryBudgetMachine.TestCase
TestMemoryBudgetStateful.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
