"""Stateful (model-based) test: an edge file vs a shadow model.

Hypothesis drives :class:`EdgeFile` through random operation sequences
while a seeded survivable :class:`FaultPlan` injects transient
read/write errors and torn reads underneath.  A plain in-memory shadow
model predicts every observable result: if retries ever corrupted,
duplicated, or dropped data, the shadow would disagree.
"""

import os

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage import BlockDevice, FaultPlan
from repro.storage.faults import FAULT_SEED_ENV_VAR

from .conftest import DEFAULT_FAULT_SEED

STATEFUL_FAULT_SEED = int(os.environ.get(FAULT_SEED_ENV_VAR, DEFAULT_FAULT_SEED))

#: Survivable plan; max_retries is generous so a hot seed cannot exhaust
#: the budget and fail a healthy sequence.
PLAN = FaultPlan.transient(STATEFUL_FAULT_SEED, rate=0.15)

values = st.integers(min_value=0, max_value=2**31 - 1)
edges = st.tuples(values, values)

machine_settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None
)


class EdgeFileVsShadow(RuleBasedStateMachine):
    """EdgeFile write-then-scan life cycle under faults vs a list."""

    def __init__(self):
        super().__init__()
        # fixed32 pinned: flushed_counts_agree asserts the exact
        # block-aligned flush boundary, which only holds for fixed32.
        self.device = BlockDevice(
            block_elements=8,
            fault_plan=PLAN,
            max_retries=64,
            backoff_seconds=0.0,
            block_codec="fixed32",
        )
        self.edge_file = self.device.create_edge_file()
        self.shadow = []

    @rule(edge=edges)
    def append(self, edge):
        self.edge_file.append(*edge)
        self.shadow.append(edge)

    @rule(batch=st.lists(edges, max_size=25))
    def extend(self, batch):
        self.edge_file.extend(batch)
        self.shadow.extend(batch)

    @rule(batch=st.lists(edges, max_size=25))
    def extend_columns(self, batch):
        self.edge_file.extend_columns(
            [u for u, _ in batch], [v for _, v in batch]
        )
        self.shadow.extend(batch)

    @invariant()
    def flushed_counts_agree(self):
        # Everything past the partial tail block must already be on disk.
        block = self.device.block_elements
        assert self.edge_file.edge_count == (len(self.shadow) // block) * block

    def teardown(self):
        try:
            self.edge_file.seal()
            assert self.edge_file.read_all() == self.shadow
            rescanned = [
                (int(u), int(v))
                for u_col, v_col in self.edge_file.scan_columns()
                for u, v in zip(u_col, v_col)
            ]
            assert rescanned == self.shadow
        finally:
            self.device.close()


TestEdgeFileVsShadow = EdgeFileVsShadow.TestCase
TestEdgeFileVsShadow.settings = machine_settings
