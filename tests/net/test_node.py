"""Nodes: reception logs, multi-antenna geometry."""

import numpy as np

from repro.net.node import Eavesdropper, Node, Terminal


class TestNode:
    def test_single_antenna_default(self):
        node = Node(name="a", position=(1.0, 2.0))
        assert node.antenna_positions() == [(1.0, 2.0)]


class TestTerminal:
    def test_record_and_query(self):
        t = Terminal(name="t")
        payload = np.arange(4, dtype=np.uint8)
        t.record(0, 7, payload)
        t.record(0, 9, payload)
        t.record(1, 7, payload)
        assert t.received_ids(0) == {7, 9}
        assert t.received_ids(1) == {7}
        assert t.received_ids(2) == set()

    def test_payloads_returned_per_round(self):
        t = Terminal(name="t")
        payload = np.arange(4, dtype=np.uint8)
        t.record(0, 3, payload)
        got = t.received_payloads(0)
        assert set(got) == {3}
        assert np.array_equal(got[3], payload)

    def test_clear(self):
        t = Terminal(name="t")
        t.record(0, 1, np.zeros(2, dtype=np.uint8))
        t.clear()
        assert t.received_ids(0) == set()


class TestEavesdropper:
    def test_extra_antennas_listed(self):
        eve = Eavesdropper(
            name="eve", position=(0.0, 0.0), extra_antennas=[(1.0, 1.0), (2.0, 2.0)]
        )
        assert eve.antenna_positions() == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]

    def test_reception_log(self):
        eve = Eavesdropper(name="eve")
        eve.record(0, 5, np.zeros(3, dtype=np.uint8))
        assert eve.received_ids(0) == {5}
        eve.clear()
        assert eve.received_ids(0) == set()
