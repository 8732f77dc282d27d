"""Tables 3–5 exactly, from one exhaustive (stride-1) sweep per topology.

EXPERIMENTS.md reports the best case (minimum-power source), the worst
case (maximum-power source) and the maximum protocol delay over every
source of each 512-node paper network.  One shared sweep of all 2,048
sources (symmetry-reduced, a few seconds) asserts those figures exactly.
"""

import pytest

from repro.analysis import SweepCache, table3_best, table4_worst, table5_delay

#: EXPERIMENTS.md's "ours" columns: Tx best, Tx worst, protocol delay.
TX_BEST = {"2D-3": 305, "2D-4": 208, "2D-8": 145, "3D-6": 152}
TX_WORST = {"2D-3": 351, "2D-4": 223, "2D-8": 168, "3D-6": 194}
MAX_DELAY = {"2D-3": 63, "2D-4": 46, "2D-8": 33, "3D-6": 25}


@pytest.fixture(scope="module")
def sweeps():
    return SweepCache.compute(stride=1)


def test_every_source_is_swept_and_reaches_all(sweeps):
    for label, sweep in sweeps.sweeps.items():
        assert len(sweep) == 512, label
        assert sweep.all_reached(), label


def test_table3_best_case_tx(sweeps):
    assert {row["topology"]: row["tx"]
            for row in table3_best(sweeps)} == TX_BEST


def test_table4_worst_case_tx(sweeps):
    assert {row["topology"]: row["tx"]
            for row in table4_worst(sweeps)} == TX_WORST


def test_table5_protocol_delay(sweeps):
    assert {row["topology"]: row["protocol_max_delay"]
            for row in table5_delay(sweeps)} == MAX_DELAY
