"""The run-equality cube drawn whole (``tests/config_cube.py``): any cell on
any neutral axes is the cell's reference run, and a scenario cell keeps the
prefix rule.  Every drawn config is one ``ProtocolParams`` accepts."""

from config_cube import POISSON, Cell, assert_prefix, check
from hypothesis import given, settings
from hypothesis import strategies as st

ARRIVALS = (
    (), POISSON,
    (("arrival_process", "poisson"), ("arrival_rate", 20.0), ("mempool_capacity", 12)),
)


@st.composite
def configs(draw):
    def pick(*values):
        return draw(st.sampled_from(values))

    cell = Cell(
        pick("cycledger", "rapidchain", "omniledger_sim"),
        pick(None, "partition-halves", "adaptive-corruption", "leader-crash", "churn"),
        pick(0.0, 0.2), pick(*ARRIVALS), pick(0, 16), draw(st.integers(0, 3)),
        draw(st.integers(2, 4)), pick((), (("m", 3),)),
    )
    neutral = dict(
        overlap=pick("semicommit", "none"), chain_retention=pick(0, 1, 2),
        report_retention=pick(None, 1, 2), trace=draw(st.booleans()),
        split=draw(st.none() | st.integers(1, cell.rounds - 1)),
        via=pick("memory", "file"), donor_runs_on=draw(st.booleans()),
    )
    return cell, neutral


@settings(max_examples=12, deadline=None)
@given(configs())
def test_config_cube(config):
    cell, neutral = config
    check(cell, **neutral)
    if cell.scenario:
        assert_prefix(cell)
