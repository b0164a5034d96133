"""The kernel holds nothing it no longer needs.

Each RPC attempt races the reply against a long timeout.  Once the race
is decided the losing event stays on the event list until it fires, and
whatever it still refers to stays alive that long: the collector then
rescans it on every collection as it is promoted.  And a reference cycle
among kernel objects is freed only by the collector, never by reference
counting.  ``gc.DEBUG_SAVEALL`` keeps what the collector finds in
``gc.garbage``, so no kernel object may show up there.
"""

import gc
import types
import weakref
from collections import Counter

import pytest

from repro.load import LoadConfig, run_load_cell
from repro.sim import Event, PoissonProcess, Simulator


class Reply:
    """A value an RPC returns; weakref-able, unlike ``None`` or an int."""


@pytest.mark.parametrize("winner", ["rpc", "timeout"])
def test_a_decided_race_lets_go_of_its_loser(winner):
    sim = Simulator()
    replies = []

    def rpc(delay):
        yield sim.timeout(delay)
        reply = Reply()
        replies.append(weakref.ref(reply))
        return reply

    rpc_delay, timeout_delay = (1.0, 2000.0) if winner == "rpc" else (2000.0, 1.0)
    call = sim.process(rpc(rpc_delay))
    timeout = sim.timeout(timeout_delay)

    def caller():
        yield sim.any_of([call, timeout])

    sim.process(caller())
    sim.run(until=1000.0)
    loser = timeout if winner == "rpc" else call
    assert loser.callbacks == []
    if winner == "rpc":
        del call
        assert replies[0]() is None  # freed before the timeout fires
    assert sim.peek() == 2000.0  # the loser itself is still scheduled
    sim.run()
    assert sim.now == 2000.0


def test_a_protected_load_cell_leaves_no_kernel_garbage():
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        cell = run_load_cell(
            PoissonProcess(200.0, seed=5),
            config=LoadConfig(duration_ms=3_000.0, drain_ms=10_000.0, n_users=200, seed=5),
            protection=True,
        )
        retries = cell.retries
        del cell
        gc.collect()
        # Process, Timeout and AnyOf/AllOf are Events.
        leaked = Counter(
            type(o).__name__
            for o in gc.garbage
            if isinstance(o, (Event, types.GeneratorType))
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert retries > 0  # shed attempts were retried
    assert not leaked
