"""The planner's temporaries are freed by reference counting.

A plan's discarded completions, load reports, linkage graphs and the
DP's prefix trie must form no reference cycle: cyclic garbage waits for
the collector, and on a bind-heavy run the collector then spends a
tenth of the host time clearing it.  ``gc.DEBUG_SAVEALL`` keeps what
the collector finds in ``gc.garbage``, so none of these types may show
up there.
"""

import gc
from collections import Counter

from repro.planner import (
    DeploymentPlan,
    LinkageGraph,
    LoadReport,
    PlannedLinkage,
    Planner,
    PlanRequest,
)
from repro.planner.dp_chain import _Cell
from repro.services.mail import mail_translator

ACYCLIC = (_Cell, PlannedLinkage, LoadReport, DeploymentPlan, LinkageGraph)

BINDS = [
    ("sandiego-client1", "Bob"),
    ("seattle-client1", "Carol"),
    ("sandiego-client2", "Alice"),
    ("newyork-client1", "Alice"),
]


def test_binds_a_crash_replan_and_a_commit_leave_no_cyclic_garbage(mail_spec, fig5):
    planner = Planner(mail_spec, fig5.network, mail_translator(), algorithm="dp_chain")
    planner.preinstall("MailServer", fig5.server_node)
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        bound = {}
        for node, user in BINDS:
            request = PlanRequest("ClientInterface", node, context={"User": user})
            bound[node] = (request, planner.plan_and_commit(request)[0])
        # The cache both San Diego binds read from goes down.
        planner.network.set_node_up("sandiego-client1", False)
        request, previous = bound["sandiego-client2"]
        replanned = planner.replan_incremental(request, previous)
        assert replanned is not None
        planner.commit(replanned)
        del bound, request, previous, replanned
        gc.collect()
        leaked = Counter(type(o).__name__ for o in gc.garbage if isinstance(o, ACYCLIC))
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not leaked
