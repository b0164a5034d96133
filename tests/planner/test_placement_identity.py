"""``Placement`` computes its ``key`` and hash once, at construction.

The cached hash must be the value the generated frozen-dataclass
``__hash__`` returned, so set and dict behaviour cannot move;
``dataclasses.replace`` must re-derive both; and pickling must not
carry the hash into another interpreter, whose string hashes differ.
"""

import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from repro.planner import Placement

SRC = Path(__file__).resolve().parents[2] / "src"


def _placement(**changes):
    placement = Placement(
        "ViewMailServer",
        "sandiego-gw",
        (("TrustLevel", 3),),
        (("ServerInterface", (("Confidentiality", True), ("TrustLevel", 3))),),
    )
    return replace(placement, **changes) if changes else placement


def _fields(p):
    return (p.unit, p.node, p.factor_values, p.implemented, p.reused)


def test_key_hash_and_equality_are_the_generated_ones():
    p = _placement()
    assert hash(p) == hash(_fields(p))
    assert p.key == ("ViewMailServer", "sandiego-gw", (("TrustLevel", 3),))
    twin = _placement()
    assert twin is not p and twin == p and hash(twin) == hash(p)
    assert {p: "v"}[twin] == "v" and twin in {p}
    # Equality still reads all five fields, not the key.
    assert p != replace(p, implemented=()) and p.key == replace(p, implemented=()).key
    assert repr(p) == "<Placement ViewMailServer[TrustLevel=3]@sandiego-gw>"


def test_replace_rederives_key_and_hash():
    p = _placement()
    reused = replace(p, reused=True)
    assert reused.reused and reused != p
    assert reused.key == p.key and hash(reused) == hash(_fields(reused)) != hash(p)
    moved = replace(p, node="seattle-gw")
    assert moved.key == ("ViewMailServer", "seattle-gw", (("TrustLevel", 3),))
    assert hash(moved) == hash(_fields(moved))


#: loads the pickled placements, then looks up freshly built equal ones
_LOADER = """
import pickle, sys
from repro.planner import Placement
p, as_dict, as_set = pickle.loads(sys.stdin.buffer.read())
fresh = Placement(p.unit, p.node, p.factor_values, p.implemented, p.reused)
assert hash(p) == hash((p.unit, p.node, p.factor_values, p.implemented, p.reused))
assert fresh == p and hash(fresh) == hash(p), "hash carried over"
assert as_dict[fresh] == "v" and fresh in as_set, "membership lost"
print("ok")
"""


def test_a_pickled_placement_rehashes_in_another_interpreter():
    p = _placement(reused=True)
    data = pickle.dumps((p, {p: "v"}, {p}))
    seed = os.environ.get("PYTHONHASHSEED", "random")
    other = "0" if seed == "random" else str(int(seed) + 1)
    env = dict(os.environ, PYTHONHASHSEED=other, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _LOADER], input=data, env=env, capture_output=True
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().strip() == "ok"
