"""``tools/check_docs.py --reach`` on a small tree built for the test."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_docs", Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)

FILES = {
    "src/pkg/__init__.py": "from .core import Server, check_determinism\n",
    "src/pkg/core.py": '''
def from_example():
    return 1


def only_tested():
    return 2


def in_readme():
    return 3


def check_determinism():
    return 4


class Server:
    def op_ping(self, request):
        return "pong"
''',
    "examples/demo.py": '''
import argparse

from pkg import Server
from pkg.core import from_example

args = argparse.Namespace(check_determinism=True)
print(from_example(), Server(), args.check_determinism)
''',
    "tests/test_core.py": '''
from pkg.core import only_tested


def test_only_tested():
    assert only_tested() == 2
''',
    "README.md": "Call `pkg.core.in_readme()` for three.\n",
}


def test_reports_exactly_the_test_only_and_collision_definitions(tmp_path):
    for rel, text in FILES.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    failures = check_docs.check_reach(tmp_path)

    assert sorted(line.split(": ", 1)[0] for line in failures) == [
        "src/pkg/core.py:check_determinism",
        "src/pkg/core.py:only_tested",
    ]
