"""Capture the golden span trees from the checkout on the path.

Two goldens, one per twin:

- ``tests/core/data/semirt_span_trees.json`` (the live serving core) was
  written by this script running against commit b7c0bf4
  (``core/semirt.py`` as one 1,894-line module with four hand-copied
  ECALL cycles), so ``tests/core/test_semirt_span_trees.py`` pins every
  later serving core to that one's span names, parentage, statuses and
  attribute keys;
- ``tests/core/data/sim_span_trees.json`` (the simulation actors) was
  first written against commit 842e36c, where every sim actor charged
  its Figure-4 stages by hand, and pins ``tests/core/test_sim_span_trees.py``.

Run it as::

    PYTHONPATH=<checkout>/src python scripts/make_span_goldens.py

which writes both.  Re-running it against a newer checkout only
re-derives the files from the code under test; do that deliberately,
never to make a test pass.

The scenarios live in the test modules (this script loads them by path),
so the capture and the assertion can never drift apart.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEST_MODULES = (
    ROOT / "tests/core/test_semirt_span_trees.py",
    ROOT / "tests/core/test_sim_span_trees.py",
)


def write_golden(path: pathlib.Path) -> None:
    """Run one test module's scenarios and write its ``GOLDEN`` file."""
    spec = importlib.util.spec_from_file_location(f"span_trees_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    document = {
        "row": ["span name", "status", "sorted attribute keys", "children"],
        "trees": module.capture(),
    }
    module.GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    module.GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(document['trees'])} trees to {module.GOLDEN}")


def main() -> None:
    sys.path.insert(0, str(ROOT))  # the scenarios import tests.conftest
    for path in TEST_MODULES:
        write_golden(path)


if __name__ == "__main__":
    main()
