"""Capture the golden span trees from the checkout on the path.

``tests/core/data/semirt_span_trees.json`` was written by this script
running against commit b7c0bf4 (``core/semirt.py`` as one 1,894-line
module with four hand-copied ECALL cycles)::

    PYTHONPATH=<checkout of b7c0bf4>/src python scripts/make_span_goldens.py

so ``tests/core/test_semirt_span_trees.py`` pins every later serving
core to that one's span names, parentage, statuses and attribute keys.
Re-running it against a newer checkout only re-derives the file from the
code under test; do that deliberately, never to make a test pass.

The scenarios live in the test module (this script loads it by path), so
the capture and the assertion can never drift apart.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEST_MODULE = ROOT / "tests/core/test_semirt_span_trees.py"


def main() -> None:
    spec = importlib.util.spec_from_file_location("span_tree_scenarios", TEST_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    document = {
        "row": ["span name", "status", "sorted attribute keys", "children"],
        "trees": module.capture(),
    }
    module.GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    module.GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(document['trees'])} trees to {module.GOLDEN}")


if __name__ == "__main__":
    main()
