"""The CI workflow parses cleanly and runs every Makefile gate.

YAML silently keeps the last of two duplicate mapping keys, so a job with
two ``runs-on``/``steps`` blocks loses its first half without any error.
The workflow is therefore loaded with a loader that rejects duplicates,
and every gate the Makefile defines must be invoked as ``make <gate>`` by
some job.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"

GATES = (
    "chaos",
    "verify-plans",
    "lint",
    "typecheck",
    "e2e-check",
    "bench-compare",
    "bench-parallel",
    "bench-compiled",
    "bench-storage",
    "bench-ivm",
    "bench-faults",
)


class _UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that fails on duplicate mapping keys."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _value_node in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _load(text):
    return yaml.load(text, Loader=_UniqueKeyLoader)


def _run_commands(workflow):
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            if "run" in step:
                yield step["run"]


def test_loader_rejects_duplicate_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'steps'"):
        _load("job:\n  steps: [a]\n  steps: [b]\n")


def test_workflow_has_no_duplicate_keys():
    workflow = _load(WORKFLOW.read_text(encoding="utf-8"))
    assert {"chaos", "static-analysis"} <= set(workflow["jobs"])


@pytest.mark.parametrize("gate", GATES)
def test_every_make_gate_runs_in_some_job(gate):
    workflow = _load(WORKFLOW.read_text(encoding="utf-8"))
    pattern = re.compile(rf"\bmake\s+{re.escape(gate)}(?![\w-])")
    assert any(pattern.search(command) for command in _run_commands(workflow))
