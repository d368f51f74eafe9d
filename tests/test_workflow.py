"""The CI workflow parses as GitHub Actions reads it."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


class UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that rejects a mapping key given twice.

    GitHub Actions refuses a workflow with a duplicate key, while plain
    ``yaml.safe_load`` keeps the last value without a word.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def test_loader_rejects_duplicate_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'run'"):
        yaml.load("- name: a\n  run: x\n  run: y\n", Loader=UniqueKeyLoader)


def test_every_step_has_one_run_or_uses():
    doc = yaml.load(WORKFLOW.read_text(), Loader=UniqueKeyLoader)
    steps = 0
    for name, job in doc["jobs"].items():
        assert job["steps"], name
        for step in job["steps"]:
            assert ("run" in step) != ("uses" in step), (name, step)
            steps += 1
    assert steps > 0
