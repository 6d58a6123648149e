"""posetalg's command-line output against tests/golden_manifest.json.

A change that alters output regenerates the manifest with
`PYTHONPATH=src python tests/golden.py --regenerate` and names the changed
keys in CHANGES.md.
"""

import pytest

import golden


@pytest.fixture(scope="module")
def manifest():
    return golden.load_manifest()


@pytest.mark.parametrize("group", list(golden.GROUPS))
def test_output_matches_the_manifest(group, manifest):
    changed = golden.changed_keys(
        golden.group_digests(group), golden.in_group(manifest, group)
    )
    assert changed == [], "output changed for %d keys: %s" % (len(changed), changed)


def test_every_manifest_key_belongs_to_a_group(manifest):
    assert {k.split(" ", 1)[0] for k in manifest} == set(golden.GROUPS)
