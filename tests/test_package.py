import posetalg


def test_every_exported_name_exists_once():
    assert len(posetalg.__all__) == len(set(posetalg.__all__))
    missing = [name for name in posetalg.__all__ if not hasattr(posetalg, name)]
    assert missing == []
