"""Shipped guarantees, one pass/fail line per check; see isarpose.acceptance."""

import pytest

import isarpose.pose
from isarpose.acceptance import all_checks, check_pose_round_trip

_CHECKS = all_checks()


@pytest.mark.parametrize("name,check", _CHECKS,
                         ids=[name for name, _ in _CHECKS])
def test_acceptance(name, check):
    passed, detail = check()
    assert passed, detail


def test_pose_round_trip_fails_cleanly_when_no_frame_inverts(monkeypatch):
    # a guard no condition number passes leaves no frame to recover or
    # perturb: the check fails with its count instead of raising
    monkeypatch.setattr(isarpose.pose, "COND_GUARD", 0.0)
    passed, detail = check_pose_round_trip()
    assert not passed
    assert detail.startswith("0 frames")
