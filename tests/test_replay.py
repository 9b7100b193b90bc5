"""The replay record: every run of ``tests/replay.py``'s matrix gives the
exit code, stdout and stderr whose digest was recorded."""

import replay


def test_every_run_replays_its_recorded_digest():
    assert replay.check() == []
