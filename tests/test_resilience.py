"""Tests for the resilience layer (repro.resilience).

The executor guarantees under test:

* transient exceptions are retried under the policy and succeed without
  losing other tasks' results;
* a worker crash (``BrokenProcessPool``) rebuilds the pool, resubmits
  unfinished tasks, and never recomputes completed ones;
* a hung task is killed at ``point_timeout`` and retried on a fresh
  pool; innocent in-flight tasks are requeued without an attempt charge;
* exhausted retry budgets become structured :class:`TaskFailure` records
  instead of propagating;
* ``on_result`` fires per completion and can drop queued tasks.

The journal guarantees: per-line durability, truncated trailing lines
skipped on load, header recovery.
"""

import json
import os
import time

import pytest

from repro.resilience import (
    CheckpointJournal,
    ExecutorStats,
    ResilientExecutor,
    RetryPolicy,
    TaskFailure,
)

# Fast backoff so retry-heavy tests stay quick.
FAST = dict(backoff_base=0.001, backoff_cap=0.01)


# Worker functions must be module-level (pickled by reference into the
# pool; visible in forked workers).
def _ok(x, attempt):
    return (x, attempt)


def _fail_then_ok(x, attempt):
    if attempt == 0:
        raise ValueError(f"transient failure on {x}")
    return x * 10


def _always_fail(x, attempt):
    raise RuntimeError(f"permanent failure on {x}")


def _crash_then_ok(x, attempt):
    if attempt == 0:
        os._exit(1)  # hard worker death -> BrokenProcessPool in the parent
    return x + 100


def _hang_then_ok(x, attempt):
    if attempt == 0:
        time.sleep(60.0)
    return x + 1000


def _slow_ok(x, attempt):
    time.sleep(0.1)
    return x


class TestRetryPolicy:
    def test_backoff_capped_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)
        assert policy.backoff(3) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_backoff_jitter_off_by_default(self):
        # Deterministic chaos replay depends on jitter-free backoff, so
        # the default must stay the plain capped exponential: repeated
        # calls for the same attempt return the exact same delay.
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert policy.jitter is False
        assert [policy.backoff(2) for _ in range(5)] == [policy.backoff(2)] * 5

    def test_backoff_jitter_draws_within_decorrelated_band(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=10.0, jitter=True)
        plain = 0.1 * 2.0**2
        draws = [policy.backoff(2) for _ in range(200)]
        assert all(0.1 <= d <= 3.0 * plain for d in draws)
        assert len(set(draws)) > 1, "jittered backoff never varied"

    def test_backoff_jitter_degenerate_band_falls_back_to_plain(self):
        # cap == base leaves no room to jitter: plain delay, no draw.
        policy = RetryPolicy(backoff_base=0.5, backoff_cap=0.5, jitter=True)
        assert [policy.backoff(a) for a in range(3)] == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(point_timeout=0.0),
            dict(point_timeout=-1.0),
            dict(point_timeout=float("nan")),
            dict(point_timeout=float("inf")),
            dict(backoff_base=-0.1),
            dict(backoff_cap=-1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestResilientExecutor:
    def test_all_success(self):
        ex = ResilientExecutor(2, RetryPolicy(**FAST))
        results, failures = ex.run(_ok, {i: (i,) for i in range(5)})
        assert failures == {}
        assert results == {i: (i, 0) for i in range(5)}
        assert ex.stats.completed == 5
        assert ex.stats.submitted == 5
        assert not ex.stats.eventful

    def test_transient_exception_retried(self):
        ex = ResilientExecutor(2, RetryPolicy(max_retries=2, **FAST))
        retried = []
        results, failures = ex.run(
            _fail_then_ok,
            {i: (i,) for i in range(3)},
            on_retry=lambda key, kind, attempt: retried.append(
                (key, kind, attempt)
            ),
        )
        assert failures == {}
        assert results == {i: i * 10 for i in range(3)}
        assert ex.stats.retries == 3
        assert sorted(retried) == [(i, "exception", 0) for i in range(3)]

    def test_terminal_exception_becomes_failure_record(self):
        ex = ResilientExecutor(1, RetryPolicy(max_retries=1, **FAST))
        results, failures = ex.run(_always_fail, {0: (0,), 1: (1,)})
        assert results == {}
        assert set(failures) == {0, 1}
        for key, failure in failures.items():
            assert isinstance(failure, TaskFailure)
            assert failure.kind == "exception"
            assert failure.attempts == 2  # first try + one retry
            assert "permanent failure" in failure.message
        assert ex.stats.failures == 2

    def test_worker_crash_rebuilds_pool_and_retries(self):
        ex = ResilientExecutor(1, RetryPolicy(max_retries=3, **FAST))
        results, failures = ex.run(_crash_then_ok, {7: (7,)})
        assert failures == {}
        assert results == {7: 107}
        assert ex.stats.pool_rebuilds >= 1

    def test_crash_does_not_lose_completed_results(self):
        # Task 0 completes before task 1 crashes its worker; the rebuild
        # must keep 0's result and only re-run 1.
        ex = ResilientExecutor(1, RetryPolicy(max_retries=3, **FAST))
        results, failures = ex.run(_mixed_crash, {0: (0,), 1: (1,)})
        assert failures == {}
        assert results == {0: 0, 1: 101}

    def test_hung_task_times_out_and_retries(self):
        ex = ResilientExecutor(
            1, RetryPolicy(max_retries=2, point_timeout=0.5, **FAST)
        )
        t0 = time.monotonic()
        results, failures = ex.run(_hang_then_ok, {3: (3,)})
        elapsed = time.monotonic() - t0
        assert failures == {}
        assert results == {3: 1003}
        assert ex.stats.timeouts == 1
        assert ex.stats.pool_rebuilds >= 1
        assert elapsed < 30.0  # the 60s hang was actually killed

    def test_timeout_exhaustion_is_terminal(self):
        ex = ResilientExecutor(
            1, RetryPolicy(max_retries=0, point_timeout=0.3, **FAST)
        )
        results, failures = ex.run(_always_hang, {0: (0,)})
        assert results == {}
        assert failures[0].kind == "timeout"
        assert failures[0].attempts == 1

    def test_on_result_streams_and_drops(self):
        # jobs=1 runs tasks in order; completing task 0 drops 2..4.
        ex = ResilientExecutor(1, RetryPolicy(**FAST))
        seen = []

        def on_result(key, value, attempts):
            seen.append((key, value, attempts))
            if key == 0:
                return [2, 3, 4]
            return None

        results, failures = ex.run(
            _ok, {i: (i,) for i in range(5)}, on_result=on_result
        )
        assert failures == {}
        assert set(results) == {0, 1}
        assert [s[0] for s in seen] == [0, 1]
        assert all(attempts == 1 for _, _, attempts in seen)

    def test_shared_stats_accumulate(self):
        stats = ExecutorStats()
        ResilientExecutor(1, RetryPolicy(**FAST), stats=stats).run(
            _ok, {0: (0,)}
        )
        ResilientExecutor(1, RetryPolicy(**FAST), stats=stats).run(
            _ok, {1: (1,)}
        )
        assert stats.completed == 2
        assert stats.as_dict()["completed"] == 2

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            ResilientExecutor(0)


def _mixed_crash(x, attempt):
    if x == 1 and attempt == 0:
        time.sleep(0.2)  # let task 0 finish first under jobs=1
        os._exit(1)
    return x + 100 if x == 1 else x


def _always_hang(x, attempt):
    time.sleep(60.0)
    return x


class TestCheckpointJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j" / "camp.jsonl"
        journal = CheckpointJournal(path)
        journal.start({"event": "campaign", "campaign": "abc"})
        journal.record({"event": "point", "index": 0, "latency": 1.5})
        journal.record({"event": "point", "index": 1, "latency": float("inf")})
        journal.close()
        header, entries = CheckpointJournal.load(path)
        assert header == {"event": "campaign", "campaign": "abc"}
        assert len(entries) == 2
        assert entries[1]["latency"] == float("inf")

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        journal = CheckpointJournal(path)
        journal.start({"event": "campaign"})
        journal.record({"event": "point", "index": 0})
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"event": "point", "ind')  # interrupted writer
        header, entries = CheckpointJournal.load(path)
        assert header == {"event": "campaign"}
        assert entries == [{"event": "point", "index": 0}]

    def test_missing_file(self, tmp_path):
        header, entries = CheckpointJournal.load(tmp_path / "nope.jsonl")
        assert header is None
        assert entries == []

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        for _ in range(2):
            journal = CheckpointJournal(path)
            journal.start({"event": "campaign"})
            journal.record({"event": "point", "index": 0})
            journal.close()
        _, entries = CheckpointJournal.load(path)
        assert len(entries) == 1

    def test_record_requires_start(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "camp.jsonl")
        with pytest.raises(RuntimeError, match="not open"):
            journal.record({"event": "point"})
