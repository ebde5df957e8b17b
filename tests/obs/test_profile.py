"""The sampling profiler: known call tree, collapsed-stack output."""

import threading
import time

from repro.obs.profile import SamplingProfiler, profile_call


def _spin_inner(deadline: float) -> int:
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(64))
    return total


def _spin_outer(deadline: float) -> int:
    return _spin_inner(deadline)


def test_profiler_sees_the_known_call_tree():
    profiler = SamplingProfiler(interval_s=0.002)
    with profiler:
        _spin_outer(time.perf_counter() + 0.25)
    assert profiler.samples > 10
    hot = [
        (stack, count)
        for stack, count in profiler.stacks().items()
        if any("_spin_inner" in frame for frame in stack)
    ]
    assert hot, "the spinning leaf was never sampled"
    stack = max(hot, key=lambda item: item[1])[0]
    # Root-first: thread name, then outer above inner.
    assert stack[0] == "MainThread"
    outer_at = next(
        i for i, frame in enumerate(stack) if "_spin_outer" in frame
    )
    inner_at = next(
        i for i, frame in enumerate(stack) if "_spin_inner" in frame
    )
    assert outer_at < inner_at


def test_collapsed_format_and_determinism(tmp_path):
    profiler = SamplingProfiler(interval_s=0.002)
    with profiler:
        _spin_outer(time.perf_counter() + 0.1)
    text = profiler.collapsed()
    assert text.endswith("\n")
    for line in text.splitlines():
        frames, _, count = line.rpartition(" ")
        assert frames, line
        assert count.isdigit(), line
        assert ";" in frames  # at least thread;frame
    # Hottest stack first; output is a pure function of the counts.
    counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()]
    assert counts == sorted(counts, reverse=True)
    assert profiler.collapsed() == text
    target = tmp_path / "prof.collapsed"
    assert profiler.write(target) == str(target)
    assert target.read_text() == text


def test_profiler_samples_other_threads():
    release = threading.Event()

    def worker():
        _spin_inner(time.perf_counter() + 0.3)
        release.wait(5.0)

    thread = threading.Thread(target=worker, name="prof-worker")
    profiler = SamplingProfiler(interval_s=0.002)
    thread.start()
    try:
        with profiler:
            time.sleep(0.15)
    finally:
        release.set()
        thread.join(5.0)
    roots = {stack[0] for stack in profiler.stacks()}
    assert "prof-worker" in roots
    # The profiler never samples its own ticker thread.
    assert "repro-profiler" not in roots


def test_run_for_aborts_early():
    abort = threading.Event()
    abort.set()
    profiler = SamplingProfiler(interval_s=0.002)
    started = time.perf_counter()
    profiler.run_for(30.0, abort=abort)
    assert time.perf_counter() - started < 5.0


def test_profile_call_returns_result_and_profile():
    result, profiler = profile_call(
        _spin_outer, time.perf_counter() + 0.05, interval_s=0.002
    )
    assert result > 0
    assert profiler.samples > 0
    assert "profile:" in profiler.summary()


def test_summary_lists_hottest_stacks():
    profiler = SamplingProfiler(interval_s=0.002)
    with profiler:
        _spin_outer(time.perf_counter() + 0.1)
    summary = profiler.summary(top=3)
    assert "distinct stacks" in summary
    assert "%" in summary
