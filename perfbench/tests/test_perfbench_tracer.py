"""Self-tests of the benchmark's tracing: wrappers, spans, self time."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import pytest  # noqa: E402

from perfbench.capture import Capture  # noqa: E402
from perfbench.tracer import PATCHES, Tracer, _resolve, install, self_times  # noqa: E402


def _targets():
    """Every (owner, attr) the traced run replaces."""
    from perfbench.tracer import _arrival_classes

    out = [_resolve(module, path) for module, path, *_ in PATCHES]
    out += [
        _resolve("repro.simulator.soa", "load_c_kernel"),
        _resolve("repro.simulator.batch", "load_c_kernel_batch"),
        _resolve("repro.backends.worker", "atomic_write_json"),
    ]
    out += [(cls, "sample_gaps") for cls in _arrival_classes()]
    return out


def test_every_wrapper_is_removed_afterwards():
    targets = _targets()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr in targets]
    assert all(orig is not None for _o, _a, orig in before)
    with Capture():
        with install(Tracer()) as installed:
            assert len(installed.patches) == len(targets)
            for owner, attr, orig in before:
                assert vars(owner)[attr] is not orig, f"{owner}.{attr} not wrapped"
    for owner, attr, orig in before:
        assert vars(owner)[attr] is orig, f"{owner}.{attr} not restored"


def test_wrappers_removed_when_the_job_raises():
    targets = _targets()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with install(Tracer()):
            raise RuntimeError("job failed")
    for owner, attr, orig in before:
        assert vars(owner)[attr] is orig


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def work(dt):
        clock.now += dt

    leaf = tr.wrap("leaf", lambda: work(2.0), keep=True)

    def mid_body():
        work(1.0)
        leaf()
        work(0.5)
        leaf()

    mid = tr.wrap("mid", mid_body, keep=True)

    def root_body():
        work(3.0)
        mid()
        work(1.0)
        leaf()

    root = tr.wrap("root", root_body, keep=True)
    root()
    # root: 3 + mid(1 + 2 + 0.5 + 2) + 1 + leaf 2 = 11.5; self = 4
    # mid: 5.5, self 1.5; leaf x3: 2 each, self 2
    assert tr.agg["root"] == [1, 11.5, 7.5]
    assert tr.agg["mid"] == [1, 5.5, 4.0]
    assert tr.agg["leaf"] == [3, 6.0, 0.0]
    assert tr.pairs[("root", "mid")] == 5.5
    assert tr.pairs[("root", "leaf")] == 2.0
    assert tr.pairs[("mid", "leaf")] == 4.0
    by_name = {}
    for sid, st in self_times(tr.spans).items():
        name = next(s[2] for s in tr.spans if s[0] == sid)
        by_name[name] = by_name.get(name, 0.0) + st
    assert by_name == {"root": 4.0, "mid": 1.5, "leaf": 6.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        (1, 0, "parent", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),  # overlaps a by 1
        (4, 1, "c", 9.0, 12.0),  # runs past the parent's end
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[2] == st[3] == st[4] == 3.0


def test_other_threads_pass_through_untraced():
    import threading

    tr = Tracer()
    f = tr.wrap("f", lambda: 1)
    t = threading.Thread(target=f)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    assert tr.agg["f"][0] == 0
    f()
    assert tr.agg["f"][0] == 1
