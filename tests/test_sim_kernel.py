"""Property tests for the shared event kernel (repro.sim.kernel).

Generated push sequences — equal timestamps, mixed kinds, and pushes made
from inside handlers — must pop in strictly increasing ``(time, kind, seq)``
order with equal ``(time, kind)`` pairs in insertion order, under a strict
sim-sanitizer that records nothing.  Bad times must be rejected at push.
The package boundary is checked too: loading the simulators must not load
the static-analysis package.
"""

import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import SimulationError
from repro.obs import DigestRecorder
from repro.sim import EventKernel, SimSanitizer, installed

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]

#: Few distinct times and kinds, so generated sequences are full of ties.
TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0])
KINDS = st.integers(min_value=0, max_value=3)
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 1.0])

#: One handler-made push: (delay after the popped event, kind).
CHILDREN = st.lists(st.tuples(DELAYS, KINDS), max_size=3)


def _replay(initial, children):
    """Push ``initial``, then let the i-th popped event push ``children[i]``.

    A child at zero delay never takes a kind below its parent's, which is
    the loops' own rule: an event may not schedule work that should have
    run before it.  Returns the popped keys and each pop's push index.
    """
    kernel = EventKernel("prop")
    pushed = 0
    for time, kind in initial:
        kernel.push(time, kind, pushed)
        pushed += 1
    keys, order = [], []
    for index, (time, kind, seq, payload) in enumerate(kernel.drain()):
        keys.append((time, kind, seq))
        order.append(payload)
        for delay, child_kind in children[index] if index < len(children) else ():
            if delay == 0.0:
                child_kind = max(child_kind, kind)
            kernel.push(time + delay, child_kind, pushed)
            pushed += 1
    return keys, order, pushed


@settings(max_examples=150, deadline=None)
@given(
    initial=st.lists(st.tuples(TIMES, KINDS), min_size=1, max_size=30),
    children=st.lists(CHILDREN, max_size=30),
)
def test_pops_strictly_increase_and_ties_keep_insertion_order(initial, children):
    with installed(SimSanitizer(strict=True)) as sanitizer:
        keys, order, pushed = _replay(initial, children)
    assert len(keys) == pushed
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # seq is the push index, so equal (time, kind) pairs pop in push order.
    assert [key[2] for key in keys] == order
    for a, b, ia, ib in zip(keys, keys[1:], order, order[1:]):
        if a[:2] == b[:2]:
            assert ia < ib
    assert sanitizer.violations == []
    assert sanitizer.pops_observed == pushed


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), time=TIMES, kind=KINDS)
def test_equal_keys_pop_in_insertion_order(n, time, kind):
    kernel = EventKernel("prop")
    for index in range(n):
        kernel.push(time, kind, index)
    assert [event[3] for event in kernel.drain()] == list(range(n))


@settings(max_examples=80, deadline=None)
@given(
    bad=st.one_of(
        st.just(math.nan),
        st.just(math.inf),
        st.just(-math.inf),
        st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=False),
    )
)
def test_bad_times_are_rejected_at_push(bad):
    kernel = EventKernel("prop")
    with pytest.raises(SimulationError):
        kernel.push(bad, 0)
    assert len(kernel) == 0 and kernel.seq == 0


def test_drain_until_leaves_later_events_queued():
    kernel = EventKernel("prop")
    for time in (0.5, 1.0, 1.5):
        kernel.push(time, 0)
    assert [event[0] for event in kernel.drain(until=1.0)] == [0.5, 1.0]
    assert kernel.peek_time() == 1.5
    assert [event[0] for event in kernel.drain()] == [1.5]


def test_sanitizer_flags_a_push_behind_the_popped_key():
    # Same time, lower kind: the heap pops it next, but its key is below
    # the one just popped, so replay order would depend on push timing.
    kernel = EventKernel("prop")
    kernel.push(1.0, 2)
    with installed(SimSanitizer()) as sanitizer:
        for _time, kind, _seq, _payload in kernel.drain():
            if kind == 2:
                kernel.push(1.0, 1)
    assert [v.check for v in sanitizer.violations] == ["deterministic-tiebreak"]


def test_recorder_ticks_once_per_pop_with_kind_and_snapshot():
    recorder = DigestRecorder(interval=2, label="prop")
    calls = []

    def snapshot():
        calls.append(kernel.seq)
        return {"seq": kernel.seq}

    kernel = EventKernel("prop", recorder, snapshot)
    for time in (0.0, 1.0, 2.0):
        kernel.push(time, 1)
    list(kernel.drain())
    assert recorder.ticks == 3
    assert calls == [3]  # the snapshot runs only on the capturing tick
    assert recorder.entries[0].state == {"kind": 1, "seq": 3}


def test_simulation_modules_do_not_load_the_linter():
    code = (
        "import sys\n"
        "import repro.serve.driver, repro.cluster.engine\n"
        "import repro.core.event_backend, repro.faults.harness\n"
        "import repro.analysis.experiments\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.lint'))\n"
        "assert 'repro.lint' not in sys.modules, loaded\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
