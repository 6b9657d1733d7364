"""Process-pool experiment fan-out (``O2_NUM_PROCS``).

A fanned-out run must be *indistinguishable* from the serial one -- every
harness cell seeds its own RNG state, so the comparison table cannot depend
on which worker ran which cell, or in what order -- and a worker that dies
must fail the call instead of hanging it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import parallel
from repro.experiments.harness import HarnessConfig, compare_models


def test_env_procs_parsing(monkeypatch):
    monkeypatch.setattr(parallel, "_proc_override", None)
    for raw, expected in (("0", 0), ("off", 0), ("serial", 0), ("3", 3)):
        monkeypatch.setenv("O2_NUM_PROCS", raw)
        assert parallel.num_procs() == expected
    monkeypatch.delenv("O2_NUM_PROCS")
    assert parallel.num_procs() == 0  # serial by default
    monkeypatch.setenv("O2_NUM_PROCS", "auto")
    assert parallel.num_procs() >= 1
    monkeypatch.setenv("O2_NUM_PROCS", "bogus")
    with pytest.raises(ValueError):
        parallel.num_procs()


def test_set_num_procs_and_context_manager():
    previous = parallel.set_num_procs(4)
    try:
        assert parallel.num_procs() == 4
        with parallel.use_num_procs(0):
            assert parallel.num_procs() == 0
        assert parallel.num_procs() == 4
        with pytest.raises(ValueError):
            parallel.set_num_procs(-1)
    finally:
        parallel.set_num_procs(previous)


def test_process_map_preserves_item_order():
    items = list(range(20))
    assert parallel.process_map(_square, items, procs=4) == [
        i * i for i in items
    ]
    # Serial fallbacks: zero workers, single item.
    assert parallel.process_map(_square, items, procs=0) == [
        i * i for i in items
    ]
    assert parallel.process_map(_square, [7], procs=4) == [49]


def _square(x: int) -> int:  # top-level: must be picklable
    return x * x


def _explode_on_three(x: int) -> int:  # top-level: must be picklable
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x * x


def test_process_map_surfaces_worker_failures():
    """A worker exception names the failing chunk index and its args."""
    with pytest.raises(parallel.ProcessMapError) as excinfo:
        parallel.process_map(_explode_on_three, list(range(6)), procs=2)
    message = str(excinfo.value)
    assert "task 3" in message
    assert "ValueError" in message
    assert "bad item 3" in message
    assert "(item: 3)" in message


# Run in a child interpreter under a timeout: a pool that waits forever on
# a dead worker then fails this test instead of hanging the suite.
_WORKER_DEATH_SCRIPT = textwrap.dedent(
    """
    import os
    from repro import parallel

    def die_on_one(x):
        if x == 1:
            os._exit(1)
        return x

    try:
        parallel.process_map(die_on_one, range(4), procs=2)
    except parallel.ProcessMapError as exc:
        assert "died" in str(exc), exc
    else:
        raise SystemExit("a dead worker went unreported")
    # The broken pool died with its call: the next call gets a fresh one.
    fresh = parallel.process_map(abs, [-1, -2, -3], procs=2)
    assert fresh == [1, 2, 3], fresh
    print("ok")
    """
)


def test_process_map_raises_when_a_worker_dies():
    src = Path(parallel.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]
    ))
    done = subprocess.run(
        [sys.executable, "-c", _WORKER_DEATH_SCRIPT],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_process_map_serial_path_raises_original():
    """The serial fallback keeps the original exception (full traceback)."""
    with pytest.raises(ValueError, match="bad item 3"):
        parallel.process_map(_explode_on_three, list(range(6)), procs=0)


def test_compare_models_fanned_equals_serial():
    config = HarnessConfig(rounds=2, scale=0.35, epochs=3, patience=3)
    kwargs = dict(baselines=("GC-MC",), settings=("adaption",))

    with parallel.use_num_procs(0):
        serial = compare_models("real", config, **kwargs)
    with parallel.use_num_procs(2):
        fanned = compare_models("real", config, **kwargs)

    assert list(serial.rows) == list(fanned.rows)  # same rows, same order
    for key in serial.rows:
        for metric in serial.metrics:
            assert (
                serial.rows[key].series(metric).tolist()
                == fanned.rows[key].series(metric).tolist()
            ), (key, metric)
