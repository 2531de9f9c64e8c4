"""The two-process path of a CSV or JSON sweep: one forked helper process
renders every other block after the first, which the sweep's own process
copies in between its own, and the output is the bytes of the one-process
rendering."""

import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from noonloss import cli
from noonloss.cli import EXIT_OK, EXIT_USAGE

from _helpers import run_cli

# every sweep kind, over ranges where each step is a distinct grid point, so a sweep has as many rows as steps
SWEEPS = {
    "eta": ["--var", "eta", "--start", "0.2", "--stop", "1", "--n", "41"],
    "L": ["--var", "L", "--start", "0", "--stop", "0.8", "--n", "7"],
    "N": ["--var", "N", "--start", "1", "--stop", "1e6", "--eta", "0.9"],
    "phi0": ["--var", "phi0", "--start", "0", "--stop", "3", "--n", "5", "--eta", "0.9"],
    "fig2": ["--fig2", "--loss", "0.01", "--start", "1", "--stop", "1e6", "--scale", "linear"],
    "fig3": ["--fig3", "--loss", "0.01", "--start", "1", "--stop", "1e6", "--scale", "linear"],
}


def sweep_argv(kind, rows, fmt):
    return ["sweep", *SWEEPS[kind], "--steps", str(rows), "--format", fmt]


def sweep_output(tmp_path, argv, to_file=False):
    """The text a successful sweep writes to stdout, or to an --out file."""
    target = tmp_path / "sweep.out"
    code, out, err = run_cli(*argv, *(["--out", str(target)] if to_file else []))
    assert (code, err) == (EXIT_OK, "")
    if to_file:
        assert out == ""
        out = target.read_text(encoding="utf-8")
        target.unlink()
    return out


def one_process_output(tmp_path, monkeypatch, argv, to_file=False):
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return sweep_output(tmp_path, argv, to_file)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked while the test runs, with two CPUs
    available whatever the host has."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
# after the first block, 4,001, 5,000, 7,000 and 12,345 rows leave an even count, whose last block is the
# helper's, and 6,000 and 8,000 an odd count (5 and 7), whose last block is this process's
@pytest.mark.parametrize("rows", [4001, 5000, 6000, 7000, 8000, 12345])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", list(SWEEPS))
def test_a_sweep_of_five_blocks_or_more_forks_once_and_writes_the_one_process_bytes(
        tmp_path, monkeypatch, forks, kind, fmt, rows, to_file):
    argv = sweep_argv(kind, rows, fmt)
    forked = sweep_output(tmp_path, argv, to_file)
    assert len(forks) == 1
    assert_no_child_left()
    assert one_process_output(tmp_path, monkeypatch, argv, to_file) == forked
    assert len(forks) == 1
    if fmt == "csv":
        assert forked.count("\n") == rows + 1
    else:
        assert len(json.loads(forked)) == rows


# a kernel that fails on the sweep's last block, which the helper computes: eta 0.2 to 1 over 5,000 rows
# is 5 blocks, the helper's the 2nd and 4th of the 4 after the first, and the last one starts at eta = 0.84
FAILING_TAIL = """
import os, sys
from noonloss import analytics, cli
os.sched_getaffinity = lambda pid: {0, 1}
precision_grid = analytics.precision_grid
def failing(n, etas, *rest):
    if len(etas) == cli.CHUNK_ROWS and etas[0] > 0.8:
        raise MemoryError
    return precision_grid(n, etas, *rest)
analytics.precision_grid = failing
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a child process is left")
"""


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_helper_that_fails_is_one_error_line_from_the_parent(tmp_path, fmt, to_file):
    argv = sweep_argv("eta", 5000, fmt) + (["--out", str(tmp_path / "sweep.out")] if to_file else [])
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", FAILING_TAIL, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: the sweep's helper process "), proc.stderr
    assert proc.stderr.endswith(" exited with status 1\n") and proc.stderr.count("\n") == 1, proc.stderr


class FailingStream(io.StringIO):
    """A text stream whose third write fails, as a full disk would fail it."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 3:
            raise OSError(28, "No space left on device")
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_write_that_fails_mid_head_kills_and_reaps_the_helper(monkeypatch, capsys, forks, fmt):
    kills = []
    kill = os.kill

    def recorded(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", recorded)
    monkeypatch.setattr(sys, "stdout", FailingStream())
    assert cli.main(sweep_argv("eta", 10_000, fmt)) == EXIT_USAGE
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert kills == [(forks[0], signal.SIGKILL)]
    assert_no_child_left()


@pytest.mark.parametrize("rows, kept, handed", [
    (4001, [1000, 3000], [2000, 4000]),
    (6000, [1000, 3000, 5000], [2000, 4000]),
    (7000, [1000, 3000, 5000], [2000, 4000, 6000]),
])
def test_the_helper_takes_every_other_block_after_the_first(rows, kept, handed):
    def kernel(points):
        return [points]

    blocks = cli._SweepBlocks(list(range(rows)), kernel, kernel(list(range(cli.CHUNK_ROWS))))
    assert [block[0][0] for block in blocks.cut()] == handed
    assert [block[0][0] for block in blocks] == [0, *kept]


def fail_on_fork():
    pytest.fail("os.fork was called")


@pytest.mark.parametrize("condition", ["thread", "one-cpu", "no-temporary-file", "tail-of-one-block", "text"])
def test_each_no_fork_condition_writes_the_same_bytes_in_one_process(tmp_path, monkeypatch, condition):
    argv = sweep_argv("eta", 3000 if condition == "tail-of-one-block" else 5000,
                      "text" if condition == "text" else "json")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    expected = one_process_output(tmp_path, monkeypatch, argv)
    monkeypatch.setattr(os, "fork", fail_on_fork)
    if condition == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif condition == "no-temporary-file":
        def no_file(*args, **kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    if condition != "thread":
        assert sweep_output(tmp_path, argv) == expected
        return
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert sweep_output(tmp_path, argv) == expected
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# a kernel that takes a second over each block the helper computes: eta 0.2 to 1 over 10,000 rows is 10
# blocks, the helper's 4 of the 9 after the first
SLOW_TAIL = """
import os, sys, time
from noonloss import analytics, cli
os.sched_getaffinity = lambda pid: {0, 1}
precision_grid = analytics.precision_grid
main = os.getpid()
def slow(n, etas, *rest):
    if os.getpid() != main:
        time.sleep(1)
    return precision_grid(n, etas, *rest)
analytics.precision_grid = slow
sys.exit(cli.main(sys.argv[1:]))
"""


def running(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs Linux's /proc children list")
def test_a_helper_whose_parent_is_killed_stops_after_the_block_in_hand(tmp_path):
    proc = subprocess.Popen([sys.executable, "-c", SLOW_TAIL, *sweep_argv("eta", 10_000, "csv"),
                             "--out", str(tmp_path / "sweep.csv")])
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    deadline = time.monotonic() + 60
    while proc.poll() is None and not children.read_text().split() and time.monotonic() < deadline:
        time.sleep(0.01)
    helper = int(children.read_text().split()[0])
    proc.kill()
    proc.wait(timeout=60)
    # with 4 one-second blocks to go, a helper that outlived its parent would run for about 4 s more
    deadline = time.monotonic() + 2.5
    while running(helper) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running(helper)
