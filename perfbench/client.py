"""Load generators: single-threaded closed loops on one connection.

Both loops send pre-encoded request lines and keep the raw reply bytes;
replies are decoded and checked only after the measured phase, so the
generator spends as little as possible of the CPU it shares with the
server.  Between trials, outside their timed spans, both run the
reference work, so each trial can be scaled to the reference CPU.
"""

from __future__ import annotations

import socket
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import measure


@dataclass
class LoopResult:
    send_ns: array = field(default_factory=lambda: array("q"))
    recv_ns: array = field(default_factory=lambda: array("q"))
    replies: List[bytes] = field(default_factory=list)
    #: wall seconds of every complete trial
    trials_s: List[float] = field(default_factory=list)
    #: reference work ns before the first trial and after each one
    refs_ns: List[int] = field(default_factory=list)
    #: generator CPU seconds, without the reference work's
    cpu_s: float = 0.0
    reference_cpu_s: float = 0.0
    #: last reply of a window (or the reference run after it) -> next
    #: window handed to the socket
    turnaround_ns: int = 0
    turnarounds: int = 0

    @property
    def sent(self) -> int:
        return len(self.send_ns)

    def latencies_s(self) -> List[float]:
        return [(r - s) / 1e9 for s, r in zip(self.send_ns, self.recv_ns)]

    def sample_reference(self) -> int:
        """Run the reference work; returns the clock after it."""
        cpu = time.process_time()
        self.refs_ns.append(measure.reference_ns())
        self.reference_cpu_s += time.process_time() - cpu
        return time.perf_counter_ns()

    def reply_lines(self) -> List[bytes]:
        return b"".join(self.replies).splitlines()

    def timings(self, trial_ops: int, tail: float):
        """``measure.timings`` of this loop's trials and latencies."""
        ends = [trial_ops * (trial + 1)
                for trial in range(len(self.trials_s))]
        return measure.timings(trial_ops, self.trials_s,
                               self.latencies_s(), ends,
                               measure.trial_factors(self.refs_ns), tail)


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=120)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def windowed(sock: socket.socket, lines: Sequence[bytes], window: int,
             seconds: float, trial_ops: int, min_trials: int = 1
             ) -> LoopResult:
    """Closed loop in windows: send ``window`` requests at once, and the
    next window when all of its replies are in.

    The server then gets the same batch every round and the two
    processes sharing a CPU switch once per window, not once per
    reply; a loop that releases one request per reply lets the
    interleaving drift, and its throughput with it.  Runs for
    ``seconds`` (and at least ``min_trials`` trials of ``trial_ops``
    replies, a whole number of windows)."""
    if trial_ops % window:
        raise ValueError(f"a trial of {trial_ops} replies is not a whole "
                         f"number of {window}-request windows")
    out = LoopResult()
    pool = len(lines)
    cpu = time.process_time()
    mark = out.sample_reference()
    deadline = mark + int(seconds * 1e9)
    ready = 0
    while True:
        first = out.sent
        burst = b"".join(lines[(first + k) % pool] for k in range(window))
        sent = time.perf_counter_ns()
        if ready:
            out.turnaround_ns += sent - ready
            out.turnarounds += 1
        sock.sendall(burst)
        out.send_ns.extend([sent] * window)
        done = first
        while done < out.sent:
            data = sock.recv(1 << 16)
            now = time.perf_counter_ns()
            if not data:
                raise ConnectionError("server closed the connection")
            out.replies.append(data)
            finished = data.count(b"\n")
            out.recv_ns.extend([now] * finished)
            done += finished
        ready = now
        if done % trial_ops == 0:
            out.trials_s.append((now - mark) / 1e9)
            mark = ready = out.sample_reference()
            if now >= deadline and len(out.trials_s) >= min_trials:
                break
    out.cpu_s = time.process_time() - cpu - out.reference_cpu_s
    return out


def sequential(sock: socket.socket, lines: Sequence[bytes],
               seconds: float, trial_ops: int, min_trials: int = 1,
               after_trial: Optional[Callable[[int], None]] = None
               ) -> LoopResult:
    """One request outstanding; ``lines`` cycle.  Trials are
    ``trial_ops`` consecutive requests; ``after_trial(n)`` runs between
    trials, outside the timed span of either."""
    out = LoopResult()
    reader = sock.makefile("rb")
    pool = len(lines)
    cpu = time.process_time()
    deadline = out.sample_reference() + int(seconds * 1e9)
    try:
        while True:
            began = time.perf_counter_ns()
            for _ in range(trial_ops):
                line = lines[out.sent % pool]
                sent = time.perf_counter_ns()
                sock.sendall(line)
                reply = reader.readline()
                received = time.perf_counter_ns()
                if not reply:
                    raise ConnectionError("server closed the connection")
                out.send_ns.append(sent)
                out.recv_ns.append(received)
                out.replies.append(reply)
            ended = time.perf_counter_ns()
            out.trials_s.append((ended - began) / 1e9)
            out.sample_reference()
            if after_trial is not None:
                after_trial(len(out.trials_s))
            if len(out.trials_s) >= min_trials and ended >= deadline:
                break
    finally:
        reader.close()
    out.cpu_s = time.process_time() - cpu - out.reference_cpu_s
    return out
