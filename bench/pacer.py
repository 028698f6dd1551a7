"""Reference loop that measures how fast the shared CPU runs, moment by moment.

    python3 bench/pacer.py SAMPLES.json

raises its nice value by 10, prints ``ready`` and runs three fixed
pure-Python units of work in turn until it receives SIGTERM, then writes its
samples to SAMPLES.json: after each round, the monotonic time and the CPU
seconds spent so far in each unit.

The speed of a virtual CPU on a shared host changes by up to a factor of two
within seconds, and the CPU time of a process changes with it.  Two processes
pinned to the same CPU see the same changes, while two on different CPUs do
not.  ``run.py`` therefore pins itself, and with it every measured process, to
one CPU and starts the pacer there, where at nice 10 it takes about a tenth
of the CPU.  ``Pace.ref_seconds`` then scales a measured process's CPU time by
the pacer's speed over the same interval: the result is the CPU time the work
would take at the units' ``NOMINAL`` speed, in reference seconds.

Contention slows different kinds of code by different factors, so the speed
is a weighted geometric mean over the units, weighted towards the kind of
work the measured step does (``run.WORKLOAD_WEIGHTS``):

* ``edit`` -- an edit-distance table over two fixed strings, the inner loop of
  the phonetics layer;
* ``scan`` -- 1,500 dict lookups spread over a 200,000-word table, like the
  mock provider's key scan;
* ``text`` -- a JSON round trip, a regex split, Unicode normalisation,
  sorting, CSV writing and a ``difflib`` match over mixed-script lyrics.

Over five runs per workload on a 2-vCPU Xeon host, the chosen weights left
a coefficient of variation of 0.7-2.1%, where wall time left 4-12% and a unit
that does not match the workload 5-11%.
"""

from __future__ import annotations

import bisect
import csv
import difflib
import io
import json
import os
import re
import signal
import sys
import time
import unicodedata

_A = "the quick brown fox jumps over"
_B = "a quick brown dog leaps over it"
_TEXT = ("And there's a butterfly over the garden, 나비가 정원 위를 날아가요 "
         "蝶が庭の上を飛んでいる, la mariposa vuela sobre el jardín, le papillon vole. ") * 2
_DOC = {"song": "song-0001",
        "lines": [{"n": i, "text": _TEXT[i:i + 30], "score": i / 7} for i in range(12)]}


def _edit() -> int:
    prev = list(range(len(_B) + 1))
    for x in _A:
        cur = [prev[0] + 1]
        for j, y in enumerate(_B, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _text() -> int:
    doc = json.loads(json.dumps(_DOC))
    words = re.findall(r"\w+", _TEXT)
    size = sum(len(unicodedata.normalize("NFD", w)) for w in words)
    ranked = sorted(((len(w), w.lower()) for w in words))
    buf = io.StringIO()
    csv.writer(buf).writerows([[w, n, f"{n / 3:.6f}"] for n, w in ranked[:20]])
    match = difflib.SequenceMatcher(None, _TEXT[:60], _TEXT[20:80]).ratio()
    return size + len(buf.getvalue()) + int(match * 100) + len(doc["lines"])


_TABLE = 200_000


def _scan(words: list[str], index: dict[str, int], start: int) -> int:
    hits = 0
    for k in range(start, start + 1500 * 211, 211):
        hits += index[words[k % _TABLE]] & 1
    return hits


# units per CPU second that define one reference second, about the speed of
# a 2020s server core
NOMINAL = {"edit": 2500.0, "scan": 1000.0, "text": 3500.0}


class Pace:
    """The pacer's samples, read back after it has stopped."""

    def __init__(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            self.samples = json.load(fh)
        self.times = [s[0] for s in self.samples]

    def rates(self, start: float, end: float) -> dict[str, float]:
        """Units per CPU second of each kind between two monotonic times."""
        lo = max(1, bisect.bisect_left(self.times, start))
        hi = min(len(self.samples) - 1, bisect.bisect_right(self.times, end) - 1)
        if hi <= lo:
            raise ValueError("no pacer samples in the measured interval")
        first, last = self.samples[lo - 1], self.samples[hi]
        return {kind: (hi - lo + 1) / (last[1 + k] - first[1 + k])
                for k, kind in enumerate(NOMINAL)}

    def ref_seconds(self, cpu_s: float, start: float, end: float,
                    weights: dict[str, float]) -> float:
        """CPU seconds scaled by the weighted geometric mean of unit speeds."""
        rates = self.rates(start, end)
        scale = 1.0
        for kind, weight in weights.items():
            scale *= (rates[kind] / NOMINAL[kind]) ** weight
        return cpu_s * scale


def main() -> int:
    path = sys.argv[1]
    os.nice(10)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    # built here, not at import: run.py imports this module for ``Pace``
    words = [f"word{i * 7919 % 1_000_003}-{i}" for i in range(_TABLE)]
    index = {word: i for i, word in enumerate(words)}
    units = (_edit, lambda: _scan(words, index, 7 * len(samples) % _TABLE), _text)
    spent = [0.0] * len(units)
    print("ready", flush=True)
    samples = []
    while not stop:
        for k, unit in enumerate(units):
            cpu = time.process_time()
            unit()
            spent[k] += time.process_time() - cpu
        samples.append((time.monotonic(), *spent))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
