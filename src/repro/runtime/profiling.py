"""Profiling observability: cProfile capture + compact top-N tables.

Two consumers (see DESIGN.md §Routing handlers — every shortfall
analysis in this repo's performance PRs started from exactly this
table):

* ``python -m repro bench --profile`` — the simulator bench suite
  profiles one more run per end-to-end row and attaches the
  top-N cumulative table to the row's JSON entry (and the CLI prints
  it), so "where did the time go at aodv/200" is one flag away instead
  of an ad-hoc script;
* :class:`StageProfiler` — the :class:`~repro.runtime.session.Session`
  stage hook.  ``Session(profile_stages=True)`` (or
  ``$REPRO_PROFILE_STAGES=1``) wraps every timed pipeline stage
  (``simulate`` / ``extract`` / ``fit`` / ``stream`` / ``fleet``) in a
  profiler and keeps one table per stage name.

Tables are returned as plain data (list of per-function dicts) so they
can ride JSON payloads; :func:`render_profile` turns one into the
aligned text the CLI prints.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager
from typing import Callable, Iterator

#: Default number of functions per table — enough to see past the run
#: loop into the handler/medium/mobility split without scrolling.
DEFAULT_TOP = 15


def profile_top(profiler: cProfile.Profile, top: int = DEFAULT_TOP) -> list[dict]:
    """The ``top`` functions by cumulative time, as JSON-friendly rows.

    Each row carries the ``pstats`` per-function quadruple (primitive
    calls, total calls, self seconds, cumulative seconds) plus a short
    ``function`` label (``file:line(name)`` with the path reduced to its
    basename).
    """
    stats = pstats.Stats(profiler)
    rows = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, line, name = func
        if filename == "~":  # builtins: pstats renders these as {name}
            label = name
        else:
            label = f"{filename.rpartition('/')[2]}:{line}({name})"
        rows.append({
            "function": label,
            "ncalls": nc,
            "primitive_calls": cc,
            "self_seconds": round(tt, 4),
            "cumulative_seconds": round(ct, 4),
        })
    rows.sort(key=lambda r: -r["cumulative_seconds"])
    return rows[:top]


def render_profile(rows: list[dict], indent: str = "  ") -> str:
    """One aligned text table for a :func:`profile_top` row list."""
    lines = [
        f"{indent}{'ncalls':>10s} {'self(s)':>9s} {'cum(s)':>9s}  function"
    ]
    for r in rows:
        calls = (
            str(r["ncalls"])
            if r["ncalls"] == r["primitive_calls"]
            else f"{r['ncalls']}/{r['primitive_calls']}"
        )
        lines.append(
            f"{indent}{calls:>10s} {r['self_seconds']:9.3f} "
            f"{r['cumulative_seconds']:9.3f}  {r['function']}"
        )
    return "\n".join(lines)


def profile_call(fn: Callable, *args, top: int = DEFAULT_TOP, **kwargs):
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, rows)`` where ``rows`` is the
    :func:`profile_top` table of the call.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    return result, profile_top(profiler, top)


class StageProfiler:
    """One cProfile table per named pipeline stage.

    Re-entering a stage name accumulates into the same profiler, so a
    sweep's many ``simulate`` batches land in one ``simulate`` table.
    """

    def __init__(self, top: int = DEFAULT_TOP):
        self.top = top
        self._profilers: dict[str, cProfile.Profile] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        profiler = self._profilers.get(name)
        if profiler is None:
            profiler = self._profilers[name] = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()

    @property
    def stages(self) -> list[str]:
        return list(self._profilers)

    def table(self, name: str) -> list[dict]:
        """The top-N rows for one stage (empty if the stage never ran)."""
        profiler = self._profilers.get(name)
        if profiler is None:
            return []
        return profile_top(profiler, self.top)

    def render(self) -> str:
        """All stage tables as one printable report."""
        blocks = []
        for name in self._profilers:
            blocks.append(f"stage {name}:")
            blocks.append(render_profile(self.table(name)))
        return "\n".join(blocks) if blocks else "(no stages profiled)"
