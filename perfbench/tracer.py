"""In-memory spans around qwalk1d's public functions, for the traced run.

The package is not edited: :func:`installed` swaps each traced function for a
timing wrapper in every ``qwalk1d`` module namespace that holds it (so names
bound by ``from .x import y`` are wrapped too) and restores the originals on
exit.  Spans nest; each layer is charged its self time, i.e. its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

from qwalk1d import algebra_check, cheb_engine, cli, direct_walk, limit_law

# (module, attribute, span name).  evolve and evolve_snapshots share one span.
TARGETS = [
    (cli, "cmd_simulate", "cli.verb_simulate"),
    (cli, "cmd_limit", "cli.verb_limit"),
    (cli, "cmd_charfn", "cli.verb_charfn"),
    (cli, "cmd_asym", "cli.verb_asym"),
    (cli, "cmd_algebra", "cli.verb_algebra"),
    (cli, "load_config", "cli.load_config"),
    (cli, "atomic_write", "cli.atomic_write"),
    (direct_walk, "evolve", "direct_walk.evolve"),
    (direct_walk, "evolve_snapshots", "direct_walk.evolve"),
    (direct_walk, "distribution", "direct_walk.distribution"),
    (direct_walk, "distribution_to_csv", "direct_walk.distribution_to_csv"),
    (cheb_engine, "qn_distribution", "cheb_engine.qn_distribution"),
    (cheb_engine, "transfer_polys", "cheb_engine.transfer_polys"),
    (cheb_engine, "char_fn_components", "cheb_engine.char_fn_components"),
    (cheb_engine, "cross_series", "cheb_engine.cross_series"),
    (cheb_engine.LaurentPoly, "eval", "cheb_engine.laurent_eval"),
    (limit_law, "kolmogorov_distance", "limit_law.kolmogorov_distance"),
    (limit_law, "cdf_grid", "limit_law.cdf_grid"),
    (limit_law, "limit_char_fn", "limit_law.limit_char_fn"),
    (limit_law, "asym_integrals", "limit_law.asym_integrals"),
    (limit_law, "asym_limits", "limit_law.asym_limits"),
    (limit_law, "density_cdf_csv", "limit_law.density_cdf_csv"),
    (algebra_check, "build_rep", "algebra_check.build_rep"),
    (algebra_check, "verify_relations", "algebra_check.verify_relations"),
]

# bench.task spans one whole task; its self time is the CLI's argument parsing
# and dispatch plus the benchmark's own output checks.
SPAN_NAMES = list(dict.fromkeys(name for _, _, name in TARGETS)) + ["bench.task"]

# Work counters, each with the unit it is reported in.
COUNTERS = {
    "cli.atomic_write_bytes": "B",
    "direct_walk.site_steps": "count",
    "direct_walk.distribution_to_csv_rows": "count",
    "cheb_engine.recurrence_steps": "count",
    "limit_law.cdf_grid_points": "count",
}


class Tracer:
    """Span self times, call and exception counts and work counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.exceptions = defaultdict(int)
        self.counts = defaultdict(float)
        self._child_s = []  # one accumulator per open span
        self._task_max_n = 0
        self.recurrence_useful = 0

    @contextlib.contextmanager
    def span(self, name: str):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.exceptions[name] += 1
            raise
        finally:
            duration = time.perf_counter() - start
            self.self_s[name] += duration - self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += duration
            self.calls[name] += 1

    @contextlib.contextmanager
    def task(self):
        """Scope of one verb invocation or library-check block.

        The largest n a task hands to ``transfer_polys`` is the recurrence
        length it needs; everything beyond that is rebuilt work.
        """
        self._task_max_n = 0
        try:
            with self.span("bench.task"):
                yield
        finally:
            self.recurrence_useful += self._task_max_n

    def note_recurrence(self, n: int) -> None:
        self.counts["cheb_engine.recurrence_steps"] += n
        self._task_max_n = max(self._task_max_n, n)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round, as name -> (value, unit)."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = (self.self_s[name] / rounds, "s")
            out[f"{name}_calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}_exceptions"] = (self.exceptions[name] / rounds, "count")
        for name, unit in COUNTERS.items():
            out[name] = (self.counts[name] / rounds, unit)
        steps = self.counts["direct_walk.site_steps"]
        out["direct_walk.ns_per_site_step"] = (
            1e9 * self.self_s["direct_walk.evolve"] / steps if steps else 0.0,
            "ns",
        )
        rec = self.counts["cheb_engine.recurrence_steps"]
        out["cheb_engine.recurrence_useful_ratio"] = (
            self.recurrence_useful / rec if rec else 0.0,
            "ratio",
        )
        return out


def _wrap_call(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        _count(tracer, name, args, kwargs)
        return result

    return wrapper


def _count(tracer: Tracer, name: str, args, kwargs) -> None:
    """Work counters computed from a call's arguments."""
    if name == "cli.atomic_write":
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.counts["cli.atomic_write_bytes"] += len(text.encode())
    elif name == "direct_walk.evolve":
        n = args[2] if len(args) > 2 else kwargs["n"]
        tracer.counts["direct_walk.site_steps"] += n * n
    elif name == "direct_walk.distribution_to_csv":
        tracer.counts["direct_walk.distribution_to_csv_rows"] += args[0].probs.shape[0]
    elif name == "cheb_engine.transfer_polys":
        tracer.note_recurrence(args[0] if args else kwargs["n"])
    elif name == "limit_law.cdf_grid":
        ys = args[1] if len(args) > 1 else kwargs["ys"]
        tracer.counts["limit_law.cdf_grid_points"] += len(ys)


def _wrap_snapshots(tracer: Tracer, fn, name: str):
    """Time every ``next()`` of the generator, not just its creation.

    Advancing from step m to step n processes windows of 2k + 1 sites for
    k = m .. n-1, i.e. n^2 - m^2 site steps.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        last = 0
        while True:
            with tracer.span(name):
                try:
                    n, st = next(gen)
                except StopIteration:
                    return
            tracer.counts["direct_walk.site_steps"] += n * n - last * last
            last = n
            yield n, st

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced qwalk1d function through ``tracer`` for the block."""
    namespaces = [
        vars(mod) for key, mod in list(sys.modules.items())
        if key == "qwalk1d" or key.startswith("qwalk1d.")
    ]
    undo = []
    try:
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            wrap = _wrap_snapshots if attr == "evolve_snapshots" else _wrap_call
            wrapped = wrap(tracer, original, name)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))
                continue
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapped
                        undo.append((ns, key, original))
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
