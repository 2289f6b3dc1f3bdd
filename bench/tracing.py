"""Spans and counts around fmgame's public functions, for the traced run.

``Tracer.install`` replaces every name binding of each traced function in
the loaded ``fmgame`` modules (``fmgame.verify.oracle_solve_game`` as well
as ``fmgame.oracle.oracle_solve_game``, and the package's re-exports) with
a wrapper, and ``Tracer.restore`` puts every original back. A wrapper
records a span (id, parent, op, name, start, end) in memory; spans are
written out by ``write_spans`` after the run.

Per-layer numbers are aggregated over the ops that ended on their own. An
op stopped by its deadline is left out, because how far it got depends on
timing and its counts would not repeat from run to run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace

# Traced functions, as <module>.<function> under the fmgame package.
TRACED = (
    "cli.main",
    "verify.run_verification",
    "verify.compare_with_oracle",
    "oracle.oracle_solve_game",
    "oracle.oracle_best_effort",
    "oracle.oracle_solve_integrated",
    "numerics.golden_max",
    "numerics.golden_max_scalar",
    "numerics.largest_true",
    "numerics.bisect_root",
    "numerics.sign_change_brackets",
    "closed_form.solve_baseline",
    "closed_form.scenario_profits",
    "closed_form.regime_thresholds",
    "welfare.welfare_for_equilibrium",
    "welfare.mandate_equilibrium",
    "welfare.openness_trap_threshold",
    "extensions.integration_thresholds",
    "extensions.solve_subsidized",
    "extensions.solve_integrated",
    "sweep.run_sweep",
    "sweep.write_csv",
    "sweep.read_config",
    "params.validate",
)

# Functions whose first argument is a callback: its evaluations are counted
# under <name>.<counter>, golden_max's by array lanes, the rest one per call.
CALLBACK_COUNTERS = {
    "numerics.golden_max": "lane_evals",
    "numerics.golden_max_scalar": "evals",
    "numerics.largest_true": "pred_evals",
    "numerics.bisect_root": "evals",
    "numerics.sign_change_brackets": "evals",
}

# Functions whose first argument is a ModelParams: the key they are tracked
# by, and the ratio reported. param_reuse_ratio is the share of calls whose
# non-k inputs were already seen in the run; distinct_ratio is distinct
# inputs over calls.
KEYED = {
    "oracle.oracle_solve_game": "param_reuse_ratio",
    "closed_form.solve_baseline": "distinct_ratio",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.total_ms", "ms"),
                (f"{name}.self_ms", "ms")]
    out += [(f"{name}.{counter}", "count") for name, counter in CALLBACK_COUNTERS.items()]
    out += [(f"{name}.{ratio}", "fraction") for name, ratio in KEYED.items()]
    out += [("trace.untraced_run_s", "s"), ("trace.traced_run_s", "s"),
            ("trace.overhead_s", "s"), ("trace.overhead_share", "fraction")]
    return out


class Tracer:
    """Wraps the traced functions and keeps spans and counts in memory."""

    def __init__(self):
        self.spans: list = []          # (id, parent, op, name, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._op_counts: Counter = Counter()
        self._op_keys: list = []
        self._kept_ops: set[int] = set()
        self._seen: dict[str, set] = defaultdict(set)
        self._keyed_calls: Counter = Counter()
        self._reused: Counter = Counter()
        self._patched: list = []       # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded fmgame modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fmgame" or n.startswith("fmgame."))]
        for name in TRACED:
            mod_name, func_name = name.split(".")
            original = getattr(sys.modules[f"fmgame.{mod_name}"], func_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        counter = CALLBACK_COUNTERS.get(name)
        keyed = name in KEYED
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if counter is not None:
                args = (self._counting(f"{name}.{counter}", args[0],
                                       counter == "lane_evals"),) + args[1:]
            if keyed:
                params = args[0]
                key = replace(params, k=0.0) if KEYED[name] == "param_reuse_ratio" else params
                self._op_keys.append((name, (key, args[1:], tuple(sorted(kwargs.items())))))
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[sid] = (sid, parent, self._op, name, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, key: str, f, by_lanes: bool):
        counts = self._op_counts

        def counted(x, *rest):
            counts[key] += getattr(x, "size", 1) if by_lanes else 1
            return f(x, *rest)

        return counted

    # -- per-op bookkeeping ------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index
        self._op_counts.clear()
        self._op_keys.clear()

    def end_op(self, keep: bool) -> None:
        """Close the current op; its counts are merged only when ``keep``."""
        if keep:
            self._kept_ops.add(self._op)
            self.counts.update(self._op_counts)
            for name, key in self._op_keys:
                self._keyed_calls[name] += 1
                if key in self._seen[name]:
                    self._reused[name] += 1
                self._seen[name].add(key)
        self._op = -1

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_ms and self_ms per traced function, plus the counts."""
        child_s: dict[int, float] = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            if op in self._kept_ops:
                calls[name] += 1
                total[name] += end - start
                self_s[name] += end - start - child_s[sid]
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_ms"] = 1e3 * total[name]
            out[f"{name}.self_ms"] = 1e3 * self_s[name]
        for name, counter in CALLBACK_COUNTERS.items():
            out[f"{name}.{counter}"] = self.counts[f"{name}.{counter}"]
        for name, ratio in KEYED.items():
            n = self._keyed_calls[name]
            if ratio == "param_reuse_ratio":
                out[f"{name}.{ratio}"] = self._reused[name] / n if n else 0.0
            else:
                out[f"{name}.{ratio}"] = (n - self._reused[name]) / n if n else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")
