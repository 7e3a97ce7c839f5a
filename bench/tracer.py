"""Span tracing from the benchmark's side of the library boundary.

The tracer replaces public functions with timing wrappers under the
name their caller looks up: ``solve_shift`` finds ``partition_value``
in ``qentropy.shift``, so the wrapper is installed there; the CLI
imported ``solve_shift`` into ``qentropy.cli``, so it gets its own
wrapper of the same function.  Constructors are wrapped on the class.

Spans are aggregated in memory by (scope, call path): count, total
time, time covered by wrapped children, and how many raised.  Self
time is total minus children.  The per-layer metrics are derived from
that table when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

#: functions wrapped in each module's namespace, as looked up by its callers.
WRAPPED = {
    "shift": ("partition_value", "partition_derivative", "feasibility", "solve_shift",
              "shifted_distribution"),
    "entropy": ("shifted_distribution", "uncertainty", "compose", "two_state_sweep"),
    "maxent": ("shifted_distribution", "maxent_distribution", "mean_energy", "solve_beta",
               "escort_distribution", "stationarity_residual"),
    "cli": ("partition_value", "feasibility", "solve_shift", "uncertainty", "compose",
            "two_state_sweep", "maxent_distribution", "mean_energy", "solve_beta",
            "stationarity_residual", "escort_distribution", "dumps_report", "main"),
}
#: classes whose constructor is wrapped.
CONSTRUCTED = ("Spectrum", "Distribution")

CLI_COMMANDS = ("shift", "entropy", "maxent", "compose", "escort", "sweep", "sweep-partition")

#: counts read off return values: name -> (key, extractor).
EXTRACTED = {
    "shift.solve_shift": ("iterations", lambda solution: solution.iterations),
    "maxent.escort_distribution": ("updates", lambda solution: solution.iterations),
}


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []
        self._scope = ""
        self._undo: list[tuple[object, str, object]] = []
        #: (scope, path) -> [count, total_s, children_s, raised]
        self.spans: dict[tuple[str, tuple[str, ...]], list] = {}
        #: (name, key) -> summed value over successful calls
        self.values: dict[tuple[str, str], float] = {}

    @contextlib.contextmanager
    def scope(self, name: str):
        """Tag the spans opened inside the block (the CLI subcommand)."""
        previous, self._scope = self._scope, name
        try:
            yield
        finally:
            self._scope = previous

    def install(self, lib) -> None:
        for module_name, attrs in WRAPPED.items():
            module = getattr(lib, module_name)
            for attr in attrs:
                self._wrap(module, attr)
        for cls_name in CONSTRUCTED:
            self._wrap(getattr(lib.core, cls_name), "__init__", f"core.{cls_name}.__init__")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, name: str | None = None) -> None:
        original = getattr(owner, attr)
        if name is None:
            name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
        stack, spans, values = self._stack, self.spans, self.values
        key, extract = EXTRACTED.get(name, (None, None))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if stack and stack[-1][0][-1] == name:
                # a recursive call (dumps_report) stays inside the outer span
                return original(*args, **kwargs)
            path = stack[-1][0] + (name,) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            raised = 1
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                raised = 0
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = spans.setdefault((self._scope, path), [0, 0.0, 0.0, 0])
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]
                record[3] += raised
            if extract is not None:
                values[(name, key)] = values.get((name, key), 0.0) + extract(result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def aggregate(self, name: str, parent: str | None = None, under: str | None = None,
                  scope: str | None = None) -> tuple[int, float, float, int]:
        """(count, total_s, children_s, raised) of the spans of ``name``.

        ``parent`` keeps spans called directly from that span, ``under``
        spans with that span anywhere above them, ``scope`` one CLI
        subcommand.
        """
        count = raised = 0
        total = children = 0.0
        for (span_scope, path), (c, t, ch, r) in self.spans.items():
            if path[-1] != name:
                continue
            if parent is not None and (len(path) < 2 or path[-2] != parent):
                continue
            if under is not None and under not in path[:-1]:
                continue
            if scope is not None and span_scope != scope:
                continue
            count += c
            total += t
            children += ch
            raised += r
        return count, total, children, raised

    def table(self) -> list[dict]:
        return [
            {"scope": scope, "path": list(path), "count": c, "total_s": t,
             "self_s": t - ch, "raised": r}
            for (scope, path), (c, t, ch, r) in sorted(self.spans.items())
        ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, floors: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the span table; 0 where a workload makes no such call."""
    agg = tracer.aggregate
    m: dict[str, float] = {}

    for cls_name, metric in (("Spectrum", "core.spectrum_init_ms"),
                             ("Distribution", "core.distribution_init_ms")):
        c, t, _, _ = agg(f"core.{cls_name}.__init__")
        m[metric] = _ratio(t, c) * 1e3

    solves, solve_t, _, solve_raised = agg("shift.solve_shift")
    kernel_n = kernel_t = inner_n = inner_t = 0.0
    for kernel in ("shift.partition_value", "shift.partition_derivative"):
        c, t, _, _ = agg(kernel)
        kernel_n += c
        kernel_t += t
        c, t, _, _ = agg(kernel, parent="shift.solve_shift")
        inner_n += c
        inner_t += t
    m["shift.solve_ms"] = _ratio(solve_t, solves) * 1e3
    m["shift.evals_per_solve"] = _ratio(inner_n, solves)
    m["shift.iterations"] = _ratio(tracer.values.get(("shift.solve_shift", "iterations"), 0.0),
                                   solves - solve_raised)
    m["shift.kernel_eval_us"] = _ratio(kernel_t, kernel_n) * 1e6
    m["shift.kernel_share"] = _ratio(inner_t, solve_t)
    c, t, _, _ = agg("shift.feasibility")
    m["shift.feasibility_us"] = _ratio(t, c) * 1e6
    c, t, ch, _ = agg("shift.shifted_distribution")
    m["shift.probs_eval_ms"] = _ratio(t - ch, c) * 1e3

    for name, metric, scale in (("entropy.uncertainty", "entropy.uncertainty_us", 1e6),
                                ("entropy.two_state_sweep", "entropy.two_state_sweep_ms", 1e3),
                                ("entropy.compose", "entropy.compose_ms", 1e3)):
        c, t, _, _ = agg(name)
        m[metric] = _ratio(t, c) * scale

    betas, beta_t, _, _ = agg("maxent.solve_beta")
    inner, _, _, _ = agg("shift.solve_shift", under="maxent.solve_beta")
    _, probe_t, _, probe_raised = agg("maxent.maxent_distribution", parent="maxent.solve_beta")
    m["maxent.shift_solves_per_beta"] = _ratio(inner, betas)
    m["maxent.failed_probes_per_beta"] = _ratio(probe_raised, betas)
    m["maxent.solve_beta_self_ms"] = _ratio(beta_t - probe_t, betas) * 1e3
    escorts, escort_t, _, escort_raised = agg("maxent.escort_distribution")
    updates = tracer.values.get(("maxent.escort_distribution", "updates"), 0.0)
    m["maxent.escort_updates"] = _ratio(updates, escorts - escort_raised)
    m["maxent.escort_update_us"] = _ratio(escort_t, updates) * 1e6

    m["cli.interpreter_ms"] = floors.get("interpreter_s", 0.0) * 1e3
    m["cli.import_ms"] = floors.get("import_s", 0.0) * 1e3
    for command in CLI_COMMANDS:
        c, t, _, _ = agg("cli.main", scope=command)
        m[f"cli.handler_ms.{command}"] = _ratio(t, c) * 1e3
        c, t, _, _ = agg("cli.dumps_report", scope=command)
        m[f"cli.render_ms.{command}"] = _ratio(t, c) * 1e3
    return m
