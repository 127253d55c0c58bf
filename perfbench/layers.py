"""Per-layer timing for the traced run, taken from outside the program.

Nothing in ``src/`` is instrumented.  :func:`install` wraps public
functions of each layer with timers owned by a :class:`LayerClock`:

* build  - ``InstanceCache.build`` and ``InstanceCache.core`` (every
  engine instance goes through one of them), keyed by family;
* solve  - ``dispatch_solver``, keyed by the solver of the running chunk;
* verify - the closures ``verifier_for`` hands out, the prepared
  verifier path (``cached_prepared_verifier`` building the skeleton,
  ``repro.kernels.prepared_verify`` checking against it), keyed by
  problem.

The engine looks all of these up at call time, so rebinding the module
attributes reaches it; forked pool workers inherit the wrappers.  A
worker's totals travel back to the parent as integer nanosecond
counters in the program's own telemetry, which every chunk result
already carries, so the same code reads serial and pool runs.
"""

from __future__ import annotations

import os
import time

#: Telemetry counter prefix of the benchmark's own per-layer totals.
PREFIX = "perfbench."


class LayerClock:
    """Nanosecond totals per ``"<layer>.<name>"``, plus the chunk context."""

    def __init__(self) -> None:
        self.ns: dict[str, int] = {}
        #: (solver, problem) of the chunk being executed.
        self.context: tuple[str, str] = ("unknown", "unknown")
        self._busy: set[str] = set()
        self._pid = os.getpid()

    def _own(self) -> None:
        # A forked pool worker inherits the parent's unflushed totals;
        # they are the parent's to report, so the worker starts at zero.
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self.ns.clear()

    def timed(self, layer: str, name: str, fn, *args):
        self._own()
        # Only the outermost call of a layer counts: InstanceCache.build
        # calls InstanceCache.core, and both are wrapped.
        if layer in self._busy:
            return fn(*args)
        self._busy.add(layer)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            key = f"{layer}.{name}"
            self.ns[key] = self.ns.get(key, 0) + time.perf_counter_ns() - start
            self._busy.discard(layer)

    def flush(self, telemetry) -> None:
        """Move the totals into telemetry counters (and out of the clock)."""
        self._own()
        for key, ns in self.ns.items():
            telemetry.incr(PREFIX + key, ns)
        self.ns.clear()


def install(clock: LayerClock) -> None:
    """Wrap the layer entry points so ``clock`` times every call."""
    from repro import kernels
    from repro.engine import runner
    from repro.obs import get_telemetry
    from repro.runtime import driver, registry
    from repro.runtime.entrypoints import parse_entrypoint

    execute_trial_batch = runner.execute_trial_batch

    def traced_batch(trials, kernels="auto"):
        if trials:
            solver = parse_entrypoint(trials[0].solver)[1]
            clock.context = (solver, registry.solver(solver).problem)
        try:
            return execute_trial_batch(trials, kernels)
        finally:
            clock.flush(get_telemetry())

    build = driver.InstanceCache.build
    core = driver.InstanceCache.core

    def traced_build(self, family_info, n, seed, params=None):
        return clock.timed(
            "build", family_info.name, build, self, family_info, n, seed, params
        )

    def traced_core(self, family_info, n):
        return clock.timed("build", family_info.name, core, self, family_info, n)

    dispatch_solver = driver.dispatch_solver

    def traced_dispatch(solver_obj, instance, array_program=None):
        return clock.timed(
            "solve", clock.context[0], dispatch_solver, solver_obj, instance,
            array_program,
        )

    verifier_for = driver.verifier_for

    def traced_verifier_for(problem_info):
        check = verifier_for(problem_info)

        def traced_check(instance, result):
            return clock.timed("verify", problem_info.name, check, instance, result)

        return traced_check

    cached_prepared_verifier = driver.cached_prepared_verifier

    def traced_prepare(cache, key, problem_info, instance):
        return clock.timed(
            "verify", problem_info.name, cached_prepared_verifier, cache, key,
            problem_info, instance,
        )

    prepared_verify = kernels.prepared_verify

    def traced_prepared_verify(prepared, outputs):
        return clock.timed(
            "verify", clock.context[1], prepared_verify, prepared, outputs
        )

    runner.execute_trial_batch = traced_batch
    driver.InstanceCache.build = traced_build
    driver.InstanceCache.core = traced_core
    driver.dispatch_solver = traced_dispatch
    driver.verifier_for = traced_verifier_for
    driver.cached_prepared_verifier = traced_prepare
    kernels.prepared_verify = traced_prepared_verify
