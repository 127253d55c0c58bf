"""One fresh interpreter's share of a benchmark run.

``run.py`` starts this file once per role, so every timed repetition
starts cold: no imports, registry, resolved references, frozen cores
or prepared verifiers left over from an earlier repetition.

    python3 perfbench/child.py ROLE --workload W --seed S --spawned T
                               [--workdir D]

Roles:

* ``setup`` - import, populate the registry, build the workload's specs;
* ``rep``   - ``setup``, then run the workload once, timing every step;
* ``trace`` - ``rep`` with the per-layer timers of ``layers.py``;
* ``check`` - run trials of the workload through the runtime path
  (``Runtime.run``) for their ``rounds``, and through ``run_experiment``
  with every output checked by ``checks.py``; push the probes through
  ``run_experiment``, whose verification must reject each.  Sibling
  check processes share the work by claiming units in ``--workdir``.
  Nothing here is timed, so ``run.py`` runs the siblings side by side,
  before any timed process starts.

``--spawned`` is the parent's ``time.perf_counter()`` just before it
started this process; ``perf_counter`` reads the system-wide monotonic
clock, so set-up time includes interpreter start.  ``rep`` and
``trace`` run a calibration loop before the first step and after every
step; ``run.py`` uses these times to express the steps of the
``landscape`` workloads in seconds of a host at a fixed speed.  The
result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

from workloads import build_specs, renders_table, uses_pool

#: Iterations of the calibration loop: 11 to 19 ms on a 2-core x86-64 VM.
CALIBRATION_ITERATIONS = 100_000


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop right now.

    Dictionary updates in an interpreted loop are the bulk of what the
    program's object layer does; the loop's time follows the shared
    host's speed the way the ``landscape`` workloads' many short steps
    do (see the README for where it does not).
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start

def _setup(workload: str, seed: int, spawned: float) -> tuple[list, dict]:
    import repro.engine  # noqa: F401
    from repro.runtime import registry

    imported = time.perf_counter()
    registry.ensure_registered()
    registered = time.perf_counter()
    specs = build_specs(workload, seed)
    built = time.perf_counter()
    return specs, {
        "import_s": imported - spawned,
        "registry_s": registered - imported,
        "setup_s": built - spawned,
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _trial_rows(report) -> list:
    return [[r["n"], r["seed"], r["rounds"]] for r in report.records]


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _dirs, names in os.walk(root)
        for name in names
    )


def _run_workload(workload: str, specs: list, workdir: str) -> dict:
    """One cold pass over the workload, as the CLI would run it.

    ``steps`` maps each step (a spec, the warm replay, the table) to its
    seconds of wall time, of this process's CPU and of reaped worker
    processes' CPU, in run order; ``calibration[i]`` is the calibration
    time taken just before step ``i`` (the last entry follows the last
    step).
    """
    from repro.engine import TrialCache, default_workers, run_experiment

    pool = uses_pool(workload)
    workers = default_workers() if pool else 1
    cache_dir = cache = None
    if pool:
        cache_dir = os.path.join(workdir, "cache")
        os.makedirs(cache_dir)  # fails on a left-over cache: the pass must be cold
        cache = TrialCache(cache_dir)
    steps: dict[str, list[float]] = {}
    out: dict = {
        "steps": steps, "calibration": [calibrate()],
        "records": {}, "replay_records": {} if pool else None, "errors": {},
    }
    reports = []

    def step(name, fn):
        wall0, cpu0, kids0 = time.perf_counter(), time.process_time(), _children_cpu()
        try:
            return fn()
        except Exception as err:  # a failed spec fails its trials, not the run
            out["errors"][name] = f"{type(err).__name__}: {err}"
            return None
        finally:
            steps[name] = [
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
                _children_cpu() - kids0,
            ]
            out["calibration"].append(calibrate())

    for spec in specs:
        report = step(
            spec.name,
            lambda: run_experiment(spec, workers=workers, cache=cache, kernels="auto"),
        )
        if report is not None:
            reports.append(report)
            out["records"][spec.name] = _trial_rows(report)
    out["batches"] = sum(report.batches for report in reports)
    if pool:
        out["cache_bytes"] = _dir_bytes(cache_dir)
        # A warm replay is a new process opening the cache from disk,
        # so it gets a fresh TrialCache rather than the in-memory index.
        warm = TrialCache(cache_dir)

        def replay():
            for spec in specs:
                report = run_experiment(spec, workers=workers, cache=warm, kernels="auto")
                out["replay_records"][spec.name] = _trial_rows(report)

        step("replay", replay)
    if renders_table(workload):
        from repro.analysis import render_landscape
        from repro.analysis.landscape import rows_from_engine_reports

        step("analysis", lambda: render_landscape(rows_from_engine_reports(reports)))
    out["telemetry"] = [report.telemetry for report in reports]
    return out


def _layer_metrics(out: dict, clock, setup: dict) -> dict[str, float]:
    from layers import PREFIX
    from repro.obs import aggregate, merge_snapshots

    counters = aggregate(merge_snapshots(out.pop("telemetry")))["counters"]
    ns = dict(clock.ns)
    for name, value in counters.items():
        if name.startswith(PREFIX):
            key = name[len(PREFIX):]
            ns[key] = ns.get(key, 0) + value
    metrics = {f"{key}_s": value / 1e9 for key, value in ns.items()}
    for layer in ("build", "solve", "verify"):
        metrics[f"{layer}_s"] = sum(
            value for key, value in ns.items() if key.startswith(layer + ".")
        ) / 1e9
    for name in ("kernels.vector_trials", "kernels.object_trials",
                 "engine.rounds", "engine.active_nodes"):
        metrics[name] = counters.get(name, 0)
    steps = out["steps"]
    metrics["pool.batches"] = out["batches"]
    metrics["pool.parent_cpu_s"] = sum(step[1] for step in steps.values())
    metrics["pool.worker_cpu_s"] = sum(step[2] for step in steps.values())
    metrics["cache.replay_s"] = steps["replay"][0] if "replay" in steps else 0.0
    metrics["cache.bytes"] = out.get("cache_bytes", 0)
    metrics["analysis.table_s"] = steps["analysis"][0] if "analysis" in steps else 0.0
    metrics["setup.import_s"] = setup["import_s"]
    metrics["setup.registry_s"] = setup["registry_s"]
    return metrics


#: Telemetry counter prefix of the engine-path output checks.
CHECK_PREFIX = "perfbench.check|"


def _problem(spec_or_trial) -> str | None:
    from repro.runtime.entrypoints import parse_entrypoint

    parsed = spec_or_trial.verifier and parse_entrypoint(spec_or_trial.verifier)
    return parsed[1] if parsed else None


def _install_output_checks(specs: list, planted: dict) -> None:
    """Judge every output the engine's timed code path hands its verifier.

    ``runner.execute_trial_batch`` is wrapped to note each chunk's
    trials, ``driver.dispatch_solver`` to check each result with
    ``checks.py`` as it comes back, before the engine verifies it.  The
    verdicts travel as telemetry counters, which every chunk result
    already carries, so forked pool workers report them as the serial
    path does.  While ``planted["on"]`` is set, each result gets its
    problem's planted fault instead, for the engine to reject.
    """
    from checks import CHECKERS, PLANTED_FAULTS, PROBED_ONLY
    from repro.engine import runner
    from repro.obs import get_telemetry
    from repro.runtime import driver

    names = {(spec.solver, spec.generator): spec.name for spec in specs}
    execute_trial_batch = runner.execute_trial_batch
    dispatch_solver = driver.dispatch_solver
    chunk: dict = {"trials": None, "spec": "?", "problem": None, "depth": 0}

    def checked_batch(trials, kernels="auto"):
        if trials:
            head = trials[0]
            chunk["spec"] = names.get((head.solver, head.generator), "?")
            chunk["problem"] = _problem(head)
        chunk["trials"] = iter(trials)
        try:
            return execute_trial_batch(trials, kernels)
        finally:
            chunk["trials"] = None

    def checked_dispatch(solver_obj, instance, array_program=None):
        # Outside a chunk (the runtime path), or a solver dispatching an
        # inner solver: not an output the engine times and verifies.
        if chunk["trials"] is None or chunk["depth"]:
            return dispatch_solver(solver_obj, instance, array_program)
        chunk["depth"] += 1
        try:
            result = dispatch_solver(solver_obj, instance, array_program)
        finally:
            chunk["depth"] -= 1
        trial = next(chunk["trials"])
        key = f"{chunk['spec']}|{trial.n}|{trial.seed}"
        problem = chunk["problem"]
        if planted["on"]:
            PLANTED_FAULTS[problem](instance.graph, result.outputs)
            return result
        checker = CHECKERS.get(problem)
        if checker is not None:
            reason = checker(instance.graph, result.outputs)
        elif problem in PROBED_ONLY:
            reason = None
        else:
            reason = f"no independent checker for problem {problem!r}"
        verdict = "ok" if reason is None else f"rejected|{reason}"
        get_telemetry().incr(f"{CHECK_PREFIX}{key}|{verdict}")
        return result

    runner.execute_trial_batch = checked_batch
    driver.dispatch_solver = checked_dispatch


def _engine_verdicts(report) -> dict[str, str | None]:
    """Trial key -> None (checked, accepted) or a rejection reason."""
    from repro.obs import aggregate, merge_snapshots

    verdicts: dict[str, str | None] = {}
    counters = aggregate(merge_snapshots([report.telemetry]))["counters"]
    for name in counters:
        if name.startswith(CHECK_PREFIX):
            spec, n, seed, verdict = name[len(CHECK_PREFIX):].split("|", 3)
            reason = None if verdict == "ok" else verdict.split("|", 1)[1]
            verdicts[f"{spec}|{n}|{seed}"] = reason
    return verdicts


def _rejected_by_engine(fn) -> str | None:
    """None if ``fn`` raised the engine verifier's AssertionError, else why not."""
    try:
        fn()
    except AssertionError:
        return None
    except Exception as err:
        return f"raised {type(err).__name__}: {err}, not an AssertionError"
    return "the engine accepted it"


def _claim(claims: str, unit: int) -> bool:
    """Take work unit ``unit`` unless a sibling check process already has."""
    try:
        os.close(os.open(os.path.join(claims, str(unit)), os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def _units(specs: list, workers: int) -> list:
    """The check pass's specs to claim, the largest trials first.

    A serial workload splits every spec into one spec per size, so the
    few largest trials of ``separation`` spread over the processes; the
    pool runs whole specs, as the timed repetitions do.
    """
    if workers > 1:
        return list(specs)
    by_rank = sorted(
        (rank, i, n)
        for i, spec in enumerate(specs)
        for rank, n in enumerate(reversed(spec.ns))
    )
    return [dataclasses.replace(specs[i], ns=(n,)) for _rank, i, n in by_rank]


def _check(workload: str, seed: int, specs: list, claims: str) -> dict:
    """The check pass's share of this process; nothing here is timed.

    The work units are :func:`_units` and, last, the probes.  Sibling
    check processes go through the same list and each unit goes to the
    first that claims it in ``claims``, so the pass is as long as the
    work divided over the processes, not as its most costly share.

    Every trial of a spec runs twice: through the runtime path, whose
    ``rounds`` every timed engine record must match, and through
    ``run_experiment`` with the workload's worker count, every output
    judged by ``checks.py`` on its way to the engine's verifier.  The
    engine run is left out for the problems in ``checks.PROBED_ONLY``:
    there is no checker to judge their outputs, and the timed
    repetitions run them through the engine anyway.
    """
    from checks import PROBED_ONLY
    from repro.engine import default_workers, run_experiment
    from repro.runtime.driver import Runtime
    from repro.runtime.entrypoints import parse_entrypoint

    workers = default_workers() if uses_pool(workload) else 1
    runtime = Runtime()
    planted = {"on": False}
    _install_output_checks(specs, planted)
    units = _units(specs, workers)
    trials, rounds, rejected = [], {}, {}
    for unit, spec in enumerate(units):
        if not _claim(claims, unit):
            continue
        solver = parse_entrypoint(spec.solver)[1]
        family = parse_entrypoint(spec.generator)[1]
        keys = [f"{spec.name}|{t.n}|{t.seed}" for t in spec.trials()]
        trials += keys
        for key, trial in zip(keys, spec.trials()):
            try:
                record = runtime.run(
                    _problem(spec), solver, family, trial.n, trial.seed, verify=False
                )
                rounds[key] = record.rounds
            except Exception as err:
                rejected[key] = f"runtime path raised {type(err).__name__}: {err}"
        if _problem(spec) in PROBED_ONLY:
            continue  # no checker to hand the engine's outputs to
        try:
            verdicts = _engine_verdicts(
                run_experiment(spec, workers=workers, kernels="auto")
            )
        except Exception as err:
            verdicts = {key: f"engine raised {type(err).__name__}: {err}" for key in keys}
        for key in keys:
            reason = verdicts.get(key, "engine output never reached the checks")
            if reason is not None:
                rejected.setdefault(key, reason)
    probes = {}
    if _claim(claims, len(units)):
        probes = _probes(seed, specs, workers, runtime, planted)
    return {"trials": trials, "rounds": rounds, "rejected": rejected, "probes": probes}


def _probes(seed: int, specs: list, workers: int, runtime, planted: dict) -> dict:
    """Probe name -> None when the program rejected it, else why not."""
    from checks import CHECKERS, PLANTED_FAULTS
    from repro.engine import ExperimentSpec, run_experiment
    from repro.runtime import registry
    from repro.runtime.entrypoints import (
        family_ref, parse_entrypoint, solver_ref, verifier_ref,
    )

    probes: dict[str, str | None] = {}
    # Declared-unsound triples: the engine's verifier must reject each.
    for problem, solver, family in registry.unsound_triples():
        n = min(family.sweep_sizes(4096) or family.test_sizes)
        probe = ExperimentSpec(
            name=f"unsound/{solver.name}@{family.name}",
            solver=solver_ref(solver.name),
            generator=family_ref(family.name),
            verifier=verifier_ref(problem.name),
            ns=(n,),
            seeds=(seed,),
        )
        probes[probe.name] = _rejected_by_engine(
            lambda: run_experiment(probe, workers=workers, kernels="auto")
        )
    # Planted faults: the first trial of the workload's first spec of each
    # checked problem, with one constraint broken in its output.  Both
    # the checker and the engine's verification must reject it.
    firsts: dict = {}
    for spec in specs:
        firsts.setdefault(_problem(spec), spec)
    for problem, spec in sorted(firsts.items()):
        if problem not in PLANTED_FAULTS:
            continue
        probe = dataclasses.replace(spec, ns=spec.ns[:1], seeds=spec.seeds[:1])
        name = f"planted/{spec.name}|{probe.ns[0]}|{probe.seeds[0]}"
        record = runtime.run(
            problem, parse_entrypoint(spec.solver)[1],
            parse_entrypoint(spec.generator)[1], probe.ns[0], probe.seeds[0],
            verify=False,
        )
        broken = record.outputs.copy()
        PLANTED_FAULTS[problem](broken.graph, broken)
        if CHECKERS[problem](broken.graph, broken) is None:
            probes[name] = "the independent checker accepted the planted fault"
            continue
        planted["on"] = True
        try:
            probes[name] = _rejected_by_engine(
                lambda: run_experiment(probe, workers=workers, kernels="auto")
            )
        finally:
            planted["on"] = False
    return probes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "rep", "trace", "check"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)

    specs, setup = _setup(args.workload, args.seed, args.spawned)
    result: dict = {"seed": args.seed, "setup": setup}
    if args.role == "check":
        result.update(_check(args.workload, args.seed, specs, args.workdir))
    elif args.role in ("rep", "trace"):
        clock = None
        if args.role == "trace":
            from layers import LayerClock, install

            clock = LayerClock()
            install(clock)
        out = _run_workload(args.workload, specs, args.workdir)
        if clock is not None:
            out["layers"] = _layer_metrics(out, clock, setup)
        else:
            del out["telemetry"]
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        out["peak_rss_kb"] = max(own, workers)
        result.update(out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
