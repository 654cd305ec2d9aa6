"""Where a flagship ``validate_table`` call spends its time, stage by stage.

Compiles the flagship document schema (``joi_ray.pipelines.docs``) the way
``ValidatorStage`` does (abortEarly off, ``doc_id`` as the id column) and
validates the four seeded 8,192-doc flagship batches of ``valbench`` with
timing wrappers swapped in for the engine's stage functions and for every
``pyarrow.compute`` function.  Prints, per ``validate_table`` call:

- the self milliseconds of each (node path, stage) pair, largest first.
  A stage is any engine function named ``*_stage``, ``_items_*``,
  ``_eval_object`` or ``_eval_array``, plus the helpers in ``HELPERS``, which
  count under the path of the stage that called them; ``eval_node`` is the
  node's own overhead.  A node that ``node_validity`` evaluates (a
  when-condition, an empty() or a required-item probe) counts under
  ``<caller path> (probe)``, the table's root under ``(root)``;
- the calls and milliseconds of each ``pyarrow.compute`` kernel (outermost
  calls only, so a kernel that calls another counts once);
- the total, and the number of ``eval_node`` calls.

With ``--zoo`` it runs valbench's ``schema_zoo`` case set instead (the
``SchemaZoo`` workload's cases, built, compiled and validated per call as
that workload does) and prints, per call:

- the milliseconds of the build, the compile and the ``validate_table``;
- the self milliseconds of each stage name summed over node paths, the
  string coercion kernels (``KERNELS``) among them;
- the pyarrow.compute kernels as above;
- the calls into pandas made from ``joi_ray/`` code, by pandas function
  (and ``to_pandas`` conversions), counted in one extra untimed pass.

The wrappers cost time of their own, so compare two commits with this tool
on both sides, never with an untraced run.  It reads the engine's functions
by name and changes nothing on disk, so it runs on any commit that has
``valbench/inputs.py`` (and, for ``--zoo``, ``valbench/workloads.py``).

Usage:
    python3 tools/stage_profile.py [--seed 1] [--dirty]
    python3 tools/stage_profile.py --zoo [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(1, os.path.join(ROOT, "valbench"))

CLOCK = time.perf_counter
#: passes over the four batches after the warm-up call
ROUNDS = 5
#: rows of each table to print
TOP = 40
#: engine helpers timed under the path of the stage that calls them
HELPERS = ("node_validity", "_when_condition", "_merge_into", "_failed_overlay", "_finalize",
           "_adopt_items_multi", "_rebuild_list", "_set_membership", "_value_messages",
           "_abort_early_keep")
#: string coercion kernels timed as stages, by ``joi_ray.kernels`` module
#: (a name a commit lacks is skipped)
KERNELS = {"numbers": ("coerce", "parse_strings"),
           "scalars": ("coerce_date", "coerce_boolean", "coerce_binary", "js_parse_date_strings"),
           "strings": ("iso_dates_ms", "pandas_ms", "regex_mask")}
#: passes over the zoo's cases after the warm-up pass
ZOO_ROUNDS = 3
#: pyarrow.compute callables that build expressions or look kernels up
_NOT_KERNELS = {"call_function", "get_function", "list_functions", "function_registry", "field",
                "scalar", "register_scalar_function", "register_tabular_function",
                "register_aggregate_function", "register_vector_function"}


class Profile:
    """Self time per (path, name), and outermost pyarrow.compute calls."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.self_s: dict = defaultdict(float)
        self.kernel_s: dict = defaultdict(float)
        self.kernel_n: dict = defaultdict(int)
        self.eval_nodes = 0
        self._stack: list = []  # [path, name, child seconds]
        self._in_kernel = False

    def path_of(self, args) -> str:
        """The node path of a stage's ``_Node`` (or ``_Items``) argument.  A
        node that ``node_validity`` evaluates (a when-condition, an empty()
        or required-item match) runs at path ``""``: it counts under the
        caller's path."""
        c = args[0] if args else None
        c = getattr(c, "c", c)  # an _Items context holds its _Node
        return self.probe_path(getattr(c, "path", "?"))

    def probe_path(self, path: str) -> str:
        if path:
            return path
        for outer, name, _ in reversed(self._stack):
            if name == "node_validity":
                return outer if outer.endswith("(probe)") else f"{outer} (probe)"
        return "(root)"

    def span(self, fn, name, path_of):
        def wrapper(*args, **kwargs):
            if path_of is not None:
                path = path_of(args)
            else:
                path = self._stack[-1][0] if self._stack else "(table)"
            self._stack.append([path, name, 0.0])
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = CLOCK() - t0
                _, _, child = self._stack.pop()
                self.self_s[(path, name)] += dt - child
                if self._stack:
                    self._stack[-1][2] += dt
        return wrapper

    def kernel(self, fn, name):
        def wrapper(*args, **kwargs):
            if self._in_kernel:
                return fn(*args, **kwargs)
            self._in_kernel = True
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                self.kernel_s[name] += CLOCK() - t0
                self.kernel_n[name] += 1
                self._in_kernel = False
        return wrapper


def install(prof: Profile) -> None:
    """Swap the wrappers in.  Call before compiling: a compiled node keeps
    the stage functions it plans to run."""
    import pyarrow.compute as pc

    from joi_ray import engine

    for name, fn in list(vars(engine).items()):
        if not callable(fn) or getattr(fn, "__module__", None) != engine.__name__ or isinstance(fn, type):
            continue
        if name.endswith("_stage") or name.startswith("_items_") or name in ("_eval_object", "_eval_array"):
            setattr(engine, name, prof.span(fn, name.strip("_"), prof.path_of))
        elif name in HELPERS:
            setattr(engine, name, prof.span(fn, name.strip("_"), None))
    if hasattr(engine.CompiledSchema, "_assemble_violations"):
        fn = engine.CompiledSchema._assemble_violations
        engine.CompiledSchema._assemble_violations = prof.span(fn, "assemble_violations", None)
    impl = engine._eval_node_impl

    def eval_node_impl(node, arr, env, path, scope=None):
        prof.eval_nodes += 1
        return impl(node, arr, env, path, scope=scope)

    engine._eval_node_impl = prof.span(eval_node_impl, "eval_node",
                                           lambda a: prof.probe_path(a[3]))
    import importlib

    for mod, names in KERNELS.items():
        module = importlib.import_module(f"joi_ray.kernels.{mod}")
        for name in names:
            if hasattr(module, name):
                setattr(module, name, prof.span(getattr(module, name), f"{mod}.{name}", None))
    # the registry's kernels, and the Python-level helpers over them
    # (``fill_null``, ``take``, ...)
    names = set(pc.list_functions()) | {
        name for name, fn in vars(pc).items()
        if getattr(fn, "__module__", None) == pc.__name__ and not name.startswith("_")}
    for name in sorted(names - _NOT_KERNELS):
        fn = getattr(pc, name, None)
        if callable(fn) and not isinstance(fn, type):
            setattr(pc, name, prof.kernel(fn, name))


def count_pandas_calls(run) -> Counter:
    """Calls into pandas made directly from ``joi_ray/`` code while ``run()``
    runs, by pandas function; pyarrow's ``to_pandas`` counts as one."""
    import pandas

    pandas_dir = os.path.dirname(pandas.__file__) + os.sep
    ours = os.path.join(ROOT, "joi_ray") + os.sep
    counts: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if (frame.f_code.co_filename.startswith(pandas_dir) and caller is not None
                    and caller.f_code.co_filename.startswith(ours)):
                counts[f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"] += 1
        elif event == "c_call" and frame.f_code.co_filename.startswith(ours):
            mod = getattr(arg, "__module__", None) or ""
            if mod.startswith("pandas") or getattr(arg, "__name__", "") == "to_pandas":
                counts[f"{mod or 'pyarrow'}.{arg.__name__}"] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def zoo(seed: int) -> int:
    """The ``--zoo`` report (see the module docstring)."""
    import pyarrow as pa
    import workloads

    prof = Profile()
    install(prof)
    pa.set_cpu_count(1)
    zoo = workloads.SchemaZoo()
    zoo.imports()
    zoo.setup(seed)  # also the warm-up: every case runs once
    jr, build = zoo.jr, zoo.diffref.build_spec_py
    parts = {"build": 0.0, "compile": 0.0, "validate_table": 0.0}

    def one_pass(timed: bool):
        for case in zoo.items:
            t0 = CLOCK()
            schema = build(case[1])
            t1 = CLOCK()
            compiled = jr.compile_schema(schema, prefs=case[3])
            t2 = CLOCK()
            compiled.validate_table(case[2])
            if timed:
                parts["build"] += t1 - t0
                parts["compile"] += t2 - t1
                parts["validate_table"] += CLOCK() - t2

    prof.reset()
    for _ in range(ZOO_ROUNDS):
        one_pass(True)
    calls = len(zoo.items) * ZOO_ROUNDS
    by_name: dict = defaultdict(float)
    for (_, name), sec in prof.self_s.items():
        by_name[name] += sec
    kernel_s, kernel_n = dict(prof.kernel_s), dict(prof.kernel_n)
    pandas_calls = count_pandas_calls(lambda: one_pass(False))

    def ms(s):
        return f"{s * 1e3 / calls:9.4f}"

    print(f"schema_zoo seed {seed}: {len(zoo.items)} cases x {ZOO_ROUNDS} rounds = {calls} calls")
    print("ms per call (traced): " + ", ".join(f"{k} {v * 1e3 / calls:.3f}" for k, v in parts.items())
          + f"; eval_node calls per call: {prof.eval_nodes / calls:g}")
    print(f"\n{'self ms':>9}  stage (all paths)")
    for name, sec in sorted(by_name.items(), key=lambda kv: -kv[1])[:TOP]:
        print(f"{ms(sec)}  {name}")
    print(f"\n{'ms':>9} {'calls':>7}  pyarrow.compute kernel")
    for name, sec in sorted(kernel_s.items(), key=lambda kv: -kv[1])[:TOP]:
        print(f"{ms(sec)} {kernel_n[name] / calls:7.2f}  {name}")
    print(f"{ms(sum(kernel_s.values()))} {sum(kernel_n.values()) / calls:7.2f}  (all kernels)")
    n = len(zoo.items)
    print(f"\n{'calls':>9}  pandas function called from joi_ray/ (per zoo call)")
    for name, c in pandas_calls.most_common(TOP):
        print(f"{c / n:9.3f}  {name}")
    print(f"{sum(pandas_calls.values()) / n:9.3f}  (all pandas calls)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="flagship batch seed (valbench's)")
    ap.add_argument("--dirty", action="store_true", help="break a rule on every span first")
    ap.add_argument("--zoo", action="store_true", help="profile valbench's schema_zoo cases instead")
    args = ap.parse_args(argv)
    if args.zoo:
        return zoo(args.seed)

    import inputs
    import pyarrow as pa

    import joi_ray as jr
    from joi_ray.pipelines.docs import document_schema

    batches, _ = inputs.flagship_batches(args.seed)
    if args.dirty:
        batches = [inputs.corrupt(b) for b in batches]
    prof = Profile()
    install(prof)
    pa.set_cpu_count(1)  # as ValidatorStage sets it in each worker
    compiled = jr.compile_schema(json.loads(document_schema().to_json()), {"abort_early": False}, "doc_id")
    compiled.validate_table(batches[0])  # warm-up, not counted
    prof.reset()
    totals = []
    for _ in range(ROUNDS):
        for b in batches:
            t0 = CLOCK()
            compiled.validate_table(b)
            totals.append(CLOCK() - t0)
    calls = len(totals)

    def ms(s):
        return f"{s * 1e3 / calls:9.3f}"

    print(f"flagship {'dirty' if args.dirty else 'clean'} seed {args.seed}: {calls} validate_table calls, "
          f"{batches[0].num_rows} docs each")
    print(f"validate_table ms per call (traced): median {statistics.median(totals) * 1e3:.2f}, "
          f"mean {sum(totals) * 1e3 / calls:.2f}; eval_node calls per call: {prof.eval_nodes / calls:g}")
    print(f"\n{'self ms':>9}  stage @ path")
    for (path, name), s in sorted(prof.self_s.items(), key=lambda kv: -kv[1])[:TOP]:
        print(f"{ms(s)}  {name} @ {path}")
    print(f"\n{'ms':>9} {'calls':>7}  pyarrow.compute kernel")
    for name, s in sorted(prof.kernel_s.items(), key=lambda kv: -kv[1])[:TOP]:
        print(f"{ms(s)} {prof.kernel_n[name] / calls:7.1f}  {name}")
    print(f"{ms(sum(prof.kernel_s.values()))} {sum(prof.kernel_n.values()) / calls:7.1f}  (all kernels)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
