"""Span recorder for the traced run, and the per-layer metrics it yields.

``install`` wraps every public function of the layer modules, plus
``FarkasCertificate.verify`` and ``InequalitySystem.from_text``, in every
``branchproofs`` module that binds them: ``from .x import y`` copies the
function into the importing module, so patching only the defining module
would miss most calls.  ``vectors`` is not a layer; its calls are too small
to wrap without distorting the timings.

A span is (op, name, start, end, parent, child time).  Spans stay in memory
and are written out once, at exit.  A span's self time is its duration minus
the wrapper-inclusive time of its children, so the recorder's own
bookkeeping is charged to no layer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("simplex", "geometry", "enumcp", "prooftree", "diophantine",
          "recompile", "families", "cli")
METHODS = (("FarkasCertificate", "verify"), ("InequalitySystem", "from_text"))
SOLVES = ("simplex.lp_optimize", "simplex.is_empty")

# span fields
OP, NAME, START, END, PARENT, CHILD, OUTER, INFO, ID = range(9)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.active: dict[str, int] = defaultdict(int)
        self.op = -1
        self._system_keys: dict[int, tuple] = {}

    def begin_op(self, op: int) -> None:
        self.op = op
        self._system_keys.clear()

    def system_key(self, system) -> int:
        """Hash of (A, b), computed once per system object within an op.

        Each entry keeps its system alive, so an id is not reused meanwhile.
        """
        entry = self._system_keys.get(id(system))
        if entry is None:
            entry = self._system_keys[id(system)] = (system, hash((system.matrix, system.rhs)))
        return entry[1]

    def wrap(self, name: str, fn):
        pre = _PRE.get(name)
        post = _POST.get(name)
        spans, stack, active = self.spans, self.stack, self.active

        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else None
            active[name] += 1
            span = [self.op, name, 0.0, 0.0, parent[ID] if parent else None, 0.0,
                    active[name] == 1, pre(self, *args, **kwargs) if pre else None,
                    len(spans)]
            spans.append(span)
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = perf_counter()
                if post:
                    span[INFO] = None
                raise
            else:
                span[END] = perf_counter()
                if post:
                    span[INFO] = post(span[INFO], result)
                return result
            finally:
                stack.pop()
                active[name] -= 1
                if parent is not None:
                    parent[CHILD] += perf_counter() - entered

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps([s[OP], s[NAME], s[START], s[END], s[PARENT],
                                      s[END] - s[START] - s[CHILD]]) + "\n")


# per-name argument / result extractors -------------------------------------


def _solve_pre(rec, system, c=None, sense="max"):
    return (system.m, (rec.system_key(system), c and hash(c), sense))


_PRE = {
    "simplex.lp_optimize": _solve_pre,
    "simplex.is_empty": _solve_pre,
    "enumcp.enum_to_cp": lambda rec, K, proof: 2 * proof.node_count() - 1,
    "prooftree.parse_branching": lambda rec, text: len(text),
    "prooftree.parse_enumerative": lambda rec, text: len(text),
    "recompile.recompile": lambda rec, K, proof, *a, **k: proof.node_count(),
}

_POST = {
    "geometry.apply_cg": lambda info, result: result[1].is_noop(),
    "enumcp.enum_to_cp": lambda bound, result: (len(result), bound),
    "diophantine.dirichlet_approx": lambda info, result: result.multiplier,
    "recompile.long_to_short": lambda info, result: result.k,
    "recompile.recompile": lambda nodes_in, result: (nodes_in, result.node_count()),
    "families.tseitin_sp_refutation": lambda info, result: result.node_count(),
    "families.thin_segment": lambda info, result: result[1].node_count(),
}


def install(recorder: Recorder) -> list[tuple]:
    """Wrap the layer functions everywhere they are bound; returns the undo list."""
    modules = {layer: importlib.import_module(f"branchproofs.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                wrapped[value] = recorder.wrap(f"{layer}.{attr}", value)
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "branchproofs" and not mod_name.startswith("branchproofs."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
                undo.append((module, attr, value))
    simplex = modules["simplex"]
    for cls_name, attr in METHODS:
        cls = getattr(simplex, cls_name)
        raw = vars(cls)[attr]
        fn = recorder.wrap(f"simplex.{cls_name}.{attr}", getattr(cls, attr))
        setattr(cls, attr, staticmethod(fn) if isinstance(raw, staticmethod) else fn)
        undo.append((cls, attr, raw))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


# metrics ---------------------------------------------------------------------


def _ratio(num, den) -> float:
    return num / den if den else 0.0


NO_COUNTS = {"simplex.calls": 0, "simplex.distinct": 0, "diophantine.scan_steps": 0,
             "enumcp.cuts": 0}


def op_counts(spans) -> dict[int, dict]:
    """Exact per-op counts that must repeat across runs of one seed."""
    per_op: dict[int, dict] = defaultdict(lambda: dict(NO_COUNTS))
    keys: dict[int, set] = defaultdict(set)
    for s in spans:
        counts = per_op[s[OP]]
        if s[NAME] in SOLVES:
            counts["simplex.calls"] += 1
            keys[s[OP]].add(s[INFO][1])
        elif s[NAME] == "diophantine.dirichlet_approx" and s[INFO] is not None:
            counts["diophantine.scan_steps"] += s[INFO]
        elif s[NAME] == "enumcp.enum_to_cp" and s[INFO] is not None:
            counts["enumcp.cuts"] += s[INFO][0]
    for op, distinct in keys.items():
        per_op[op]["simplex.distinct"] = len(distinct)
    return dict(per_op)


def layer_metrics(spans, overhead_share: float) -> dict[str, float]:
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    infos: dict[str, list] = defaultdict(list)
    for s in spans:
        name = s[NAME]
        duration = s[END] - s[START]
        calls[name] += 1
        if s[OUTER]:
            inclusive[name] += duration
        self_time[name.split(".")[0]] += duration - s[CHILD]
        if s[INFO] is not None:
            infos[name].append(s[INFO])

    def count(*names):
        return sum(calls[n] for n in names)

    def incl(*names):
        return sum(inclusive[n] for n in names)

    solves = count(*SOLVES)
    rows = [info[0] for n in SOLVES for info in infos[n]]
    distinct = sum(c["simplex.distinct"] for c in op_counts(spans).values())
    noop_cuts = sum(infos["geometry.apply_cg"])
    cuts = infos["enumcp.enum_to_cp"]
    steps = sum(infos["diophantine.dirichlet_approx"])
    parsed_bytes = sum(infos["prooftree.parse_branching"] + infos["prooftree.parse_enumerative"])
    parse_s = incl("prooftree.parse_branching", "prooftree.parse_enumerative")
    grown = infos["recompile.recompile"]
    return {
        "simplex.calls": solves,
        "simplex.distinct_share": _ratio(distinct, solves),
        "simplex.rows_mean": _ratio(sum(rows), len(rows)),
        "simplex.self_s": self_time["simplex"],
        "simplex.reduce_calls": count("simplex.reduce_certificate"),
        "simplex.reduce_s": incl("simplex.reduce_certificate"),
        "simplex.cert_checks": count("simplex.FarkasCertificate.verify"),
        "simplex.cert_check_s": incl("simplex.FarkasCertificate.verify"),
        "simplex.parse_s": incl("simplex.InequalitySystem.from_text"),
        "geometry.support_calls": count("geometry.support_value"),
        "geometry.cg_calls": count("geometry.apply_cg"),
        "geometry.face_calls": count("geometry.face"),
        "geometry.noop_cut_share": _ratio(noop_cuts, count("geometry.apply_cg")),
        "geometry.radius_calls": count("geometry.implies_R", "geometry.l1_radius_bound"),
        "geometry.self_s": self_time["geometry"],
        "enumcp.cuts": sum(c for c, _ in cuts),
        "enumcp.bound_use": _ratio(sum(c for c, _ in cuts), sum(b for _, b in cuts)),
        "enumcp.self_s": self_time["enumcp"],
        "prooftree.verify_s": incl("prooftree.verify_branching_proof",
                                   "prooftree.verify_enumerative_proof"),
        "prooftree.verify_certified_s": incl("prooftree.verify_certified_proof"),
        "prooftree.certify_s": incl("prooftree.certify"),
        "prooftree.parse_s": parse_s,
        "prooftree.format_s": incl("prooftree.format_branching", "prooftree.format_enumerative"),
        "prooftree.parse_mb_per_s": _ratio(parsed_bytes / 1e6, parse_s),
        "prooftree.self_s": self_time["prooftree"],
        "diophantine.approx_calls": count("diophantine.dirichlet_approx"),
        "diophantine.scan_steps": steps,
        "diophantine.steps_per_s": _ratio(steps, incl("diophantine.dirichlet_approx")),
        "diophantine.classify_calls": count("diophantine.classify_rhs"),
        "diophantine.self_s": self_time["diophantine"],
        "recompile.sequences": count("recompile.long_to_short"),
        "recompile.levels_mean": _ratio(sum(infos["recompile.long_to_short"]),
                                        len(infos["recompile.long_to_short"])),
        "recompile.repairs": count("recompile.generalized_certificate"),
        "recompile.node_growth": _ratio(sum(o for _, o in grown), sum(i for i, _ in grown)),
        "recompile.self_s": self_time["recompile"],
        "families.refutation_s": incl("families.tseitin_sp_refutation"),
        "families.nodes": sum(infos["families.tseitin_sp_refutation"]
                              + infos["families.thin_segment"]),
        "cli.self_s": self_time["cli"],
        "trace.overhead_share": overhead_share,
    }

