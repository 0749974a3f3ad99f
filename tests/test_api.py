"""The package's public names, and the benchmark harness's hold on them."""

import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

import branchproofs
from branchproofs import simplex
from branchproofs.vectors import Vector

ROOT = Path(__file__).resolve().parent.parent
DELETED = ("reduce_certificate", "Halfspace", "approximation_error")


def test_all_lists_the_public_non_module_names():
    public = {name for name, value in vars(branchproofs).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(branchproofs.__all__) == len(set(branchproofs.__all__))
    assert set(branchproofs.__all__) == public
    assert all(hasattr(branchproofs, name) for name in branchproofs.__all__)
    assert not set(DELETED) & set(dir(branchproofs))


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_spans_install_and_uninstall():
    """The traced benchmark wraps every public layer function and the
    methods it names, and reads some arguments and results; an API change
    that breaks that fails here."""
    spans = load_spans()
    solves = {name: getattr(simplex, name) for name in ("lp_optimize", "is_empty")}
    verify = simplex.FarkasCertificate.verify
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        for name, original in solves.items():
            assert getattr(simplex, name).__wrapped__ is original
        assert simplex.FarkasCertificate.verify is not verify
        base = simplex.InequalitySystem([[1], [-1]], [0, -1])
        # derived systems too: the key reads their matrix and rhs views
        systems = [base, base.with_rows([(Vector([2]), 1)]), base.with_rhs(1, Fraction(1, 2))]
        for system in systems:
            simplex.is_empty(system)
        # by module name: the package's function ``recompile`` shadows the module
        recompile = importlib.import_module("branchproofs.recompile")
        recompile.long_to_short(Vector([10**6, 1]), 0, 3)
        info = {span[spans.NAME]: span[spans.INFO] for span in recorder.spans}
        empties = [span[spans.INFO] for span in recorder.spans
                   if span[spans.NAME] == "simplex.is_empty"]
        assert [m for m, _ in empties] == [2, 3, 2]  # rows of each system
        assert [key[0] for _, key in empties] == [
            hash((tuple(Vector(a) for a in matrix), tuple(Fraction(b) for b in rhs)))
            for matrix, rhs in (([[1], [-1]], [0, -1]), ([[1], [-1], [2]], [0, -1, 1]),
                                ([[1], [-1]], [0, Fraction(1, 2)]))]
        assert info["diophantine.dirichlet_approx"] >= 1  # the multiplier
        assert info["recompile.long_to_short"] == 2  # levels
    finally:
        spans.uninstall(undo)
    for name, original in solves.items():
        assert getattr(simplex, name) is original
    assert simplex.FarkasCertificate.verify is verify
