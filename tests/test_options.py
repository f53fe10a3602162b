"""Every defaulted parameter of the library is one that a program sets.

A parameter with a default that no call in ``src/`` or ``bench/`` sets is a
constant in disguise: make it a module constant, or delete it, or name it in
``KEPT`` with the reason it stays.  A dataclass field with a default is a
parameter of the dataclass's ``__init__``.  Calls are matched to definitions
by name only (a call of a class sets the parameters of its ``__init__``), so
a call of any function of the same name counts as setting it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "wavegrf"

#: "function:parameter" (methods as "Class.method") -> why it stays unset
KEPT = {
    "apply_sqrt:cg_tol": "tolerance of the shifted CG solves",
    "lanczos_extremes:tol": "stopping tolerance of the Lanczos bounds",
    "schedule:n": "the paper's manifold dimension in the sample schedule",
    "schedule:alpha": "the paper's convergence rate in the sample schedule",
    "schedule:alpha0": "the paper's upper rate in the sample schedule",
    "WaveletSystem.__init__:j0": "the paper's coarsest level, fixed per family by default",
    "WaveletSystem.wavelet_values:dual": "acceptance criterion 1 evaluates both families",
    "WaveletSystem.wavelet_values:sweeps": "acceptance criterion 1 evaluates at sweeps = 10",
    "WaveletSystem.synthesize_on_grid:dual": "primal expansions, checked against a reference",
    "predict_at:resolution": "the prediction grid, checked at the single-scale level and above",
}


def _defaulted_parameters():
    """(key, callee name, positional index or None) of each defaulted parameter."""
    out = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for c in ast.walk(tree):
            if isinstance(c, ast.ClassDef) and any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass"
                    for d in c.decorator_list):
                fields = [s for s in c.body if isinstance(s, ast.AnnAssign)]
                out += [(f"{c.name}.__init__:{s.target.id}", c.name, i)
                        for i, s in enumerate(fields) if s.value is not None]
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            cls = owner.get(id(f))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in f.decorator_list)
            shift = 1 if cls is not None and not static else 0
            callee = cls.name if cls is not None and f.name == "__init__" else f.name
            key = f"{cls.name}.{f.name}" if cls is not None else f.name
            pos = f.args.posonlyargs + f.args.args
            first = len(pos) - len(f.args.defaults)
            for i, arg in enumerate(pos[first:], start=first):
                out.append((f"{key}:{arg.arg}", callee, i - shift))
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    out.append((f"{key}:{arg.arg}", callee, None))
    return out


def _calls():
    """Call nodes in the library and the benchmark, by called name."""
    calls = {}
    for path in sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, param: str, index) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):           # named or **kw
        return True
    return index is not None and (len(call.args) > index or any(
        isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_set_or_kept():
    calls = _calls()
    unset = {key for key, callee, index in _defaulted_parameters()
             if not any(_sets(c, key.split(":")[1], index) for c in calls.get(callee, []))}
    assert sorted(unset - set(KEPT)) == [], "defaulted but never set: make it a constant"
    assert sorted(set(KEPT) - unset) == [], "KEPT names a parameter that is set or gone"
